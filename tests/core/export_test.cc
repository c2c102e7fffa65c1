#include "src/core/export.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace mfc {
namespace {

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.registered_clients = 60;
  StageResult stage;
  stage.kind = StageKind::kBase;
  stage.stopped = true;
  stage.stopping_crowd_size = 20;
  stage.max_crowd_tested = 20;
  stage.total_requests = 50;
  EpochResult a;
  a.crowd_size = 5;
  a.samples_received = 5;
  a.metric = Millis(12.5);
  EpochResult b;
  b.crowd_size = 20;
  b.samples_received = 19;
  b.metric = Millis(140);
  b.exceeded_threshold = true;
  EpochResult c = b;
  c.crowd_size = 19;
  c.check_phase = true;
  stage.epochs = {a, b, c};
  result.stages.push_back(stage);
  return result;
}

TEST(ExportCsvTest, HeaderAndRows) {
  std::string csv = ExportEpochsCsv(SampleResult());
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "stage,epoch,crowd_size,samples,metric_ms,exceeded,check_phase,stopped_stage");
  EXPECT_NE(csv.find("Base,1,5,5,12.500,0,0,1"), std::string::npos);
  EXPECT_NE(csv.find("Base,2,20,19,140.000,1,0,1"), std::string::npos);
  EXPECT_NE(csv.find("Base,3,19,19,140.000,1,1,1"), std::string::npos);
  // Exactly header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(ExportCsvTest, EmptyResult) {
  ExperimentResult result;
  std::string csv = ExportEpochsCsv(result);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);  // header only
}

TEST(ExportJsonTest, StructureAndVerdicts) {
  std::string json = ExportJson(SampleResult());
  EXPECT_NE(json.find("\"aborted\":false"), std::string::npos);
  EXPECT_NE(json.find("\"registered_clients\":60"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"Base\""), std::string::npos);
  EXPECT_NE(json.find("\"stopped\":true"), std::string::npos);
  EXPECT_NE(json.find("\"stopping_crowd_size\":20"), std::string::npos);
  EXPECT_NE(json.find("\"crowd\":19"), std::string::npos);
  EXPECT_NE(json.find("\"check\":true"), std::string::npos);
}

TEST(ExportJsonTest, AbortedCarriesEscapedReason) {
  const std::pair<std::string, std::string> cases[] = {
      {"only \"12\" clients\nresponded", "only \\\"12\\\" clients\\nresponded"},
      {"probe\ttimed out", "probe\\ttimed out"},
  };
  for (const auto& [reason, escaped] : cases) {
    ExperimentResult result;
    result.aborted = true;
    result.abort_reason = reason;
    std::string json = ExportJson(result);
    EXPECT_NE(json.find("\"aborted\":true"), std::string::npos);
    EXPECT_NE(json.find("\"abort_reason\":\"" + escaped + "\""), std::string::npos) << json;
  }
}

TEST(ExportJsonTest, NoStoppingSizeWhenNotStopped) {
  ExperimentResult result = SampleResult();
  result.stages[0].stopped = false;
  std::string json = ExportJson(result);
  EXPECT_EQ(json.find("stopping_crowd_size"), std::string::npos);
  EXPECT_NE(json.find("\"stopped\":false"), std::string::npos);
}

}  // namespace
}  // namespace mfc
