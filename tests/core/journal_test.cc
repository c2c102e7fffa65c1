// Write-ahead experiment journal: codec round-trips, corruption recovery,
// and the deterministic-resume contract (a killed survey resumed with a
// different jobs count reproduces an uninterrupted run byte for byte).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment_runner.h"
#include "src/core/export.h"
#include "src/core/journal/journal.h"
#include "src/core/journal/json.h"
#include "src/core/journal/shutdown.h"
#include "src/core/survey.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string Slurp(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  fclose(f);
  return contents;
}

void Spit(const std::string& path, const std::string& contents) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  fwrite(contents.data(), 1, contents.size(), f);
  fclose(f);
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

// ---- exact-double layer -------------------------------------------------

TEST(ExactDoubleTest, RoundTripsBitPatterns) {
  const double values[] = {0.0,    -0.0,   0.1,  1.0 / 3.0, -3.25, 1e308,
                           5e-324, 1e-300, 42.0, 123456.789};
  for (double v : values) {
    double back = 0.0;
    ASSERT_TRUE(DecodeExactDouble(EncodeExactDouble(v), &back));
    EXPECT_EQ(memcmp(&v, &back, sizeof(v)), 0) << v;
  }
}

TEST(ExactDoubleTest, RejectsMalformedEncodings) {
  double out = 0.0;
  EXPECT_FALSE(DecodeExactDouble("", &out));
  EXPECT_FALSE(DecodeExactDouble("x123", &out));                   // too short
  EXPECT_FALSE(DecodeExactDouble("y0000000000000000", &out));      // bad prefix
  EXPECT_FALSE(DecodeExactDouble("x000000000000000G", &out));      // bad hex
  EXPECT_FALSE(DecodeExactDouble("x00000000000000000", &out));     // too long
}

// ---- record codecs -------------------------------------------------------

ExperimentResult MakeResult() {
  ExperimentResult result;
  result.registered_clients = 61;
  StageResult stage;
  stage.kind = StageKind::kSmallQuery;
  stage.stopped = true;
  stage.stopping_crowd_size = 25;
  stage.max_crowd_tested = 30;
  stage.end_reason = StageEndReason::kConstraintFound;
  stage.end_detail = "metric 123.4 ms > theta \"quoted\"";
  stage.total_requests = 77;
  stage.started = 1.5;
  stage.finished = 208.25 + 0.1;  // force a non-terminating binary fraction
  EpochResult epoch;
  epoch.crowd_size = 25;
  epoch.samples_received = 24;
  epoch.samples_expected = 25;
  epoch.metric = 0.1234567;
  epoch.exceeded_threshold = true;
  epoch.check_phase = true;
  RequestSample sample;
  sample.client_id = 7;
  sample.code = HttpStatus::kOk;
  sample.bytes = 2048;
  sample.response_time = 0.105;
  sample.normalized = 1.0 / 3.0;
  sample.timed_out = false;
  epoch.samples.push_back(sample);
  sample.client_id = 8;
  sample.code = HttpStatus::kClientTimeout;
  sample.timed_out = true;
  epoch.samples.push_back(sample);
  stage.epochs.push_back(epoch);
  result.stages.push_back(stage);
  return result;
}

TEST(JournalCodecTest, ExperimentResultRoundTrips) {
  ExperimentResult original = MakeResult();
  std::string encoded = EncodeExperimentSummary(original);
  ExperimentResult decoded;
  ASSERT_TRUE(DecodeExperimentSummary(encoded, &decoded));
  // Re-encoding must be byte-identical: the summary codec loses nothing.
  EXPECT_EQ(EncodeExperimentSummary(decoded), encoded);
  EXPECT_EQ(decoded.registered_clients, 61u);
  ASSERT_EQ(decoded.stages.size(), 1u);
  EXPECT_EQ(decoded.stages[0].kind, StageKind::kSmallQuery);
  EXPECT_EQ(decoded.stages[0].end_detail, original.stages[0].end_detail);
  ASSERT_EQ(decoded.stages[0].epochs.size(), 1u);
  const EpochResult& epoch = decoded.stages[0].epochs[0];
  EXPECT_EQ(epoch.samples_received, 24u);
  EXPECT_TRUE(epoch.check_phase);
  EXPECT_TRUE(epoch.samples.empty());
  EXPECT_EQ(memcmp(&epoch.metric, &original.stages[0].epochs[0].metric, sizeof(double)), 0);
  // The whole-result form carries samples, which a summary never does.
  EXPECT_FALSE(DecodeExperimentSummary(EncodeExperimentResult(original), &decoded));
}

// Verdict digests hash EncodeExperimentResult, raw sample bits included; a
// site record stores the summary, which no sample bit can move.
TEST(JournalCodecTest, SampleBitsMoveResultEncodingButNotSiteRecord) {
  JournalSiteRecord record;
  record.result = MakeResult();
  const std::string site = EncodeSiteRecord(record);
  const std::string whole = EncodeExperimentResult(record.result);
  double& normalized = record.result.stages[0].epochs[0].samples[1].normalized;
  uint64_t bits = 0;
  memcpy(&bits, &normalized, sizeof(bits));
  bits ^= 1;
  memcpy(&normalized, &bits, sizeof(bits));
  EXPECT_NE(EncodeExperimentResult(record.result), whole);
  EXPECT_EQ(EncodeSiteRecord(record), site);
}

TEST(JournalCodecTest, MetricsRoundTrip) {
  MetricsRegistry metrics;
  metrics.Add("req.count", 3.0);
  metrics.Set("queue.depth", 17.5);
  metrics.Observe("rt", 0.1);
  metrics.Observe("rt", 0.3);
  metrics.Observe("rt", 0.25);
  metrics.HistObserve("lat", LatencyBucketEdgesMs(), 12.0);
  metrics.HistObserve("lat", LatencyBucketEdgesMs(), 700.0);
  std::string encoded = EncodeMetrics(metrics);
  MetricsRegistry decoded;
  ASSERT_TRUE(DecodeMetrics(encoded, &decoded));
  EXPECT_TRUE(decoded == metrics);
  EXPECT_EQ(EncodeMetrics(decoded), encoded);
}

TEST(JournalCodecTest, TraceSpansRoundTrip) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("request", "server", 0, 1.0);
  SpanId child = tracer.StartSpan("cpu", "server", root, 1.25);
  tracer.Attr(child, "budget_s", 0.125);
  tracer.EndSpan(child, 1.5);
  tracer.EndSpan(root, 2.0);
  std::string encoded = EncodeTraceSpans(tracer.Spans());
  std::vector<TraceSpan> decoded;
  ASSERT_TRUE(DecodeTraceSpans(encoded, &decoded));
  EXPECT_EQ(EncodeTraceSpans(decoded), encoded);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].parent, root);
  EXPECT_EQ(decoded[1].attrs.size(), 1u);
  EXPECT_FALSE(decoded[0].open);
}

TEST(JournalCodecTest, FrameCarriesVerifiableChecksum) {
  std::string body = R"({"type":"site","index":3})";
  std::string line = FrameJournalRecord(body);
  ASSERT_EQ(line.back(), '\n');
  // The frame embeds the body verbatim and a 16-hex fnv1a64 of it.
  EXPECT_NE(line.find(body), std::string::npos);
  char expect[24];
  snprintf(expect, sizeof(expect), "%016llx",
           static_cast<unsigned long long>(Fnv1a64(body)));
  EXPECT_NE(line.find(expect), std::string::npos);
}

// ---- survey journal: resume determinism ----------------------------------

constexpr Cohort kCohort = Cohort::kStartup;
constexpr StageKind kStage = StageKind::kBase;
constexpr size_t kServers = 3;
constexpr size_t kMaxCrowd = 20;
constexpr uint64_t kSeed = 901;
constexpr char kTool[] = "journal_test";
constexpr char kPrint[] = "trace=1;metrics=1";

struct SurveyOut {
  SurveyBreakdown breakdown;
  std::vector<ExperimentResult> per_site;
  SurveyTelemetry telemetry;
};

void RunCohort(SurveyOut* out, size_t jobs, SurveyJournal* journal) {
  out->telemetry.collect_trace = true;
  out->telemetry.collect_metrics = true;
  out->breakdown = RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed, jobs,
                                           &out->per_site, &out->telemetry, journal);
}

using ResultEncoder = std::string (*)(const ExperimentResult&);

std::string EncodeAll(const std::vector<ExperimentResult>& results, ResultEncoder encode) {
  std::string all;
  for (const ExperimentResult& r : results) {
    all += encode(r);
    all += '\n';
  }
  return all;
}

// A site replayed from the journal carries no raw samples, so a resumed
// run's results compare through the summary its site record stores.
void ExpectSameOutput(const SurveyOut& a, const SurveyOut& b,
                      ResultEncoder encode = EncodeExperimentResult) {
  EXPECT_EQ(a.breakdown, b.breakdown);
  EXPECT_EQ(EncodeAll(a.per_site, encode), EncodeAll(b.per_site, encode));
  EXPECT_TRUE(a.telemetry.metrics == b.telemetry.metrics);
  EXPECT_EQ(ExportTraceJson(a.telemetry.trace), ExportTraceJson(b.telemetry.trace));
}

std::vector<std::string> SortedLines(const std::string& contents) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t newline = contents.find('\n', pos);
    lines.push_back(contents.substr(pos, newline - pos));
    pos = newline == std::string::npos ? contents.size() : newline + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::unique_ptr<SurveyJournal> OpenForTest(const std::string& path, bool resume) {
  std::string error;
  std::unique_ptr<SurveyJournal> journal = SurveyJournal::Open(path, kTool, kPrint, resume,
                                                               &error);
  EXPECT_NE(journal, nullptr) << error;
  if (journal != nullptr) {
    std::string begin_error;
    EXPECT_TRUE(journal->BeginCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, 0,
                                     &begin_error))
        << begin_error;
  }
  return journal;
}

TEST(SurveyJournalTest, FreshJournalMatchesPlainRun) {
  std::string path = TempPath("journal_fresh.jsonl");
  remove(path.c_str());
  SurveyOut plain;
  RunCohort(&plain, 1, nullptr);
  SurveyOut journaled;
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
    RunCohort(&journaled, 2, journal.get());
    EXPECT_EQ(journal->executed_sites.load(), kServers);
    EXPECT_EQ(journal->resumed_sites.load(), 0u);
    EXPECT_FALSE(journal->interrupted.load());
  }
  ExpectSameOutput(plain, journaled);
  remove(path.c_str());
}

// Kill points are simulated by truncating the journal to its first K site
// records. A killed writer leaves every record it wrote, and a machine
// crash a synced prefix of whole records (GroupCommitLosesOnlyTheUnsyncedTail
// pins that); either way the file is a run of whole records.
TEST(SurveyJournalTest, ResumeFromAnyPrefixIsBitIdentical) {
  std::string path = TempPath("journal_prefix.jsonl");
  remove(path.c_str());
  SurveyOut plain;
  RunCohort(&plain, 1, nullptr);
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
    SurveyOut full;
    RunCohort(&full, 1, journal.get());
  }
  std::string contents = Slurp(path);
  for (size_t keep_sites : {size_t{0}, size_t{1}, kServers - 1}) {
    // Keep the header + cohort record + keep_sites site records.
    size_t keep_lines = 2 + keep_sites;
    size_t offset = 0;
    for (size_t line = 0; line < keep_lines; ++line) {
      offset = contents.find('\n', offset) + 1;
    }
    std::string truncated = contents.substr(0, offset);
    Spit(path, truncated);
    auto journal = OpenForTest(path, true);
    ASSERT_NE(journal, nullptr);
    EXPECT_TRUE(journal->Warning().empty()) << journal->Warning();
    SurveyOut resumed;
    RunCohort(&resumed, keep_sites + 1, journal.get());  // a different jobs count
    EXPECT_EQ(journal->resumed_sites.load(), keep_sites);
    EXPECT_EQ(journal->executed_sites.load(), kServers - keep_sites);
    ExpectSameOutput(plain, resumed, EncodeExperimentSummary);
    // Completion must rebuild the full journal — same records, though with
    // jobs > 1 the re-executed suffix may append in completion order.
    EXPECT_EQ(SortedLines(Slurp(path)), SortedLines(contents))
        << "keep_sites=" << keep_sites;
  }
  remove(path.c_str());
}

// Group commit: after a machine crash only the bytes the last fsync covered
// are certain, and some filesystems leave a zero-filled page past them. A
// killed process would keep the page cache, so the test drops the unsynced
// bytes itself: at several points it copies the synced prefix plus a zero
// page, and a resume of the copy must warn and replay exactly the site
// records inside that prefix.
TEST(SurveyJournalTest, GroupCommitLosesOnlyTheUnsyncedTail) {
  constexpr size_t kSites = 3 * kGroupCommitRecords + 7;
  // Real results under their cohort-bound seeds, computed up front so the
  // appends run back to back and the record count, not the timer, triggers
  // the fsyncs.
  std::vector<ExperimentResult> results;
  RunSurveyCohortParallel(kCohort, kStage, kSites, kMaxCrowd, kSeed, 0, &results);
  const std::string path = TempPath("journal_group_commit.jsonl");
  const std::string crash_path = TempPath("journal_group_commit_crash.jsonl");
  remove(path.c_str());
  std::string error;
  auto journal = SurveyJournal::Open(path, kTool, kPrint, false, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_EQ(journal->Fsyncs(), 1u);  // the header, at once
  const uint64_t header_end = journal->SyncedBytes();
  EXPECT_EQ(header_end, FileSize(path));
  ASSERT_TRUE(journal->BeginCohort(kCohort, kStage, kSites, kMaxCrowd, kSeed, 0, &error))
      << error;
  const uint64_t cohort_end = FileSize(path);
  uint64_t offset = cohort_end;
  std::vector<uint64_t> ends;  // file offset past each site record
  const std::vector<size_t> checkpoints = {1, kGroupCommitRecords - 1, kGroupCommitRecords,
                                           2 * kGroupCommitRecords + 3, kSites};
  for (size_t i = 0; i < kSites; ++i) {
    JournalSiteRecord record;
    record.site_index = i;
    record.seed = SiteExperimentSeed(kSeed, kCohort, i);
    record.stage = kStage;
    record.pid = i;
    record.result = results[i];
    journal->AppendSite(record);
    // Every record reaches the file at once, fsynced or not.
    offset += FrameJournalRecord(EncodeSiteRecord(record)).size();
    ends.push_back(offset);
    ASSERT_EQ(FileSize(path), offset) << i;
    const uint64_t synced = journal->SyncedBytes();
    const size_t synced_sites = std::upper_bound(ends.begin(), ends.end(), synced) - ends.begin();
    // An fsync covers whole records.
    EXPECT_TRUE(synced == header_end || synced == cohort_end ||
                (synced_sites > 0 && synced == ends[synced_sites - 1]))
        << i;
    // Fewer than kGroupCommitRecords site records ever wait for an fsync.
    EXPECT_LT(i + 1 - synced_sites, kGroupCommitRecords) << i;
    if (std::find(checkpoints.begin(), checkpoints.end(), i + 1) == checkpoints.end()) {
      continue;
    }
    Spit(crash_path, Slurp(path).substr(0, synced) + std::string(4096, '\0'));
    auto crashed = SurveyJournal::Open(crash_path, kTool, kPrint, true, &error);
    ASSERT_NE(crashed, nullptr) << error;
    EXPECT_NE(crashed->Warning().find("corruption"), std::string::npos) << i;
    // Open cut the zero page off: appends continue the valid prefix.
    EXPECT_EQ(FileSize(crash_path), synced) << i;
    for (size_t j = 0; j < kSites; ++j) {
      const JournalSiteRecord* replayed = crashed->SiteAt(0, j);
      if (j < synced_sites) {
        ASSERT_NE(replayed, nullptr) << "site " << j << " after " << i + 1 << " appends";
        EXPECT_EQ(EncodeExperimentSummary(replayed->result), EncodeExperimentSummary(results[j]));
      } else {
        EXPECT_EQ(replayed, nullptr) << "site " << j << " after " << i + 1 << " appends";
      }
    }
  }
  // The schedule: the header's fsync, one per kGroupCommitRecords records,
  // and a spare for the timer on a slow machine.
  EXPECT_LE(journal->Fsyncs(), (kSites + kGroupCommitRecords - 1) / kGroupCommitRecords + 2);
  EXPECT_LT(journal->SyncedBytes(), FileSize(path));
  EXPECT_TRUE(journal->Sync());
  EXPECT_EQ(journal->SyncedBytes(), FileSize(path));
  EXPECT_TRUE(journal->Error().empty()) << journal->Error();
  journal.reset();
  remove(path.c_str());
  remove(crash_path.c_str());
}

TEST(SurveyJournalTest, CorruptTailDroppedAndRecovered) {
  std::string path = TempPath("journal_corrupt_tail.jsonl");
  remove(path.c_str());
  SurveyOut plain;
  RunCohort(&plain, 1, nullptr);
  {
    auto journal = OpenForTest(path, false);
    SurveyOut full;
    RunCohort(&full, 1, journal.get());
  }
  std::string contents = Slurp(path);
  // A torn final write: half a record with no newline.
  Spit(path, contents.substr(0, contents.size() - 40));
  {
    auto journal = OpenForTest(path, true);
    ASSERT_NE(journal, nullptr);
    EXPECT_FALSE(journal->Warning().empty());
    EXPECT_EQ(journal->RecordsDropped(), 1u);
    SurveyOut resumed;
    RunCohort(&resumed, 2, journal.get());
    ExpectSameOutput(plain, resumed, EncodeExperimentSummary);
  }
  EXPECT_EQ(Slurp(path), contents);
  remove(path.c_str());
}

TEST(SurveyJournalTest, ChecksumMismatchDropsRecordAndSuffix) {
  std::string path = TempPath("journal_corrupt_mid.jsonl");
  remove(path.c_str());
  {
    auto journal = OpenForTest(path, false);
    SurveyOut full;
    RunCohort(&full, 1, journal.get());
  }
  std::string contents = Slurp(path);
  // Flip one byte inside the first site record's body (line 3): the frame
  // stays well-formed but the checksum no longer matches.
  size_t line3 = contents.find('\n', contents.find('\n') + 1) + 1;
  std::string corrupted = contents;
  size_t flip = corrupted.find("\"result\"", line3) + 1;
  corrupted[flip] = corrupted[flip] == 'r' ? 'R' : 'r';
  Spit(path, corrupted);
  auto journal = OpenForTest(path, true);
  ASSERT_NE(journal, nullptr);
  EXPECT_FALSE(journal->Warning().empty());
  // The bad record and everything after it are gone; only the prefix replays.
  EXPECT_EQ(journal->RecordsDropped(), kServers);
  EXPECT_EQ(journal->Replayed(0), nullptr);
  SurveyOut plain;
  RunCohort(&plain, 1, nullptr);
  SurveyOut resumed;
  RunCohort(&resumed, 1, journal.get());
  EXPECT_EQ(journal->resumed_sites.load(), 0u);
  EXPECT_EQ(journal->executed_sites.load(), kServers);
  ExpectSameOutput(plain, resumed);
  remove(path.c_str());
}

TEST(SurveyJournalTest, FingerprintMismatchIsHardError) {
  std::string path = TempPath("journal_fingerprint.jsonl");
  remove(path.c_str());
  {
    std::string error;
    auto journal = SurveyJournal::Open(path, kTool, kPrint, false, &error);
    ASSERT_NE(journal, nullptr);
  }
  std::string error;
  EXPECT_EQ(SurveyJournal::Open(path, kTool, "trace=0;metrics=0", true, &error), nullptr);
  EXPECT_NE(error.find("different run"), std::string::npos) << error;
  EXPECT_EQ(SurveyJournal::Open(path, "other_tool", kPrint, true, &error), nullptr);
  remove(path.c_str());
}

TEST(SurveyJournalTest, NotAJournalIsHardError) {
  std::string path = TempPath("journal_not_a_journal.jsonl");
  JournalQuarantineRecord quarantine;
  quarantine.crashes = 1;
  quarantine.signature = "signal 6 (Aborted)";
  // An empty file is a journal only to Open, which then writes its header;
  // the read-only reader and the supervisor's append refuse it.
  for (const std::string contents : {"this is not a journal\n", ""}) {
    Spit(path, contents);
    std::string error;
    if (!contents.empty()) {
      EXPECT_EQ(SurveyJournal::Open(path, kTool, kPrint, true, &error), nullptr);
      EXPECT_NE(error.find("not an mfc journal"), std::string::npos) << error;
    }
    JournalFileData data;
    EXPECT_FALSE(ReadJournalFile(path, &data, &error));
    EXPECT_NE(error.find("not an mfc journal"), std::string::npos) << error;
    EXPECT_FALSE(AppendQuarantineRecord(path, quarantine, &error));
    EXPECT_NE(error.find("not an mfc journal"), std::string::npos) << error;
    // Crucially, the unrecognized file must survive untouched — no reader
    // may truncate or overwrite something that is not a journal.
    EXPECT_EQ(Slurp(path), contents);
  }
  remove(path.c_str());
}

// A journal from another format version is refused outright, resume or
// not, and left byte-for-byte alone: reading its records as corruption
// would truncate them away.
TEST(SurveyJournalTest, OtherVersionIsHardErrorAndFileUntouched) {
  std::string path = TempPath("journal_version1.jsonl");
  std::string header = FrameJournalRecord(
      R"({"type":"header","magic":"mfc-journal","version":1,"tool":"journal_test",)"
      R"("fingerprint":"trace=1;metrics=1"})");
  std::string cohort = FrameJournalRecord(
      R"({"type":"cohort","ordinal":0,"cohort":4,"stage":0,"servers":3,"max_crowd":20,)"
      R"("seed":901,"pid_base":0})");
  const std::string contents = header + cohort;
  for (bool resume : {false, true}) {
    Spit(path, contents);
    std::string error;
    EXPECT_EQ(SurveyJournal::Open(path, kTool, kPrint, resume, &error), nullptr);
    EXPECT_NE(error.find("journal version 1 != " + std::to_string(kJournalVersion)),
              std::string::npos)
        << error;
    EXPECT_EQ(Slurp(path), contents) << "resume=" << resume;
  }
  remove(path.c_str());
}

TEST(SurveyJournalTest, CohortConfigMismatchFailsBeginCohort) {
  std::string path = TempPath("journal_cohort_mismatch.jsonl");
  remove(path.c_str());
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
  }
  std::string error;
  auto journal = SurveyJournal::Open(path, kTool, kPrint, true, &error);
  ASSERT_NE(journal, nullptr) << error;
  std::string begin_error;
  EXPECT_FALSE(journal->BeginCohort(kCohort, kStage, kServers + 1, kMaxCrowd, kSeed, 0,
                                    &begin_error));
  EXPECT_NE(begin_error.find("mismatch"), std::string::npos) << begin_error;
  remove(path.c_str());
}

TEST(SurveyJournalTest, ExistingRecordsRequireResume) {
  std::string path = TempPath("journal_needs_resume.jsonl");
  remove(path.c_str());
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
  }
  std::string error;
  EXPECT_EQ(SurveyJournal::Open(path, kTool, kPrint, false, &error), nullptr);
  EXPECT_NE(error.find("--resume"), std::string::npos) << error;
  remove(path.c_str());
}

TEST(SurveyJournalTest, ShutdownRequestInterruptsThenResumeCompletes) {
  std::string path = TempPath("journal_shutdown.jsonl");
  remove(path.c_str());
  SurveyOut plain;
  RunCohort(&plain, 1, nullptr);
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
    RequestShutdown();
    SurveyOut interrupted;
    RunCohort(&interrupted, 1, journal.get());
    ClearShutdownRequest();
    EXPECT_TRUE(journal->interrupted.load());
    EXPECT_EQ(journal->executed_sites.load(), 0u);
  }
  auto journal = OpenForTest(path, true);
  ASSERT_NE(journal, nullptr);
  SurveyOut resumed;
  RunCohort(&resumed, 2, journal.get());
  EXPECT_FALSE(journal->interrupted.load());
  EXPECT_EQ(journal->executed_sites.load(), kServers);
  ExpectSameOutput(plain, resumed);
  remove(path.c_str());
}

// ---- decoder robustness ---------------------------------------------------

// The records a journal file holds after its first header and cohort record,
// re-encoded and framed.
std::string ReencodeTail(const JournalFileData& data) {
  std::string tail;
  for (size_t c = 1; c < data.cohorts.size(); ++c) {
    tail += FrameJournalRecord(EncodeCohortRecord(data.cohorts[c]));
  }
  for (const auto& [key, site] : data.sites) {
    tail += FrameJournalRecord(EncodeSiteRecord(site));
  }
  for (const auto& [key, q] : data.quarantines) {
    tail += FrameJournalRecord(EncodeQuarantineRecord(q));
  }
  return tail;
}

// Reads |prefix| (a valid header and cohort record) followed by |mutant|.
// Returns whether the mutant was accepted; an accepted record must be
// canonical, re-encoding to exactly its own bytes.
bool ExpectRoundTripOrRejected(const std::string& path, const std::string& prefix,
                               const std::string& mutant) {
  Spit(path, prefix + mutant);
  JournalFileData data;
  std::string error;
  EXPECT_TRUE(ReadJournalFile(path, &data, &error)) << error;
  if (data.records_dropped != 0) {
    return false;
  }
  EXPECT_EQ(ReencodeTail(data), mutant);
  return true;
}

// Seeded random-mutation corpus over a real journal's header, cohort, site
// (with trace and metrics) and quarantine records: flip, delete, insert and
// truncate bytes. Half the mutants are re-framed with a valid checksum so
// the record readers see them, not only the checksum. Each mutant is read
// after a valid header and cohort record; the reader must never crash, and
// every record it accepts must re-encode to its own bytes.
TEST(JournalCodecTest, SeededMutationCorpusNeverCrashesOrMisparses) {
  const std::string path = TempPath("journal_mutants.jsonl");
  remove(path.c_str());
  {
    auto journal = OpenForTest(path, false);
    ASSERT_NE(journal, nullptr);
    SurveyOut out;
    RunCohort(&out, 1, journal.get());
  }
  // Keep the header, cohort and site 0 records, then let the supervisor's
  // path quarantine site 1.
  std::string contents = Slurp(path);
  size_t site0_end = 0;
  for (int line = 0; line < 3; ++line) {
    site0_end = contents.find('\n', site0_end) + 1;
  }
  Spit(path, contents.substr(0, site0_end));
  std::string error;
  ASSERT_TRUE(AppendQuarantineRecord(path, JournalQuarantineRecord{0, 1, 3, "signal 6 (Aborted)"},
                                     &error))
      << error;
  contents = Slurp(path);
  std::vector<std::string> bodies;  // header, cohort, site, quarantine
  for (size_t pos = 0; pos < contents.size();) {
    size_t newline = contents.find('\n', pos);
    const std::string line = contents.substr(pos, newline - pos);
    const size_t body_start = line.find("\"body\":") + 7;
    bodies.push_back(line.substr(body_start, line.size() - body_start - 1));
    pos = newline + 1;
  }
  ASSERT_EQ(bodies.size(), 4u);
  ASSERT_NE(bodies[2].find("\"trace\":"), std::string::npos);
  ASSERT_NE(bodies[2].find("\"metrics\":"), std::string::npos);
  const std::string prefix = FrameJournalRecord(bodies[0]) + FrameJournalRecord(bodies[1]);

  Rng rng(20261018);
  const std::string alphabet = " 019afx-+.,:\"{}[]\\\x01\x7f\xff";
  auto mutate = [&](std::string mutant) {
    size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits && !mutant.empty(); ++e) {
      size_t at = rng.NextBelow(mutant.size());
      switch (rng.NextBelow(4)) {
        case 0:  // flip
          mutant[at] = alphabet[rng.NextBelow(alphabet.size())];
          break;
        case 1:  // delete
          mutant.erase(at, 1);
          break;
        case 2:  // insert
          mutant.insert(at, 1, alphabet[rng.NextBelow(alphabet.size())]);
          break;
        default:  // truncate
          mutant.resize(at);
          break;
      }
    }
    return mutant;
  };
  size_t accepted = 0;
  for (const std::string& body : bodies) {
    for (int round = 0; round < 150; ++round) {
      const std::string mutant = round % 2 == 0 ? FrameJournalRecord(mutate(body))
                                                : mutate(FrameJournalRecord(body));
      accepted += ExpectRoundTripOrRejected(path, prefix, mutant) ? 1 : 0;
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  // The unmutated site and quarantine records are accepted too.
  EXPECT_TRUE(ExpectRoundTripOrRejected(path, prefix, FrameJournalRecord(bodies[2])));
  EXPECT_TRUE(ExpectRoundTripOrRejected(path, prefix, FrameJournalRecord(bodies[3])));
  EXPECT_GT(accepted, 0u);
  remove(path.c_str());
}

// A single-run journal (a header and site (0, 0) with no cohort record, as
// mfc_profile writes one) whose site record is replaced by bytes no writer
// emits, re-framed with a valid checksum: each variant is dropped as a
// malformed site record. With no cohort record to bind the site, a lenient
// reader would take "index":-1 as site 2^64-1 and "+0" or " 0" as site 0.
TEST(JournalCodecTest, NonCanonicalRecordsAreCorrupt) {
  const std::string path = TempPath("journal_noncanonical.jsonl");
  remove(path.c_str());
  std::string error;
  ASSERT_NE(SurveyJournal::Open(path, kTool, kPrint, false, &error), nullptr) << error;
  const std::string header = Slurp(path);
  JournalSiteRecord record;
  record.seed = 77;
  record.pid = 5;
  record.result = MakeResult();
  Tracer tracer;
  tracer.EndSpan(tracer.StartSpan("request", "server", 0, 1.0), 2.0);
  record.has_trace = true;
  record.trace_spans = tracer.Spans();
  record.has_metrics = true;
  record.metrics.Add("a.count", 2.0);
  record.metrics.Add("b.count", 3.0);
  const std::string site = EncodeSiteRecord(record);
  auto read = [&](const std::string& body) {
    Spit(path, header + FrameJournalRecord(body));
    JournalFileData data;
    EXPECT_TRUE(ReadJournalFile(path, &data, &error)) << error;
    return data;
  };
  // |from| must occur in the site record after |after|.
  auto replace = [&](const std::string& from, const std::string& to, const char* after = "{") {
    const size_t at = site.find(from, site.find(after));
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? site : std::string(site).replace(at, from.size(), to);
  };
  JournalFileData data = read(site);
  EXPECT_EQ(data.records_dropped, 0u) << data.warning;
  EXPECT_EQ(data.sites.count({0, 0}), 1u);
  const std::string variants[] = {
      replace(R"("index":0)", R"("index":-1)"),
      replace(R"("index":0)", R"("index":+0)"),
      replace(R"("index":0)", R"("index": 0)"),
      replace(R"(",0,)", R"(",00,)", R"("trace":)"),  // the span's open field
      replace(R"("server")", R"("ser\/ver")"),
      replace(R"("server")", R"("ser\u001Fver")"),
      replace(R"("server")", "\"ser\x01ver\""),
      replace(R"("seed":77,"stage":0)", R"("stage":0,"seed":77)"),
      replace(R"("pid":5)", R"("pid":5,"extra":1)"),
      replace(R"("b.count")", R"("a.count")"),
  };
  for (const std::string& variant : variants) {
    data = read(variant);
    EXPECT_EQ(data.records_dropped, 1u) << variant;
    EXPECT_NE(data.warning.find("malformed site record"), std::string::npos) << data.warning;
    EXPECT_TRUE(data.sites.empty()) << variant;
  }
  remove(path.c_str());
}

}  // namespace
}  // namespace mfc
