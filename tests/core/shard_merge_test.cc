// Sharded, streaming surveys (DESIGN.md §12): collision-free seed
// derivation, on-demand site sampling, and merging shard journals back into
// a byte-identical single-process run.
#include "src/core/shard_merge.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/export.h"
#include "src/core/journal/journal.h"
#include "src/core/population.h"
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

// ---- seed derivation ------------------------------------------------------

// The regression the PR exists for: under the historical seed * 1000 + i
// scheme, site 1000 of survey seed s ran with exactly the seed of site 0 of
// survey seed s + 1 — two "independent" surveys shared experiments. The
// SplitMix64 derivation must not alias those pairs.
TEST(SeedDerivationTest, CrossSurveyCollisionIsGone) {
  constexpr Cohort kCohort = Cohort::kStartup;
  for (uint64_t s : {1ull, 7ull, 901ull, 123456ull}) {
    // The legacy collision this replaces, stated as arithmetic:
    ASSERT_EQ(s * 1000 + 1000, (s + 1) * 1000 + 0);
    EXPECT_NE(SiteExperimentSeed(s, kCohort, 1000), SiteExperimentSeed(s + 1, kCohort, 0));
    EXPECT_NE(SiteSampleSeed(s, kCohort, 1000), SiteSampleSeed(s + 1, kCohort, 0));
  }
}

TEST(SeedDerivationTest, TriplesAreDistinctAcrossSeedCohortAndIndex) {
  std::set<uint64_t> seen;
  size_t count = 0;
  for (uint64_t seed : {1ull, 2ull, 1000001ull}) {
    for (Cohort cohort : {Cohort::kRank1To1K, Cohort::kStartup, Cohort::kLongTail}) {
      for (uint64_t index = 0; index < 500; ++index) {
        seen.insert(SiteExperimentSeed(seed, cohort, index));
        seen.insert(SiteSampleSeed(seed, cohort, index));
        count += 2;
      }
    }
  }
  // Sample and experiment domains are separated, so every derived seed in
  // this grid is unique.
  EXPECT_EQ(seen.size(), count);
}

TEST(SeedDerivationTest, SplitMix64MatchesReferenceVectors) {
  // Reference values from the canonical SplitMix64 (Steele et al.), seed 0
  // and 1: the Python reimplementation in tools/check_shard_merge.py checks
  // against the same constants.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ULL);
}

// ---- streaming site sampling ----------------------------------------------

TEST(SiteSamplingTest, StreamingModeIsPureAndHoldsNoInstances) {
  constexpr uint64_t kSeed = 41;
  constexpr Cohort kPhishing = Cohort::kPhishing;
  // Site i is a pure function of (seed, cohort, i): any access order, any
  // number of accesses, same instance — what lets a 1M-site survey
  // regenerate sites on demand instead of holding an instances vector.
  std::map<size_t, SiteInstance> first_draw;
  for (size_t i : {size_t{63}, size_t{0}, size_t{17}, size_t{63}, size_t{0}}) {
    SiteInstance a = SampleSiteAt(kSeed, kPhishing, i);
    Rng rng(SiteSampleSeed(kSeed, kPhishing, i));
    SiteInstance b = SampleSite(rng, kPhishing);
    EXPECT_EQ(a.base_knee, b.base_knee) << i;
    EXPECT_EQ(a.query_knee, b.query_knee) << i;
    EXPECT_EQ(a.server_access_bps, b.server_access_bps) << i;
    const SiteInstance& first = first_draw.emplace(i, a).first->second;
    EXPECT_EQ(a.base_knee, first.base_knee) << i;
    EXPECT_EQ(a.bandwidth_knee, first.bandwidth_knee) << i;
  }
}

TEST(SiteSamplingTest, LongTailProvisioningDegradesWithRank) {
  // The long-tail synthesizer draws rank-dependent knees: averaged over many
  // sites, the deep tail (rank ~900k) must be provisioned clearly below the
  // head of the band (rank ~1), and every site carries a bounded organic
  // session rate.
  constexpr size_t kSample = 200;
  double head = 0.0, tail = 0.0;
  for (size_t i = 0; i < kSample; ++i) {
    SiteInstance h = SampleSiteAt(5, Cohort::kLongTail, i);
    SiteInstance t = SampleSiteAt(5, Cohort::kLongTail, 900000 + i);
    head += h.base_knee;
    tail += t.base_knee;
    for (const SiteInstance* s : {&h, &t}) {
      EXPECT_GE(s->background_rps, 0.0);
      EXPECT_LE(s->background_rps, 40.0);
      EXPECT_GT(s->base_knee, 0.0);
    }
  }
  EXPECT_LT(tail, 0.6 * head);
}

// ---- sharded runs at the API level ---------------------------------------

constexpr Cohort kCohort = Cohort::kStartup;
constexpr StageKind kStage = StageKind::kBase;
constexpr size_t kServers = 6;
constexpr size_t kMaxCrowd = 20;
constexpr uint64_t kSeed = 901;
constexpr char kTool[] = "shard_merge_test";
constexpr char kPrint[] = "trace=1;metrics=1";

std::string EncodeAll(const std::vector<ExperimentResult>& results) {
  std::string all;
  for (const ExperimentResult& r : results) {
    all += EncodeExperimentResult(r);
    all += '\n';
  }
  return all;
}

// A k-shard partition, run shard by shard with per_site slots combined,
// reproduces the unsharded run exactly — breakdown, per-site results, and
// the folded telemetry bytes.
TEST(ShardedSurveyTest, ShardPartitionReproducesSingleRun) {
  SurveyTelemetry single_telemetry;
  single_telemetry.collect_trace = true;
  single_telemetry.collect_metrics = true;
  std::vector<ExperimentResult> single_sites;
  SurveyBreakdown single = RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed,
                                                   2, &single_sites, &single_telemetry);

  for (size_t shards : {size_t{2}, size_t{3}, size_t{4}}) {
    SurveyTelemetry sharded_telemetry;
    sharded_telemetry.collect_trace = true;
    sharded_telemetry.collect_metrics = true;
    std::vector<ExperimentResult> combined(kServers);
    SurveyBreakdown total;
    total.cohort = kCohort;
    for (size_t shard = 0; shard < shards; ++shard) {
      SurveyRunOptions run;
      run.shards = shards;
      run.shard_index = shard;
      // Each shard's fold starts from the cohort's pid base, exactly like a
      // separate process would.
      sharded_telemetry.next_pid = 0;
      std::vector<ExperimentResult> slice;
      SurveyBreakdown b = RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed,
                                                  2, &slice, &sharded_telemetry, nullptr, run);
      ASSERT_EQ(slice.size(), kServers);
      for (size_t i = shard; i < kServers; i += shards) {
        combined[i] = std::move(slice[i]);
      }
      total.servers += b.servers;
      total.b10 += b.b10;
      total.b20 += b.b20;
      total.b30 += b.b30;
      total.b40 += b.b40;
      total.b50 += b.b50;
      total.b50plus += b.b50plus;
      total.nostop += b.nostop;
    }
    EXPECT_EQ(total, single) << shards << " shards";
    EXPECT_EQ(EncodeAll(combined), EncodeAll(single_sites)) << shards << " shards";
    // Note: sharded_telemetry folded shard-by-shard, which is a different
    // floating-point summation order than the single run's global index
    // order, so registries are only bitwise-equal after a global-order fold —
    // that path (MergeShardJournals) is pinned byte-for-byte below.
    EXPECT_EQ(sharded_telemetry.metrics.Counter("span.Base.count"),
              single_telemetry.metrics.Counter("span.Base.count"))
        << shards << " shards";
  }
}

// ---- journal-level merge --------------------------------------------------

std::unique_ptr<SurveyJournal> OpenShard(const std::string& path, bool resume, size_t shards,
                                         size_t shard_index) {
  std::string error;
  std::unique_ptr<SurveyJournal> journal =
      SurveyJournal::Open(path, kTool, kPrint, resume, &error);
  EXPECT_NE(journal, nullptr) << error;
  if (journal != nullptr) {
    std::string begin_error;
    EXPECT_TRUE(journal->BeginCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, 0,
                                     &begin_error, shards, shard_index))
        << begin_error;
  }
  return journal;
}

void RunShard(const std::string& path, bool resume, size_t shards, size_t shard_index,
              size_t jobs) {
  auto journal = OpenShard(path, resume, shards, shard_index);
  ASSERT_NE(journal, nullptr);
  SurveyTelemetry telemetry;
  telemetry.collect_trace = true;
  telemetry.collect_metrics = true;
  SurveyRunOptions run;
  run.shards = shards;
  run.shard_index = shard_index;
  RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed, jobs, nullptr,
                          &telemetry, journal.get(), run);
}

// Truncating a shard journal to its first K records simulates a crash at
// that point (a killed writer keeps every written record, a machine crash a
// synced prefix of whole records); resuming with a different jobs count
// must leave merge output byte-identical.
TEST(ShardMergeTest, MergedShardsMatchSingleProcessByteForByte) {
  // Reference: one unsharded journaled run.
  std::string ref_path = TempPath("merge_ref.jsonl");
  remove(ref_path.c_str());
  {
    auto journal = OpenShard(ref_path, false, 1, 0);
    ASSERT_NE(journal, nullptr);
    SurveyTelemetry telemetry;
    telemetry.collect_trace = true;
    telemetry.collect_metrics = true;
    RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed, 3, nullptr, &telemetry,
                            journal.get());
  }
  ShardMergeResult ref;
  std::string error;
  ASSERT_TRUE(MergeShardJournals({ref_path}, &ref, &error)) << error;

  for (size_t shards : {size_t{2}, size_t{4}}) {
    std::vector<std::string> paths;
    for (size_t shard = 0; shard < shards; ++shard) {
      std::string path =
          TempPath("merge_" + std::to_string(shards) + "_" + std::to_string(shard) + ".jsonl");
      remove(path.c_str());
      RunShard(path, false, shards, shard, 2);
      paths.push_back(path);
    }
    // Kill shard 0 after its first site record (header + cohort + 1 site),
    // then resume it with a different jobs count.
    std::string contents = Slurp(paths[0]);
    size_t lines = 0, cut = 0;
    for (size_t pos = 0; pos < contents.size(); ++pos) {
      if (contents[pos] == '\n' && ++lines == 3) {
        cut = pos + 1;
        break;
      }
    }
    ASSERT_GT(cut, 0u);
    Spit(paths[0], contents.substr(0, cut));
    RunShard(paths[0], /*resume=*/true, shards, 0, 1);

    ShardMergeResult merged;
    ASSERT_TRUE(MergeShardJournals(paths, &merged, &error)) << error;
    ASSERT_EQ(merged.breakdowns.size(), 1u);
    EXPECT_EQ(merged.breakdowns[0], ref.breakdowns[0]) << shards << " shards";
    EXPECT_EQ(EncodeAll(merged.per_site[0]), EncodeAll(ref.per_site[0])) << shards << " shards";
    EXPECT_EQ(ExportTraceJson(merged.trace), ExportTraceJson(ref.trace)) << shards << " shards";
    EXPECT_EQ(ExportMetricsCsv(merged.metrics), ExportMetricsCsv(ref.metrics))
        << shards << " shards";
    SurveyReportInput report;
    report.cohort_name = "x";
    report.breakdown = merged.breakdowns[0];
    report.per_site = &merged.per_site[0];
    SurveyReportInput ref_report = report;
    ref_report.breakdown = ref.breakdowns[0];
    ref_report.per_site = &ref.per_site[0];
    EXPECT_EQ(BuildSurveyReportJson(report), BuildSurveyReportJson(ref_report));
    for (const std::string& path : paths) {
      remove(path.c_str());
    }
  }
  remove(ref_path.c_str());
}

TEST(ShardMergeTest, RejectsIncompleteShard) {
  std::string a = TempPath("merge_incomplete_0.jsonl");
  std::string b = TempPath("merge_incomplete_1.jsonl");
  remove(a.c_str());
  remove(b.c_str());
  RunShard(a, false, 2, 0, 1);
  RunShard(b, false, 2, 1, 1);
  // Drop shard 1's last site record: merge must refuse and point at --resume.
  std::string contents = Slurp(b);
  size_t cut = contents.rfind('\n', contents.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  Spit(b, contents.substr(0, cut + 1));
  ShardMergeResult merged;
  std::string error;
  EXPECT_FALSE(MergeShardJournals({a, b}, &merged, &error));
  EXPECT_NE(error.find("missing site"), std::string::npos) << error;
  EXPECT_NE(error.find("--resume"), std::string::npos) << error;
  remove(a.c_str());
  remove(b.c_str());
}

TEST(ShardMergeTest, RejectsDuplicateAndMissingShardIndices) {
  std::string a = TempPath("merge_dup_0.jsonl");
  std::string b = TempPath("merge_dup_0b.jsonl");
  remove(a.c_str());
  remove(b.c_str());
  RunShard(a, false, 2, 0, 1);
  RunShard(b, false, 2, 0, 1);  // same shard twice, shard 1 never run
  ShardMergeResult merged;
  std::string error;
  EXPECT_FALSE(MergeShardJournals({a, b}, &merged, &error));
  EXPECT_NE(error.find("both claim shard"), std::string::npos) << error;
  // And a single journal of a 2-shard run cannot stand alone.
  EXPECT_FALSE(MergeShardJournals({a}, &merged, &error));
  EXPECT_NE(error.find("2 shard(s)"), std::string::npos) << error;
  remove(a.c_str());
  remove(b.c_str());
}

// ---- quarantine records & crash-shaped corruption (DESIGN.md §14) --------

// A quarantined site is the one legal gap in a shard journal: the merge
// carries the record through to the report instead of failing, and the
// site's slot stays default (excluded from the breakdown).
TEST(ShardMergeTest, QuarantinedSiteIsALegalGapAndSurfacesInReport) {
  std::string a = TempPath("merge_q_0.jsonl");
  std::string b = TempPath("merge_q_1.jsonl");
  remove(a.c_str());
  remove(b.c_str());
  RunShard(a, false, 2, 0, 1);
  RunShard(b, false, 2, 1, 1);
  // Drop shard 1's last site record (jobs=1 journals in index order, so
  // that is global site 5), as if site 5 kept crashing the worker.
  std::string contents = Slurp(b);
  size_t cut = contents.rfind('\n', contents.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  Spit(b, contents.substr(0, cut + 1));
  JournalQuarantineRecord q;
  q.cohort_ordinal = 0;
  q.site_index = 5;
  q.crashes = 3;
  q.signature = "signal 9 (Killed)";
  std::string error;
  ASSERT_TRUE(AppendQuarantineRecord(b, q, &error)) << error;
  // Quarantining an already-executed site is a silent no-op, not an error —
  // the supervisor may race a worker that made progress after all.
  std::string before = Slurp(b);
  JournalQuarantineRecord executed = q;
  executed.site_index = 1;
  ASSERT_TRUE(AppendQuarantineRecord(b, executed, &error)) << error;
  EXPECT_EQ(Slurp(b), before);
  // The restarted worker replays sites 1 and 3 and skips 5 entirely.
  RunShard(b, /*resume=*/true, 2, 1, 1);

  ShardMergeResult merged;
  ASSERT_TRUE(MergeShardJournals({a, b}, &merged, &error)) << error;
  ASSERT_EQ(merged.quarantined.size(), 1u);
  ASSERT_EQ(merged.quarantined[0].size(), 1u);
  EXPECT_EQ(merged.quarantined[0][0].site_index, 5u);
  EXPECT_EQ(merged.quarantined[0][0].crashes, 3u);
  // Five of six sites contribute to the breakdown; slot 5 is default.
  EXPECT_EQ(merged.breakdowns[0].servers, 5u);
  EXPECT_TRUE(merged.per_site[0][5].stages.empty());

  SurveyReportInput report;
  report.cohort_name = "x";
  report.breakdown = merged.breakdowns[0];
  report.per_site = &merged.per_site[0];
  report.quarantined = &merged.quarantined[0];
  std::string json = BuildSurveyReportJson(report);
  EXPECT_NE(json.find("\"quarantined_sites\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"signature\": \"signal 9 (Killed)\""), std::string::npos) << json;
  // Without quarantines the key is absent — quarantine-free reports stay
  // byte-identical to pre-supervisor builds.
  report.quarantined = nullptr;
  EXPECT_EQ(BuildSurveyReportJson(report).find("quarantined_sites"), std::string::npos);
  remove(a.c_str());
  remove(b.c_str());
}

// A worker that died between BeginCohort and its first site record leaves a
// valid journal with zero progress; the merge names the shard and says
// "resumable" instead of rejecting it ambiguously.
TEST(ShardMergeTest, ClassifiesZeroProgressShards) {
  std::string a = TempPath("merge_zp_0.jsonl");
  std::string b = TempPath("merge_zp_1.jsonl");
  remove(a.c_str());
  remove(b.c_str());
  RunShard(a, false, 2, 0, 1);
  RunShard(b, false, 2, 1, 1);
  std::string contents = Slurp(b);
  // Keep header + cohort record only: BeginCohort done, no site yet.
  size_t first = contents.find('\n');
  size_t second = contents.find('\n', first + 1);
  ASSERT_NE(second, std::string::npos);
  Spit(b, contents.substr(0, second + 1));
  ShardMergeResult merged;
  std::string error;
  EXPECT_FALSE(MergeShardJournals({a, b}, &merged, &error));
  EXPECT_NE(error.find("zero progress"), std::string::npos) << error;
  EXPECT_NE(error.find("shard 1"), std::string::npos) << error;
  EXPECT_NE(error.find("--resume"), std::string::npos) << error;
  // Header only (died during startup, before BeginCohort): same class.
  Spit(b, contents.substr(0, first + 1));
  EXPECT_FALSE(MergeShardJournals({a, b}, &merged, &error));
  EXPECT_NE(error.find("zero progress"), std::string::npos) << error;
  EXPECT_NE(error.find("--resume"), std::string::npos) << error;
  remove(a.c_str());
  remove(b.c_str());
}

// Crash-shaped corruption around quarantine records recovers exactly like
// site records: drop the invalid suffix with a warning, keep the valid
// prefix, resume re-derives the rest.
TEST(ShardMergeTest, QuarantineRecordCorruptionRecovers) {
  std::string path = TempPath("merge_qcorrupt.jsonl");
  remove(path.c_str());
  {
    auto journal = OpenShard(path, false, 2, 1);
    ASSERT_NE(journal, nullptr);
  }
  JournalQuarantineRecord q;
  q.cohort_ordinal = 0;
  q.site_index = 3;
  q.crashes = 2;
  q.signature = "signal 11 (Segmentation fault)";
  std::string error;
  ASSERT_TRUE(AppendQuarantineRecord(path, q, &error)) << error;
  std::string valid = Slurp(path);

  // Torn tail: a half-written record after the quarantine is dropped and the
  // quarantine survives. AppendQuarantineRecord itself also truncates torn
  // tails before writing, so a second append lands on the valid prefix.
  Spit(path, valid + "{\"crc\":\"0123");
  {
    auto journal = SurveyJournal::Open(path, kTool, kPrint, true, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_FALSE(journal->Warning().empty());
    ASSERT_EQ(journal->Quarantines().size(), 1u);
    EXPECT_EQ(journal->Quarantines().begin()->second.site_index, 3u);
  }

  // Duplicate quarantine record: corruption from that record on.
  Spit(path, valid + FrameJournalRecord(EncodeQuarantineRecord(q)));
  {
    auto journal = SurveyJournal::Open(path, kTool, kPrint, true, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_NE(journal->Warning().find("duplicate quarantine"), std::string::npos)
        << journal->Warning();
    EXPECT_EQ(journal->Quarantines().size(), 1u);
  }

  // Bit-flipped checksum inside the quarantine frame: the record is dropped,
  // leaving a clean header + cohort journal.
  std::string flipped = valid;
  size_t frame = flipped.rfind("{\"crc\":\"");
  ASSERT_NE(frame, std::string::npos);
  flipped[frame + 8] = flipped[frame + 8] == '0' ? 'f' : '0';
  Spit(path, flipped);
  {
    auto journal = SurveyJournal::Open(path, kTool, kPrint, true, &error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_FALSE(journal->Warning().empty());
    EXPECT_TRUE(journal->Quarantines().empty());
  }
  remove(path.c_str());
}

}  // namespace
}  // namespace mfc
