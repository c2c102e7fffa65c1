// Write-ahead experiment journal: crash-safe surveys with deterministic
// resume (DESIGN.md §9).
//
// A journal is a JSONL file. Every line is one self-delimiting record
//
//   {"crc":"<16 hex>","body":{...}}\n
//
// where |crc| is the FNV-1a 64 checksum of the exact body bytes. Record
// bodies come in three types:
//
//   header — first line; format version, the producing tool and a
//            caller-supplied config fingerprint (whatever shapes the work
//            that the cohort records do not pin; never --jobs or output
//            paths, which must not matter);
//   cohort — one per RunSurveyCohortParallel call, in call order: cohort,
//            stage, server count, crowd ceiling, seed, the pid base the
//            merged trace assigns this cohort's sites, and the shard
//            identity (DESIGN.md §12);
//   site   — one per completed site experiment: cohort ordinal, site index,
//            seed, stage, merged-trace pid, the ExperimentResult's verdict
//            and per-epoch summary (no raw samples), and (when collected)
//            the site's private trace spans and metrics registry, all
//            encoded with exact bit-pattern doubles;
//   quarantine — written by the shard supervisor (DESIGN.md §14) after a
//            site crashes its worker repeatedly: cohort ordinal, site index,
//            consecutive crash count, and the crash signature. A quarantined
//            site is skipped on resume (its slot stays a default
//            ExperimentResult, excluded from the breakdown) instead of
//            wedging the shard forever.
//
// Because each site experiment is a pure function of (instance, config,
// seed) and the telemetry fold walks sites in index order, replaying the
// journaled prefix and executing only the remainder reproduces an
// uninterrupted run byte for byte, for any kill point and any --jobs value.
//
// Durability (group commit): every record is written and flushed to the
// kernel at once, so a killed writer loses nothing. fsync runs in groups,
// so a machine crash loses at most the records after the last fsync; resume
// re-executes them to the same bytes. The header and quarantine records are
// fsynced at once.
//
// Corruption recovery: loading stops at the first record that fails its
// checksum, is not in the canonical form its encoder writes, or is
// internally inconsistent; that record and everything after it are dropped
// (with a warning) and the file is truncated back to the valid prefix before
// appending resumes. A header that does not match the current version, tool
// and fingerprint is a hard error that leaves the file untouched — a journal
// is never silently reused for a different run or read by a writer of
// another format.
#ifndef MFC_SRC_CORE_JOURNAL_JOURNAL_H_
#define MFC_SRC_CORE_JOURNAL_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/population.h"
#include "src/core/types.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace mfc {

// Version 3: site records carry each epoch's summary, not its raw samples.
// Cohort records carry their shard identity, and every site seed is the
// SplitMix64 derivation (DESIGN.md §12).
inline constexpr int kJournalVersion = 3;

// Group commit: an append fsyncs once this many records are unsynced, or
// once this long has passed since the last fsync. A machine crash loses at
// most those records, and resume re-executes them to the same bytes. 64
// records take fsync, which costs more than encoding a site record, off
// all but one append in 64 while staying a fraction of a second of survey
// work; 1 s caps the loss when sites are slow.
inline constexpr size_t kGroupCommitRecords = 64;
inline constexpr std::chrono::seconds kGroupCommitInterval{1};

struct JournalCohortRecord {
  size_t ordinal = 0;
  Cohort cohort = Cohort::kRank1To1K;
  StageKind stage = StageKind::kBase;
  size_t servers = 0;  // global site count (all shards together)
  size_t max_crowd = 0;
  uint64_t seed = 0;
  uint64_t pid_base = 0;  // merged-trace pid of this cohort's site 0
  // Shard identity (DESIGN.md §12): this journal holds global site indices
  // i with i % shards == shard_index.
  size_t shards = 1;
  size_t shard_index = 0;
};

struct JournalSiteRecord {
  size_t cohort_ordinal = 0;
  size_t site_index = 0;
  uint64_t seed = 0;
  StageKind stage = StageKind::kBase;
  uint64_t pid = 0;  // pid this site's spans take in the merged trace
  // The journal keeps the verdict and each epoch's summary. A replayed
  // result therefore has empty EpochResult::samples; no survey output reads
  // them (breakdown, report, merge and the single-run printout read only
  // the verdict and the epoch summary).
  ExperimentResult result;
  bool has_trace = false;
  bool has_metrics = false;
  std::vector<TraceSpan> trace_spans;
  MetricsRegistry metrics;
};

// A poisoned-site quarantine decision (DESIGN.md §14): appended by the
// supervisor to a dead worker's journal, honored by the worker on its next
// --resume. |signature| is the human-readable exit description of the crash
// being blamed (e.g. "signal 6 (Aborted)").
struct JournalQuarantineRecord {
  size_t cohort_ordinal = 0;
  size_t site_index = 0;
  size_t crashes = 0;  // consecutive worker crashes blamed on this site
  std::string signature;
};

// Record-body codecs, exposed for tests and tools. Each record type has one
// field list (journal.cc) that both writes and reads it: encoders emit its
// canonical compact JSON, and decoders accept exactly those bytes, so an
// accepted body re-encodes to itself. Whitespace, a sign or leading zero on
// an integer, a reordered, missing or extra field, an escape the encoder
// never writes, a raw control byte, a metric name out of ascending order and
// an enum past its last value are all refused.
//
// EncodeExperimentResult is the whole result, every epoch's raw samples
// included; verdict digests hash it. A site record carries the summary
// instead: the same bytes without the epochs' "samples" arrays.
// DecodeExperimentSummary reads only that form (an epoch carrying samples
// is malformed), so the result it fills has empty EpochResult::samples.
std::string EncodeExperimentResult(const ExperimentResult& result);
std::string EncodeExperimentSummary(const ExperimentResult& result);
bool DecodeExperimentSummary(std::string_view text, ExperimentResult* out);
std::string EncodeTraceSpans(const std::vector<TraceSpan>& spans);
bool DecodeTraceSpans(std::string_view text, std::vector<TraceSpan>* out);
std::string EncodeMetrics(const MetricsRegistry& metrics);
bool DecodeMetrics(std::string_view text, MetricsRegistry* out);
std::string EncodeCohortRecord(const JournalCohortRecord& record);
std::string EncodeSiteRecord(const JournalSiteRecord& record);
std::string EncodeQuarantineRecord(const JournalQuarantineRecord& record);

// Frames |body| as one journal line with its checksum.
std::string FrameJournalRecord(const std::string& body);

// The valid records of one journal file, as one scan reads them: what
// ReadJournalFile returns and what an open SurveyJournal replays from.
struct JournalFileData {
  std::string tool;
  std::string fingerprint;
  std::vector<JournalCohortRecord> cohorts;
  // (ordinal, index) -> site record, and -> quarantine record.
  std::map<std::pair<size_t, size_t>, JournalSiteRecord> sites;
  std::map<std::pair<size_t, size_t>, JournalQuarantineRecord> quarantines;
  // Non-empty when a corrupt suffix was left out; it held |records_dropped|
  // records.
  std::string warning;
  size_t records_dropped = 0;
};

// Appends a quarantine record to the journal at |path| without opening it for
// replay. Used by the supervisor on a journal whose writer process is dead:
// any torn tail record is truncated first (exactly as Open would), so the
// appended record lands on the valid prefix. A quarantine for a site the
// journal already executed — or already quarantined — is a silent no-op.
// Returns false and fills |error| when the file is not a valid journal or
// the write fails.
bool AppendQuarantineRecord(const std::string& path, const JournalQuarantineRecord& record,
                            std::string* error);

// One survey run's journal: loaded state (for replay) + append handle.
// Thread-safety: AppendSite may be called from ParallelRunner workers; the
// replay accessors only touch state that is immutable after Open, and the
// durability accessors lock.
class SurveyJournal {
 public:
  // Opens |path|, creating it (with a header) when absent or empty. An
  // existing journal must carry a matching tool + fingerprint header and —
  // unless |resume| — no records beyond the header. A corrupt tail is
  // dropped with a note in Warning() and the file truncated to the valid
  // prefix. Returns null and fills |error| on any hard failure.
  static std::unique_ptr<SurveyJournal> Open(const std::string& path, const std::string& tool,
                                             const std::string& fingerprint, bool resume,
                                             std::string* error);
  ~SurveyJournal();

  SurveyJournal(const SurveyJournal&) = delete;
  SurveyJournal& operator=(const SurveyJournal&) = delete;

  const std::string& Path() const { return path_; }
  // Non-empty when a corrupt suffix was dropped at open.
  const std::string& Warning() const { return data_.warning; }
  size_t RecordsDropped() const { return data_.records_dropped; }

  // Declares the next cohort run (cohorts are strictly sequential). If the
  // journal already holds a cohort record at this ordinal its parameters
  // must match exactly; otherwise a new record is appended. Returns false
  // and fills |error| on a mismatch — the caller must treat that as a
  // config error, never run against the journal anyway. |shards| /
  // |shard_index| bind the journal to one shard of a (possibly sharded) run;
  // the defaults describe a plain unsharded run.
  bool BeginCohort(Cohort cohort, StageKind stage, size_t servers, size_t max_crowd,
                   uint64_t seed, uint64_t pid_base, std::string* error, size_t shards = 1,
                   size_t shard_index = 0);

  size_t CurrentOrdinal() const { return current_ordinal_; }

  // Replay record for site |index| of the current cohort, or null if that
  // site still has to execute.
  const JournalSiteRecord* Replayed(size_t index) const;
  // Arbitrary lookup (single-experiment tools, tests).
  const JournalSiteRecord* SiteAt(size_t ordinal, size_t index) const;

  // Quarantine record for site |index| of the current cohort, or null when
  // the site is not quarantined. Quarantined sites are skipped by the survey
  // loop: never executed, never journaled as site records.
  const JournalQuarantineRecord* Quarantined(size_t index) const;
  const JournalQuarantineRecord* QuarantineAt(size_t ordinal, size_t index) const;
  // All quarantine records, keyed by (ordinal, index).
  const std::map<std::pair<size_t, size_t>, JournalQuarantineRecord>& Quarantines() const {
    return data_.quarantines;
  }

  const std::vector<JournalCohortRecord>& Cohorts() const { return data_.cohorts; }

  // Appends one completed site experiment, verdict and epoch summary only.
  // The record is written and flushed before this returns, so it survives
  // the death of this process; it survives a machine crash once a group
  // commit (kGroupCommitRecords / kGroupCommitInterval) or Sync() has
  // fsynced it. Thread-safe.
  void AppendSite(const JournalSiteRecord& record);

  // Fsyncs every record appended so far (drain and finish call it; closing
  // does too). Returns false when this or an earlier write or fsync failed;
  // Error() then says why.
  bool Sync();

  // The first write, flush or fsync failure, or empty. Sticky: once set,
  // later appends are skipped, since records after a torn one could never
  // be replayed. Thread-safe.
  std::string Error() const;
  // Durability counters (thread-safe): fsyncs run by this handle, and the
  // file offset the last one covered.
  size_t Fsyncs() const;
  uint64_t SyncedBytes() const;

  // Run-audit counters (exposed in --json): sites replayed from the journal
  // vs. executed live this run.
  std::atomic<size_t> resumed_sites{0};
  std::atomic<size_t> executed_sites{0};
  // Set by the survey when a graceful shutdown left sites unexecuted.
  std::atomic<bool> interrupted{false};

 private:
  SurveyJournal() = default;

  // Writes and flushes one framed record; fsyncs when |sync_now|, when
  // kGroupCommitRecords are unsynced or when kGroupCommitInterval has passed
  // since the last fsync.
  void AppendFrameLocked(const std::string& body, bool sync_now);
  bool SyncLocked();

  std::string path_;
  FILE* file_ = nullptr;
  // Guards the file and the append state below.
  mutable std::mutex mu_;
  std::string error_;
  uint64_t written_bytes_ = 0;  // file offset past the last written record
  uint64_t synced_bytes_ = 0;   // file offset the last fsync covered
  size_t unsynced_records_ = 0;
  size_t fsyncs_ = 0;
  std::chrono::steady_clock::time_point last_sync_;
  // The records loaded at Open. Only BeginCohort changes it afterwards, by
  // appending cohort records; the sites and quarantines are immutable.
  JournalFileData data_;
  size_t current_ordinal_ = 0;
  size_t begun_cohorts_ = 0;
};

// Read-only parse of one journal file for tools (shard merge, inspectors):
// never opens for append, never truncates. A corrupt suffix is dropped from
// the parsed view with a note in |warning|; a missing/invalid header is a
// hard error.
bool ReadJournalFile(const std::string& path, JournalFileData* out, std::string* error);

}  // namespace mfc

#endif  // MFC_SRC_CORE_JOURNAL_JOURNAL_H_
