#!/usr/bin/env bash
# Builds the AddressSanitizer and ThreadSanitizer presets and runs the
# runtime (rt) and robustness test subset under each — the tests that
# exercise real sockets, reactor timers, fault injection, and the lifetime
# paths the control-plane hardening touches. Intended as a pre-merge gate:
#
#   tools/check_sanitize.sh            # both sanitizers
#   tools/check_sanitize.sh asan       # one of them
#
# Exits non-zero if any configure, build, or test step fails.
set -euo pipefail

cd "$(dirname "$0")/.."

# Reactor polls and socket waits make these tests timing-sensitive; the
# sanitizer slowdown is real, so give ctest headroom instead of flaking.
FILTER='Fault|LiveHttp|LiveFleet|Reactor|UdpSocket|Tcp|Wire|ClientAgent|Session|Transport|WireCodec|MemoryHub|Robustness|FlowNetwork|IndexedHeap|RecordPool|EventLoop|Snapshot|StatsStream|SimStatsSampler|ParallelProgress|MetricsDelta|BuildSurveyProgress|RunningStats|Histogram|Supervisor|WorkerExit|QuarantineTracker|NextPendingSite|CpuResource|WebServer|Cluster|SimTestbed|Coordinator|Journal|MetricsRegistry|TelemetryIntegration|Database|ShardMerge|ShardedSurvey|SurveySession|Tracer|RequestParser|ResponseParser|ParserChunking|HttpParserCorpus'
TIMEOUT=600
# Only the binaries the filter can hit — building every bench/example under
# two sanitizers would dominate the wall clock for no extra coverage.
# (Undiscovered sibling test binaries surface as *_NOT_BUILT placeholders,
# which the filter never matches.)
# mfc_net_tests/mfc_sim_tests cover the incremental flow allocator, the
# shared indexed heap and the record pool under the event loop and its
# slot/generation handle reuse — exactly the pointer-lifetime surface the
# hot-path rework touches, including the differential tests.
# mfc_telemetry_tests covers the health-plane snapshot/stream machinery —
# the sampler thread (StatsStream::Emit writes and flushes on its caller's
# thread, under the stream's mutex) and the shared progress cells the survey
# workers update are precisely what TSan should see.
# mfc_supervisor_tests forks real workers and exercises the hang-kill and
# drain paths — the fork/exec/waitpid lifetime surface ASan should see.
# mfc_server_tests and the CpuResource/WebServer/Cluster (ServerCluster)/
# SimTestbed/Coordinator tests cover the request path: one immutable request
# shared by every epoch, connection and testbed hop, borrowed by the server
# for the length of OnRequest, and the heap-ordered processor-sharing CPU.
# The Journal suites (SurveyJournalTest, JournalCodecTest)
# cover the codec's mutation corpus and the group-commit state that
# ParallelRunner workers share under the journal's mutex.
# MetricsRegistryTest and TelemetryIntegrationTest cover the registry slots
# the server keeps across Merge/Restore and a whole experiment, and
# DatabaseTest the pooled query records: ASan is what sees a dangling slot
# or a key read after its caller's string is gone.
# ShardMergeTest, ShardedSurveyTest and SurveySessionTest run surveys whose
# ParallelRunner workers fill the site records that FoldSiteRecord then
# folds, and TracerTest covers the span merge the fold uses.
# mfc_http_tests' parser suites (RequestParserTest, ResponseParserTest,
# ParserChunkingTest and the HttpParserCorpusTest mutation corpus) feed the
# HTTP parsers, which read bytes from real sockets, malformed and chunked
# input: ASan is what sees a read past a line or a header.
TARGETS=(mfc_rt_tests mfc_core_tests mfc_net_tests mfc_sim_tests mfc_telemetry_tests mfc_supervisor_tests mfc_server_tests mfc_http_tests)

run_one() {
  local preset="$1"
  echo "=== [${preset}] configure ==="
  cmake --preset "${preset}" >/dev/null
  echo "=== [${preset}] build (${TARGETS[*]}) ==="
  # A bare -j lets make start unlimited compiles, enough to exhaust memory or
  # process ids on a small machine before any test runs.
  cmake --build --preset "${preset}" -j "$(nproc)" --target "${TARGETS[@]}" >/dev/null
  # The flow-network differential suite starts no threads, so TSan has no
  # race to find in it, yet it ran for 189-544 s of the 600 s timeout there.
  # The ASan leg and tier-1 still run it.
  local exclude=()
  if [ "${preset}" = "tsan" ]; then
    exclude=(-E FlowNetworkDifferentialTest)
  fi
  echo "=== [${preset}] test (-R '${FILTER}' ${exclude[*]}) ==="
  # Reactor tests race real deadlines; oversubscribing cores under a
  # sanitizer's slowdown turns those deadlines into flakes, so parallelism
  # follows the core count instead of a fixed fan-out.
  ctest --preset "${preset}" -R "${FILTER}" "${exclude[@]}" --timeout "${TIMEOUT}" -j "$(nproc)"
  if [ "${preset}" = "asan" ]; then
    # The journal's signal/drain/fsync path only shows its lifetime bugs
    # under a real SIGINT; run the kill/resume harness against the ASan
    # bench so leaks or use-after-free in the drain path fail the gate.
    echo "=== [${preset}] kill/resume harness ==="
    cmake --build --preset "${preset}" -j "$(nproc)" --target fig7_survey_base >/dev/null
    tools/check_resume.sh "build-asan/bench/fig7_survey_base"
  fi
}

presets=("${@}")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(asan tsan)
fi

for preset in "${presets[@]}"; do
  case "${preset}" in
    asan|tsan) run_one "${preset}" ;;
    *) echo "unknown preset '${preset}' (expected: asan tsan)" >&2; exit 2 ;;
  esac
done

echo "sanitizer runs clean: ${presets[*]}"
