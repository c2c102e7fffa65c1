#!/usr/bin/env bash
# Each mfc_profile mode refuses the flags it does not read: every command
# line below must exit 2 and name the refused flag on stderr, where a
# mode that ignored the flag would run and exit 0.
#
#   tests/tools/mfc_profile_modes_test.sh build/tools/mfc_profile
set -u
bin="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
# A line that is wrongly accepted runs and writes its outputs here.
work="$(mktemp -d)" || exit 1
trap 'rm -rf "${work}"' EXIT
cd "${work}" || exit 1
status=0

refused() {  # refused <message> <args...>
  local want="$1"
  shift
  local err rc
  err="$("${bin}" "$@" 2>&1 >/dev/null)"
  rc=$?
  if [ "${rc}" -ne 2 ] || [[ "${err}" != *"${want}"* ]]; then
    echo "FAIL: mfc_profile $* exited ${rc} (want 2 and '${want}'); stderr: ${err}"
    status=1
  fi
}

refused "--theta-ms has no effect with --survey" --cohort=rank3 --survey=4 --theta-ms=250
refused "--survey runs one stage; --stages names 2" --cohort=rank3 --survey=4 --stages=base,large
refused "--csv has no effect with --survey" --cohort=rank3 --survey=4 --csv=x.csv
refused "--jobs has no effect with a single experiment" --profile=qtnp --stages=base --jobs=4
refused "--cohort has no effect with --profile" --profile=qtnp --cohort=rank3 --stages=base
refused "--hang-timeout has no effect with --survey" --cohort=rank3 --survey=4 --hang-timeout=5
refused "--journal has no effect with --sample-only" \
  --cohort=rank3 --survey=40 --sample-only --journal=j.wal
refused "--resume has no effect with --supervise" \
  --cohort=rank3 --survey=4 --supervise --journal=p --resume

[ "${status}" -eq 0 ] && echo "mfc_profile_modes_test: OK"
exit "${status}"
