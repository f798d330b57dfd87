#!/bin/sh
# Usage: expect_bad_env.sh PERF_KIPS
#
# Every number variable perf_kips reads, set to a malformed or
# out-of-range value, must make it exit non-zero naming the variable
# before anything is simulated.
bin=$1
out_file=${TMPDIR:-/tmp}/expect_bad_env.$$.json
status=0
for case in DMP_BENCH_ITERS=abc DMP_BENCH_ITERS=2x DMP_BENCH_ITERS=0 \
            DMP_BENCH_JOBS=abc DMP_BENCH_JOBS=2x \
            DMP_BENCH_REPEATS=abc DMP_BENCH_REPEATS=0 \
            DMP_BENCH_REPEATS=101; do
    var=${case%%=*}
    if out=$(env DMP_BENCH_WORKLOADS=mcf DMP_BENCH_OUT="$out_file" \
                 "$case" "$bin" 2>&1); then
        echo "FAIL: $case exited 0"
        status=1
    else
        case $out in
          *"perf_kips: $var:"*) echo "ok: $case" ;;
          *) echo "FAIL: $case did not name $var:"; echo "$out"; status=1 ;;
        esac
    fi
done
rm -f "$out_file"
exit $status
