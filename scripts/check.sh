#!/usr/bin/env bash
# CI entrypoint: tier-1 verify (configure + build + ctest) with short
# run lengths so the experiment grids finish in CI time, plus a
# plan-file smoke lane (a tiny grid via `--plan` + `--set`, verified
# byte-identical to the equivalent compiled-in plan). The run-length
# env overrides are honoured by the sweep engine (see DESIGN.md §5/§7);
# tests that pin golden values use their own explicit run lengths and
# are unaffected.
#
# Usage: scripts/check.sh [--with-bench] [--bench] [--tsan] [--sample]
#                         [--shard] [--obs] [--trace]
#   --with-bench   also run the fig13 modularity bench (stage-swap
#                  self-check + the EOLE/OLE/EOE grid) on the short
#                  run lengths.
#   --bench        paired same-host speed gate: check out a base
#                  commit (EOLE_BENCH_BASE, default HEAD~1) with
#                  `git worktree` under build/bench-base, then run
#                  perfbench's sweep_full workload (`perfbench/run.py
#                  --trace 0`, a RelWithDebInfo build of its own) in
#                  the base tree and in this one, alternating which
#                  side goes first, over 5 seeds at a short
#                  --seconds. Fails when the median per-seed ratio of
#                  uops_per_cpu_s (this tree / base) is below 0.8 (a
#                  >20% regression), or when any run reports
#                  `correct: false` or `failed > 0`. Both sides run on
#                  the same host minutes apart, so no foreign baseline
#                  file is involved.
#   --shard        sharded-sweep lane: run the smoke plan as 3
#                  `eole shard` slices, `eole merge` them and require
#                  the merged artifact byte-identical to the
#                  single-host run; then run it twice against a fresh
#                  `--store` and require the warm re-run to report
#                  every cell cached (0 computed) with an artifact
#                  byte-identical to the cold one.
#   --obs          observability lane: pipetrace smoke (Kanata header
#                  + retire records on a real cell), proof that
#                  attaching --telemetry leaves the artifact
#                  byte-identical, exit-2 runs whose telemetry
#                  streams must terminate with run_aborted (including
#                  a `ckpt save` whose store-hit checkpoint write
#                  fails), the filter-no-match diagnostic of `ckpt
#                  save`, and a 3-shard sweep whose merged telemetry
#                  must summarize to the full cell set, and an
#                  EOLE_PROF=1 run that must print its profile table
#                  (stage.issue) while leaving the artifact
#                  byte-identical. The zero-cost-off speed claim is the
#                  --bench lane's job: tracer/profiler/telemetry hooks
#                  are compiled into the hot loop, so any disabled-path
#                  cost shows up there as a paired uops_per_cpu_s
#                  regression against the base commit.
#   --trace        on-disk trace lane: record a workload to an
#                  eole-trace-v1 file, validate it with `trace info`,
#                  run the same smoke cell from `file:` and from the
#                  live generator and require byte-identical
#                  artifacts; ingest a checked-in RV64I log and run a
#                  sweep over the resulting trace; and require the
#                  missing-`file:` path to exit 2 with a did-you-mean
#                  suggestion.
#   --tsan         additionally build with ThreadSanitizer
#                  (-DEOLE_TSAN=ON, build-tsan/) and run the sweep
#                  engine + torture + sampling suites under it, plus
#                  a checkpoint round-trip smoke (the warm-once
#                  differential test) exercising snapshot/restore on
#                  the worker pool.
#   --sample       additionally run the sampling lanes:
#                  (1) the sample_validation bench at a 1M-µop
#                  measure — full vs re-warm vs warm-once-restore,
#                  requiring one workload within CI, with bit-equal
#                  interval IPCs, whose re-warm path functionally warms
#                  >= 2x the µ-ops the restore path does (the
#                  deterministic sample_warm_uops count; wall clock is
#                  printed for information only);
#                  (2) a warm-once v2 lane: a sampled smoke run whose
#                  artifact must carry nonzero
#                  sample_restored_intervals (proof the restore path,
#                  not silent re-warming, produced the numbers), plus
#                  an `eole ckpt save`/`info` round trip;
#                  (3) the checkpoint/state suites (test_sample,
#                  test_ckpt_state, test_torture incl. the checkpoint
#                  fuzzer), the slab suite and the core suite (whose
#                  IdleSkip.* tests drive the idle-cycle skip, clock
#                  jumps over live wheel handles included) under
#                  AddressSanitizer (-DEOLE_ASAN=ON, build-asan/).
#                  The suites also run in the default ctest pass with
#                  the standard per-suite timeout.
#
# Every ctest invocation runs with --timeout (EOLE_TEST_TIMEOUT,
# default 600 s per suite) so a hung worker thread fails CI instead of
# wedging it, and failures are propagated explicitly — they do not rely
# on `set -e` surviving future edits.
set -euo pipefail

cd "$(dirname "$0")/.."

export EOLE_WARMUP="${EOLE_WARMUP:-50000}"
export EOLE_INSTS="${EOLE_INSTS:-100000}"

JOBS="$(nproc 2>/dev/null || echo 4)"
TEST_TIMEOUT="${EOLE_TEST_TIMEOUT:-600}"

WITH_BENCH=0
WITH_SPEED_GATE=0
WITH_TSAN=0
WITH_SAMPLE=0
WITH_SHARD=0
WITH_OBS=0
WITH_TRACE=0
for arg in "$@"; do
    case "$arg" in
      --with-bench) WITH_BENCH=1 ;;
      --bench) WITH_SPEED_GATE=1 ;;
      --tsan) WITH_TSAN=1 ;;
      --sample) WITH_SAMPLE=1 ;;
      --shard) WITH_SHARD=1 ;;
      --obs) WITH_OBS=1 ;;
      --trace) WITH_TRACE=1 ;;
      *)
        echo "check.sh: unknown option '$arg'" >&2
        exit 2
        ;;
    esac
done

run_ctest() {
    local build_dir="$1"
    shift
    # Propagate the ctest exit code under -j explicitly. The per-test
    # TIMEOUT property (set from EOLE_TEST_TIMEOUT at configure time —
    # it overrides ctest's --timeout flag) bounds each suite so one
    # hung binary cannot wedge the run.
    if ! (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" "$@");
    then
        echo "check.sh: ctest FAILED in $build_dir" >&2
        exit 1
    fi
}

cmake -B build -S . -DEOLE_TEST_TIMEOUT="$TEST_TIMEOUT"
cmake --build build -j "$JOBS"
run_ctest build

# Plan-file smoke lane: a tiny grid driven through `--plan` + `--set`
# must be byte-identical to the equivalent compiled-in plan with the
# same `--set` — the reflective-registry contract (DESIGN.md §9) that
# plan files and ad-hoc overrides are the same configs as compiled C++.
echo "check.sh: plan-file smoke lane"
cat > build/smoke.plan <<'EOF'
# The compiled-in smoke plan, expressed as data (examples/README.md).
plan = smoke
description = tiny 2x2 grid for CI, demos and determinism tests
configs = Baseline_6_64, EOLE_4_64
workloads = 164.gzip, 186.crafty
EOF
if ! ./build/eole run --plan build/smoke.plan --set bp.rasEntries=16 \
         --quiet --no-tables --out build/smoke.planfile.json; then
    echo "check.sh: plan-file run FAILED" >&2
    exit 1
fi
if ! ./build/eole run smoke --set bp.rasEntries=16 \
         --quiet --no-tables --out build/smoke.compiled.json; then
    echo "check.sh: compiled smoke run FAILED" >&2
    exit 1
fi
if ! cmp build/smoke.planfile.json build/smoke.compiled.json; then
    echo "check.sh: plan-file artifact differs from compiled plan" >&2
    exit 1
fi
echo "check.sh: plan-file artifact byte-identical to compiled plan"

# Strict CLI numbers: a malformed or out-of-range value exits 2 with a
# diagnostic instead of being truncated or half-parsed. The --jobs
# values are rejected while parsing, before any worker starts.
expect_exit2() {
    local rc=0
    "$@" > build/exit2.out 2> build/exit2.err || rc=$?
    if [[ "$rc" != 2 ]] || ! grep -q 'eole: ' build/exit2.err; then
        cat build/exit2.err >&2
        echo "check.sh: \`${*:2}\` exited $rc (want 2 with a" \
             "diagnostic)" >&2
        exit 1
    fi
}
smoke=build/smoke.compiled.json
expect_exit2 ./build/eole diff "$smoke" "$smoke" --rel-tol abc
expect_exit2 ./build/eole diff "$smoke" "$smoke" --rel-tol 1e-3x
expect_exit2 ./build/eole diff "$smoke" "$smoke" --abs-tol abc
expect_exit2 ./build/eole diff "$smoke" "$smoke" --abs-tol -1
expect_exit2 ./build/eole run smoke --jobs 4294967297 --quiet --no-tables
expect_exit2 ./build/eole run smoke --jobs 2147483648 --quiet --no-tables
expect_exit2 ./build/eole bench
if ! ./build/eole diff "$smoke" "$smoke" --rel-tol 1e-3 --abs-tol 0 \
     > /dev/null; then
    echo "check.sh: eole diff rejected valid tolerances" >&2
    exit 1
fi
echo "check.sh: malformed numeric flags and unknown commands exit 2"

if [[ "$WITH_BENCH" == 1 ]]; then
    ./build/fig13_modularity
fi

if [[ "$WITH_SPEED_GATE" == 1 ]]; then
    echo "check.sh: paired same-host speed gate (perfbench sweep_full)"
    BENCH_BASE="${EOLE_BENCH_BASE:-HEAD~1}"
    if ! base_rev="$(git rev-parse --verify -q "$BENCH_BASE^{commit}")";
    then
        echo "check.sh: EOLE_BENCH_BASE=$BENCH_BASE is not a commit" >&2
        exit 2
    fi
    base_tree=build/bench-base
    gate_dir=build/benchgate
    remove_base_tree() {
        git worktree remove --force "$base_tree" 2>/dev/null || true
        rm -rf "$base_tree"
        git worktree prune
    }
    remove_base_tree
    trap remove_base_tree EXIT
    git worktree add --detach --quiet "$base_tree" "$base_rev"
    if [[ ! -f "$base_tree/perfbench/run.py" ]]; then
        echo "check.sh: base $BENCH_BASE ($base_rev) has no perfbench/" >&2
        exit 2
    fi
    rm -rf "$gate_dir"
    mkdir -p "$gate_dir"
    # Each pair alternates which side goes first, so a host that gets
    # faster or slower during the lane favours neither side.
    for seed in 1 2 3 4 5; do
        if (( seed % 2 )); then sides=(change base); else sides=(base change); fi
        for side in "${sides[@]}"; do
            tree=.
            [[ "$side" == base ]] && tree="$base_tree"
            if ! (cd "$tree" && python3 perfbench/run.py \
                      --workload sweep_full --seed "$seed" --seconds 2 \
                      --trace 0) > "$gate_dir/$side.$seed.out"; then
                tail -20 "$gate_dir/$side.$seed.out" >&2
                echo "check.sh: perfbench FAILED ($side, seed $seed)" >&2
                exit 1
            fi
        done
    done
    if ! python3 - "$gate_dir" <<'EOF'
import json, statistics, sys
gate_dir, ratios, ok = sys.argv[1], [], True
for seed in range(1, 6):
    rate = {}
    for side in ("base", "change"):
        with open("%s/%s.%d.out" % (gate_dir, side, seed)) as f:
            result = json.loads(f.read().splitlines()[-1])
        if not result["correct"] or result["failed"] > 0:
            print("check.sh: %s seed %d: correct=%s failed=%d"
                  % (side, seed, result["correct"], result["failed"]))
            ok = False
        rate[side] = result["metrics"]["uops_per_cpu_s"]["value"]
    ratios.append(rate["change"] / rate["base"])
    print("check.sh: seed %d uops_per_cpu_s base %.0f change %.0f "
          "ratio %.3f" % (seed, rate["base"], rate["change"], ratios[-1]))
median = statistics.median(ratios)
print("check.sh: median uops_per_cpu_s ratio (change/base) %.3f, "
      "bound 0.8" % median)
sys.exit(0 if ok and median >= 0.8 else 1)
EOF
    then
        echo "check.sh: speed gate FAILED against $BENCH_BASE ($base_rev)" >&2
        exit 1
    fi
    remove_base_tree
    trap - EXIT
fi

if [[ "$WITH_SAMPLE" == 1 ]]; then
    echo "check.sh: sampled-vs-full validation lane"
    # 1M µ-ops, 2x target: short enough for CI. The bench requires at
    # least one workload that is simultaneously within its sampled CI,
    # bit-equal between the restore and re-warm paths, and whose
    # re-warm path warms >= 2x the µ-ops the restore path does.
    if ! EOLE_WARMUP=50000 EOLE_INSTS=1000000 \
         EOLE_SAMPLE_MIN_SPEEDUP=2 ./build/sample_validation; then
        echo "check.sh: sample_validation FAILED" >&2
        exit 1
    fi

    echo "check.sh: warm-once v2 lane (restored-interval stat + ckpt CLI)"
    # The sampled artifact must prove the warm-once path ran: every
    # cell carries sample_restored_intervals, and none may be zero
    # (zero would mean the intervals silently fell back to
    # re-warming).
    if ! ./build/eole run smoke --sample 4:2000:1000 --quiet \
         --no-tables --out build/sample_v2.json; then
        echo "check.sh: sampled smoke run FAILED" >&2
        exit 1
    fi
    if ! grep -q '"sample_restored_intervals"' build/sample_v2.json \
       || grep -Eq '"sample_restored_intervals": 0(\.0+)?([,}]|$)' \
               build/sample_v2.json; then
        echo "check.sh: sampled artifact does not show the warm-once" \
             "path (sample_restored_intervals missing or zero)" >&2
        exit 1
    fi
    # ckpt save -> info round trip: every written v2 file must parse
    # with its sections intact.
    rm -rf build/ckpts
    if ! ./build/eole ckpt save smoke --sample 2:2000:1000 \
         --out build/ckpts --quiet; then
        echo "check.sh: eole ckpt save FAILED" >&2
        exit 1
    fi
    if ! ./build/eole ckpt info build/ckpts/*.ckpt \
         | grep -q 'eole-ckpt-v2.*sections.*branch'; then
        echo "check.sh: eole ckpt info round trip FAILED" >&2
        exit 1
    fi

    echo "check.sh: AddressSanitizer pass (checkpoint/state/slab/core suites)"
    # test_slab rides in this lane on purpose: the slab poisons free
    # slots under ASan, so a use-after-release of a pooled DynInst (e.g.
    # a completion-wheel handle dropped early) faults here. test_core
    # rides along for the idle-cycle skip's differential tests.
    cmake -B build-asan -S . -DEOLE_ASAN=ON \
          -DEOLE_TEST_TIMEOUT="$TEST_TIMEOUT"
    cmake --build build-asan -j "$JOBS" \
          --target test_sample test_ckpt_state test_torture test_slab \
                   test_core
    run_ctest build-asan \
        -R '^(test_sample|test_ckpt_state|test_torture|test_slab|test_core)$'
fi

if [[ "$WITH_SHARD" == 1 ]]; then
    echo "check.sh: sharded-sweep lane (3 shards + merge + store)"
    rm -rf build/shardlane
    mkdir -p build/shardlane
    if ! ./build/eole run smoke --quiet --no-tables \
         --out build/shardlane/single.json; then
        echo "check.sh: single-host smoke run FAILED" >&2
        exit 1
    fi
    for i in 0 1 2; do
        if ! ./build/eole shard smoke --hosts 3 --host "$i" --quiet \
             --out build/shardlane; then
            echo "check.sh: eole shard --host $i FAILED" >&2
            exit 1
        fi
    done
    if ! ./build/eole merge build/shardlane/smoke.shard*.eoleshard \
         --out build/shardlane/merged.json --quiet; then
        echo "check.sh: eole merge FAILED" >&2
        exit 1
    fi
    if ! cmp build/shardlane/single.json build/shardlane/merged.json;
    then
        echo "check.sh: merged shard artifact differs from the" \
             "single-host artifact" >&2
        exit 1
    fi
    echo "check.sh: merge of 3 shards byte-identical to single host"

    # Content-addressed store: a cold run computes every cell, a warm
    # re-run must compute none and still produce the same bytes.
    rm -rf build/shardlane/store
    if ! ./build/eole run smoke --quiet --no-tables \
         --store build/shardlane/store \
         --out build/shardlane/cold.json \
         2> build/shardlane/cold.err; then
        cat build/shardlane/cold.err >&2
        echo "check.sh: cold --store run FAILED" >&2
        exit 1
    fi
    if ! grep -q 'store .*: 0 cached, 4 computed' \
         build/shardlane/cold.err; then
        cat build/shardlane/cold.err >&2
        echo "check.sh: cold --store run did not compute all 4 cells" >&2
        exit 1
    fi
    if ! ./build/eole run smoke --quiet --no-tables \
         --store build/shardlane/store \
         --out build/shardlane/warm.json \
         2> build/shardlane/warm.err; then
        cat build/shardlane/warm.err >&2
        echo "check.sh: warm --store run FAILED" >&2
        exit 1
    fi
    if ! grep -q 'store .*: 4 cached, 0 computed' \
         build/shardlane/warm.err; then
        cat build/shardlane/warm.err >&2
        echo "check.sh: warm --store re-run recomputed cells (want" \
             "all 4 cached, 0 computed)" >&2
        exit 1
    fi
    if ! cmp build/shardlane/cold.json build/shardlane/warm.json; then
        echo "check.sh: warm-store artifact differs from cold" >&2
        exit 1
    fi
    if ! ./build/eole store ls build/shardlane/store \
         | grep -q '^4 object(s)'; then
        echo "check.sh: eole store ls does not show 4 objects" >&2
        exit 1
    fi
    echo "check.sh: warm store re-run served all 4 cells from cache," \
         "byte-identical"
fi

if [[ "$WITH_OBS" == 1 ]]; then
    echo "check.sh: observability lane (pipetrace + telemetry)"
    rm -rf build/obslane
    mkdir -p build/obslane

    # Pipetrace smoke: a real cell traced in Kanata form must carry the
    # format header and at least one retired record (Konata loads
    # exactly this shape).
    if ! ./build/eole run smoke --filter "EOLE_4_64/164.gzip" --quiet \
         --no-tables --pipetrace build/obslane/trace.kanata \
         --out build/obslane/traced.json; then
        echo "check.sh: --pipetrace run FAILED" >&2
        exit 1
    fi
    if ! head -1 build/obslane/trace.kanata | grep -q $'^Kanata\t0004$' \
       || ! grep -q $'^R\t' build/obslane/trace.kanata; then
        echo "check.sh: Kanata trace malformed (header or retire" \
             "records missing)" >&2
        exit 1
    fi

    # Observers never perturb results: the same cell without any
    # observer attached must produce a byte-identical artifact.
    if ! ./build/eole run smoke --filter "EOLE_4_64/164.gzip" --quiet \
         --no-tables --out build/obslane/plain.json; then
        echo "check.sh: plain comparison run FAILED" >&2
        exit 1
    fi
    if ! cmp build/obslane/traced.json build/obslane/plain.json; then
        echo "check.sh: --pipetrace changed the artifact" >&2
        exit 1
    fi
    if ! ./build/eole run smoke --quiet --no-tables \
         --telemetry build/obslane/run.jsonl \
         --out build/obslane/telem.json \
       || ! ./build/eole run smoke --quiet --no-tables \
            --out build/obslane/notelem.json \
       || ! cmp build/obslane/telem.json build/obslane/notelem.json; then
        echo "check.sh: --telemetry changed the artifact (or a run" \
             "FAILED)" >&2
        exit 1
    fi
    if ! tail -1 build/obslane/run.jsonl \
         | grep -q '"ev":"run_finish"'; then
        echo "check.sh: telemetry stream does not end with run_finish" >&2
        exit 1
    fi
    echo "check.sh: observers leave artifacts byte-identical"

    # Exit-2 paths must terminate the stream: a run that bails before
    # simulating still ends its telemetry with run_aborted.
    if ./build/eole run smoke --filter no_such_cell --quiet --no-tables \
         --telemetry build/obslane/aborted.jsonl 2>/dev/null; then
        echo "check.sh: filter-no-match run unexpectedly succeeded" >&2
        exit 1
    fi
    if ! tail -1 build/obslane/aborted.jsonl \
         | grep -q '"ev":"run_aborted"'; then
        echo "check.sh: exit-2 telemetry stream does not end with" \
             "run_aborted" >&2
        exit 1
    fi

    # `ckpt save` shares run's exit-2 paths. A filter matching nothing
    # exits 2 listing the valid names ...
    ckpt=(./build/eole ckpt save smoke --sample 2:2000:1000 --warmup 2000
          --insts 20000)
    rc=0
    "${ckpt[@]}" --filter no_such_cell --out build/obslane/nockpt \
        2> build/obslane/nockpt.err || rc=$?
    if [[ "$rc" != 2 ]] \
       || ! grep -q 'valid configs: Baseline_6_64 EOLE_4_64' \
            build/obslane/nockpt.err \
       || ! grep -q 'valid workloads: 164.gzip 186.crafty' \
            build/obslane/nockpt.err; then
        cat build/obslane/nockpt.err >&2
        echo "check.sh: ckpt save filter-no-match did not exit 2 with" \
             "the valid names (exit $rc)" >&2
        exit 1
    fi
    # ... and a checkpoint write failure on the store-hit path (a
    # directory squats on a .ckpt file name) still ends the telemetry
    # stream with run_aborted.
    if ! "${ckpt[@]}" --quiet --store build/obslane/ckptstore \
         --out build/obslane/ckpt0; then
        echo "check.sh: ckpt save into a fresh store FAILED" >&2
        exit 1
    fi
    saved=(build/obslane/ckpt0/*.ckpt)
    mkdir -p "build/obslane/ckpt1/$(basename "${saved[0]}")"
    rc=0
    "${ckpt[@]}" --quiet --store build/obslane/ckptstore \
        --out build/obslane/ckpt1 --telemetry build/obslane/ckpt1.jsonl \
        2>/dev/null || rc=$?
    if [[ "$rc" != 2 ]] \
       || ! tail -1 build/obslane/ckpt1.jsonl \
            | grep -q '"ev":"run_aborted"'; then
        echo "check.sh: ckpt save store-hit write failure did not exit" \
             "2 with run_aborted (exit $rc)" >&2
        exit 1
    fi
    echo "check.sh: ckpt save exit-2 paths end telemetry with run_aborted"

    # Sharded telemetry: three per-shard streams summarize to the full
    # smoke cell set (2 configs x 2 workloads).
    for i in 0 1 2; do
        if ! ./build/eole shard smoke --hosts 3 --host "$i" --quiet \
             --telemetry "build/obslane/shard$i.jsonl" \
             --out build/obslane; then
            echo "check.sh: telemetry shard --host $i FAILED" >&2
            exit 1
        fi
    done
    ./build/eole telemetry summarize build/obslane/shard?.jsonl \
        > build/obslane/summary.txt
    for cell in Baseline_6_64/164.gzip Baseline_6_64/186.crafty \
                EOLE_4_64/164.gzip EOLE_4_64/186.crafty; do
        if ! grep -q "$cell" build/obslane/summary.txt; then
            cat build/obslane/summary.txt >&2
            echo "check.sh: merged telemetry summary is missing $cell" >&2
            exit 1
        fi
    done
    if ! grep -q 'cells (4)' build/obslane/summary.txt; then
        cat build/obslane/summary.txt >&2
        echo "check.sh: merged telemetry summary does not show 4" \
             "distinct cells" >&2
        exit 1
    fi
    echo "check.sh: 3-shard telemetry summarizes to the full cell set"

    # EOLE_PROF=1 prints the tick-loop profile to stderr and changes
    # nothing else: the artifact must match the plain run's bytes.
    if ! EOLE_PROF=1 ./build/eole run smoke --filter "EOLE_4_64/164.gzip" \
         --quiet --no-tables --out build/obslane/prof.json \
         2> build/obslane/prof.err; then
        cat build/obslane/prof.err >&2
        echo "check.sh: EOLE_PROF=1 run FAILED" >&2
        exit 1
    fi
    if ! grep -q 'stage.issue' build/obslane/prof.err; then
        cat build/obslane/prof.err >&2
        echo "check.sh: EOLE_PROF=1 run printed no profile table" >&2
        exit 1
    fi
    if ! cmp build/obslane/prof.json build/obslane/plain.json; then
        echo "check.sh: EOLE_PROF=1 changed the artifact" >&2
        exit 1
    fi
    echo "check.sh: EOLE_PROF=1 profiles without perturbing the artifact"
fi

if [[ "$WITH_TRACE" == 1 ]]; then
    echo "check.sh: on-disk trace lane (record / info / replay / ingest)"
    rm -rf build/tracelane
    mkdir -p build/tracelane

    # Record -> validate: the writer and the reader must agree on the
    # whole file (layout hash + SHA-256 footer), surfaced as the
    # info command's "checksum ok".
    if ! ./build/eole trace record torture:7 \
         --out build/tracelane/t7.trace --quiet; then
        echo "check.sh: eole trace record FAILED" >&2
        exit 1
    fi
    if ! ./build/eole trace info build/tracelane/t7.trace \
         | grep -Eq 'checksum +ok'; then
        echo "check.sh: eole trace info did not validate the recording" >&2
        exit 1
    fi

    # Replay guarantee: the same smoke grid over the file-backed
    # workload must produce the byte-identical artifact the live
    # generator does.
    if ! ./build/eole run smoke \
         --workloads file:build/tracelane/t7.trace --quiet --no-tables \
         --out build/tracelane/replayed.json; then
        echo "check.sh: file-backed smoke run FAILED" >&2
        exit 1
    fi
    if ! ./build/eole run smoke --workloads torture:7 --quiet \
         --no-tables --out build/tracelane/generated.json; then
        echo "check.sh: generated smoke run FAILED" >&2
        exit 1
    fi
    if ! cmp build/tracelane/replayed.json build/tracelane/generated.json;
    then
        echo "check.sh: file-backed artifact differs from the live" \
             "generator's" >&2
        exit 1
    fi
    echo "check.sh: trace replay byte-identical to the live generator"

    # RV64I ingestion: a checked-in committed-instruction log converts
    # into a runnable trace, and a sweep over it completes.
    if ! ./build/eole trace ingest tests/data/rv64/fib.rvlog \
         --out build/tracelane/fib.trace --quiet; then
        echo "check.sh: eole trace ingest FAILED" >&2
        exit 1
    fi
    if ! ./build/eole run smoke \
         --workloads file:build/tracelane/fib.trace --quiet --no-tables \
         --out build/tracelane/fib.json; then
        echo "check.sh: sweep over the ingested RV64I trace FAILED" >&2
        exit 1
    fi
    if ! grep -q '"rv64:fib"' build/tracelane/fib.json; then
        echo "check.sh: ingested-trace artifact does not carry the" \
             "embedded workload name" >&2
        exit 1
    fi
    echo "check.sh: RV64I log ingested and swept (rv64:fib)"

    # Missing-file diagnostics: a bad `file:` spec exits 2 and
    # suggests the sibling .trace files that do exist.
    set +e
    ./build/eole run smoke \
        --workloads file:build/tracelane/t8.trace --quiet --no-tables \
        2> build/tracelane/missing.err
    missing_rc=$?
    set -e
    if [[ "$missing_rc" != 2 ]]; then
        cat build/tracelane/missing.err >&2
        echo "check.sh: missing file: workload exited $missing_rc" \
             "(want 2)" >&2
        exit 1
    fi
    if ! grep -q 'did you mean' build/tracelane/missing.err; then
        cat build/tracelane/missing.err >&2
        echo "check.sh: missing file: diagnostic lacks a did-you-mean" \
             "suggestion" >&2
        exit 1
    fi
    echo "check.sh: missing file: workload exits 2 with a suggestion"
fi

if [[ "$WITH_TSAN" == 1 ]]; then
    echo "check.sh: ThreadSanitizer pass (sweep engine + torture + ckpt)"
    cmake -B build-tsan -S . -DEOLE_TSAN=ON \
          -DEOLE_TEST_TIMEOUT="$TEST_TIMEOUT"
    cmake --build build-tsan -j "$JOBS" \
          --target test_experiment test_torture test_sample \
                   test_ckpt_state
    run_ctest build-tsan \
        -R '^(test_experiment|test_torture|test_sample|test_ckpt_state)$'
fi

echo "check.sh: OK (warmup=$EOLE_WARMUP, insts=$EOLE_INSTS," \
     "timeout=${TEST_TIMEOUT}s$([[ $WITH_TSAN == 1 ]] && echo ', tsan'))"
