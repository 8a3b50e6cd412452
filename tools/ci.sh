#!/bin/sh
# Tier-1 verify, exactly as CI runs it (usable locally too):
# configure + build + ctest.  The build promotes warnings to errors for
# the new scenario-API (src/api/), adaptive (src/adapt/), streaming
# (src/stream/), multipath (src/mpath/) and net (src/net/) subsystems via
# CMake source properties; everything else builds with -Wall -Wextra.
set -eu

cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j
cd build && ctest --output-on-failure -j

# Streaming subsystem gate: run the stream tests explicitly (they are part
# of the suite above, but a filtered re-run keeps the gate visible when
# the suite grows), then a scale-reduced smoke run of the delay bench —
# its exit status enforces the Karzand acceptance criterion (sliding
# window beats block RSE on >= 3 of 4 bursty points).
ctest --output-on-failure --no-tests=error \
      -R 'Sliding|DelayTracker|StreamTrial|StreamDelayGrid|RecommendWindow|SparseMatrix|Peeling'
# The sliding-window tests again on the forced-scalar GF backend: the
# payload-mode elimination (and the differential test pinning it to the
# map-based reference decoder, SlidingDifferential) runs through the GF
# kernels, so both backends must pass.
FECSCHED_GF_BACKEND=scalar ctest --output-on-failure --no-tests=error \
      -R 'Sliding'
./bench_stream_delay --k=1000 --trials=10
# Long-stream guard: LDGM in-order release must stay linear in stream
# length (O(received + recovered) per trial, O(nnz) graph build).  A
# quadratic release path, rescanning every unknown source after each
# decoding packet, needs tens of seconds at this length; the linear one
# takes well under a second.
timeout 10 ./fecsched_cli stream --scheme=ldgm --p=0.02 --q=0.4 \
  --sources=200000 --trials=1 > /dev/null

# Multipath subsystem gate: the mpath tests (including the 1-path
# degenerate oracle pinning bit-identity with the single-path trial),
# then a scale-reduced smoke run of the multipath bench — its exit status
# enforces the Kurant acceptance criterion (earliest-arrival path mapping
# beats round-robin on all 4 asymmetric-path points).
ctest --output-on-failure --no-tests=error \
      -R 'Path|Mpath|Resequencer'
./bench_mpath --k=1000 --trials=10

# Codec kernel gate (src/gf/ SIMD engine + zero-allocation hot paths):
# 1. the kernel self-tests — exhaustive SIMD-vs-scalar bit-equivalence on
#    every backend the host supports, plus the workspace/arena API suites;
ctest --output-on-failure --no-tests=error \
      -R 'Gf256Kernels|SymbolArena|RseWorkspace|LdgmWorkspace|TrialWorkspace|FuzzRseWorkspace|FuzzTrialWorkspace'
# 2. a reduced-scale codec-speed smoke whose exit status enforces the perf
#    acceptance criteria on SIMD hosts (>= 4x GF(256) addmul and >= 1.5x
#    end-to-end RSE encode/decode over the scalar baseline) — skipped when
#    google-benchmark was unavailable at build time;
if [ -x ./bench_codec_speed ]; then
  ./bench_codec_speed --json BENCH_codec_speed.json --check --min-time=0.1
fi
# 3. bit-identity of one grid, stream and mpath point: the default
#    (auto-dispatched) backend and the forced-scalar backend must both
#    reproduce the pinned scalar-path outputs byte for byte.
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  | cmp - ../tools/pinned/grid_point.txt
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 \
  | cmp - ../tools/pinned/mpath_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  | cmp - ../tools/pinned/grid_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  | cmp - ../tools/pinned/stream_point.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 \
  | cmp - ../tools/pinned/mpath_point.txt
# 4. the grid engine for every code family (RSE, replication, LDGM
#    identity / staircase / triangle, triangle with the Gaussian-elimination
#    fallback) x all six Tx models at reduced scale (tools/grid_pins.cc),
#    exact cell aggregates on both backends.
for code in rse replication ldgm ldgm-staircase ldgm-triangle ldgm-triangle-ge; do
  ./grid_pins --code=$code | cmp - ../tools/pinned/grid_codes/$code.txt
  FECSCHED_GF_BACKEND=scalar ./grid_pins --code=$code \
    | cmp - ../tools/pinned/grid_codes/$code.txt
done
echo "codec gate: kernels bit-identical, perf criteria met"

# Scenario API gate (src/api/, -Werror via CMake):
# 1. the API test suite — registry discoverability, spec JSON fixed-point
#    round-tripping, and the per-engine bit-identity oracles;
ctest --output-on-failure --no-tests=error \
      -R 'Registry|ApiJson|SpecRoundTrip|ScenarioOracle|ScenarioSweep'
# 2. registry discoverability and strict flag handling: `list` and
#    `--version` succeed, an unknown flag fails naming itself on every
#    subcommand parser;
./fecsched_cli list > /dev/null
./fecsched_cli list --describe=sliding-window > /dev/null
./fecsched_cli --version > /dev/null
for sub in sweep plan universal limits fit adapt stream net mpath run history compare list; do
  if ./fecsched_cli "$sub" --definitely-not-a-flag=1 > /dev/null 2>&1; then
    echo "BUG: $sub accepted an unknown flag"; exit 1
  fi
done
# 3. run_scenario bit-identity: replaying the pinned spec documents
#    through `run --spec` must reproduce the pinned pre-API outputs byte
#    for byte (one grid, one stream, one mpath, one adaptive point), and
#    the flag-built subcommands must emit the identical JSON documents.
./fecsched_cli run --spec=../tools/pinned/grid_spec.json \
  | cmp - ../tools/pinned/grid_point.txt
./fecsched_cli run --spec=../tools/pinned/stream_spec.json --json \
  | cmp - ../tools/pinned/stream_point.json
./fecsched_cli run --spec=../tools/pinned/mpath_spec.json --json \
  | cmp - ../tools/pinned/mpath_point.json
./fecsched_cli run --spec=../tools/pinned/adapt_spec.json --json \
  | cmp - ../tools/pinned/adapt_point.json
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 --json \
  | cmp - ../tools/pinned/stream_point.json
./fecsched_cli mpath --p=0.02 --q=0.4 --sources=600 --trials=2 --json \
  | cmp - ../tools/pinned/mpath_point.json
./fecsched_cli adapt --p=0.02 --q=0.4 --k=400 --objects=8 --warmup=2 --json \
  | cmp - ../tools/pinned/adapt_point.json
# 4. --dump-spec is the inverse of --spec: dumping a pinned spec document
#    reproduces it byte for byte (serialization is a fixed point).
./fecsched_cli run --spec=../tools/pinned/stream_spec.json --dump-spec \
  | cmp - ../tools/pinned/stream_spec.json
echo "scenario API gate: specs round-trip, engines bit-identical"

# Observability gate (src/obs/, -Werror via CMake).  Obs OFF is already
# covered above: every pinned-output cmp runs with observation disabled,
# so any disabled-path output drift fails the earlier gates.
# 1. the obs test suite — deterministic metrics merging, thread-count-
#    independent reports, observation-never-changes-results, trace JSONL
#    round trips, and the trace-vs-engine residual cross-check;
ctest --output-on-failure --no-tests=error -R 'Obs'
# 2. a traced stream smoke: read_trace_file validates every JSONL line
#    against the event schema, then trace_stats recomputes residual-loss
#    run lengths from the released events alone and must match both the
#    engine summary in the trace footer and the CLI --json document;
./fecsched_cli stream --scheme=sliding --p=0.05 --q=0.25 --sources=400 \
  --trials=3 --trace=BENCH_obs_stream.jsonl --json > BENCH_obs_stream.json
./trace_stats BENCH_obs_stream.jsonl --summary=BENCH_obs_stream.json
# 3. the same cross-check on a grid point, driven by a spec document with
#    an obs section (exercising the ObsSpec JSON path end to end);
cat > BENCH_obs_grid_spec.json <<'EOF'
{
  "engine": "grid",
  "code": {"name": "rse", "ratio": 1.5, "k": 400},
  "tx": {"model": "tx2"},
  "run": {"trials": 3, "seed": 1234},
  "sweep": {"p": [0.05], "q": [0.25]},
  "obs": {"trace": "BENCH_obs_grid.jsonl"}
}
EOF
./fecsched_cli run --spec=BENCH_obs_grid_spec.json > /dev/null
./trace_stats BENCH_obs_grid.jsonl
# 4. the disabled-path overhead budget: the product per-trial path with
#    no session armed must stay within 2% of the pre-obs hot loop.
./bench_obs_overhead --k=1000 --trials=10 --check
echo "observability gate: traces validate, residuals cross-check, disabled path free"

# Cross-run observability gate (obs/ledger.h, obs/regress.h,
# obs/progress.h, obs/export.h):
# 1. the ledger/compare/progress/export test suite;
ctest --output-on-failure --no-tests=error -R 'Ledger'
# 2. the regression sentinel round trip: two identical runs of the pinned
#    stream point append to a fresh ledger (stdout still byte-identical —
#    the output flags never leak into results) and must compare clean;
#    a third run on the forced-scalar GF backend must stay clean too,
#    because metric values are bit-identical across backends and timings
#    only compare within one backend's subgroup.
rm -f BENCH_ledger.jsonl
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --ledger=BENCH_ledger.jsonl | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --ledger=BENCH_ledger.jsonl | cmp - ../tools/pinned/stream_point.txt
./fecsched_cli compare --ledger=BENCH_ledger.jsonl
FECSCHED_GF_BACKEND=scalar ./fecsched_cli stream --p=0.02 --q=0.4 \
  --sources=800 --trials=3 --ledger=BENCH_ledger.jsonl > /dev/null
./fecsched_cli compare --ledger=BENCH_ledger.jsonl
./fecsched_cli history --ledger=BENCH_ledger.jsonl | grep -q '^3 records'
# 3. --progress writes its heartbeat to stderr only: stdout must stay
#    byte-identical to the pinned output, stderr must carry the final
#    status line the meter always emits;
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --progress > BENCH_progress_out.txt 2> BENCH_progress_err.txt
cmp BENCH_progress_out.txt ../tools/pinned/stream_point.txt
grep -q 'stream: .*trials' BENCH_progress_err.txt
# 4. --spec=- reads the spec document from stdin, byte-identical to
#    --spec=<file> of the same bytes;
./fecsched_cli run --spec=- --json < ../tools/pinned/stream_spec.json \
  | cmp - ../tools/pinned/stream_point.json
# 5. profile/metrics export: a profiled sweep leaves stdout pinned while
#    emitting collapsed stacks (flamegraph.pl format) and the Prometheus
#    text exposition.
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --profile-out=BENCH_profile.folded --metrics-out=BENCH_metrics.prom \
  | cmp - ../tools/pinned/grid_point.txt
grep -q '^fecsched;grid;' BENCH_profile.folded
grep -q '^fecsched_grid_trials_total' BENCH_metrics.prom
echo "cross-run gate: ledger compares clean across backends, stdout untouched"

# Hot-path observability gate (obs/timeline.h, obs/perfctr.h,
# obs/memwatch.h):
# 1. the hot-path collector test suite (span capture, counter read
#    determinism, arena/RSS watermarks);
ctest --output-on-failure --no-tests=error \
      -R 'ObsTimeline|ObsPerfctr|ObsMemwatch|ObsLedgerPerf|ObsSpecHotPath'
# 2. timeline smoke on the pinned grid point, default and forced-scalar
#    GF backends: stdout must stay byte-identical to the no-flag run, and
#    the written document must pass trace_stats schema validation
#    (parse + known phase letters + balanced worker begin/end spans);
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --timeline-out=BENCH_timeline.json | cmp - ../tools/pinned/grid_point.txt
./trace_stats --timeline BENCH_timeline.json
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --timeline-out=BENCH_timeline.json \
  | cmp - ../tools/pinned/grid_point.txt
./trace_stats --timeline BENCH_timeline.json
b=$(grep -o '"ph":"B"' BENCH_timeline.json | wc -l)
e=$(grep -o '"ph":"E"' BENCH_timeline.json | wc -l)
if [ "$b" -eq 0 ] || [ "$b" -ne "$e" ]; then
  echo "BUG: timeline worker spans unbalanced (B=$b E=$e)"; exit 1
fi
# 3. counters run: on perf-capable hosts the report carries per-phase
#    hardware counters, elsewhere it must still exit 0 with an explicit
#    counters-absent marker — never crash, never fabricate values;
./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --counters > BENCH_counters.txt
grep -q 'perf counters' BENCH_counters.txt
FECSCHED_PERF=off ./fecsched_cli stream --p=0.02 --q=0.4 --sources=800 \
  --trials=3 --counters | grep -q 'perf counters: unavailable'
# 4. the hot-path flags stay run-scoped: the query/planning subcommands
#    must reject them like any unknown flag;
for sub in plan universal limits fit history compare list; do
  for flag in --timeline-out=BENCH_x.json --counters; do
    if ./fecsched_cli "$sub" "$flag" > /dev/null 2>&1; then
      echo "BUG: $sub accepted $flag"; exit 1
    fi
  done
done
# 5. the dormant-cost budget re-checked with the new collectors compiled
#    in, and both enabled rows measured (bench_obs_overhead --check above
#    already gates disabled overhead; this one also proves the timeline
#    and counter rows exist at a smaller scale for speed).
./bench_obs_overhead --k=500 --trials=8 --check
echo "hot-path gate: timelines validate, counters degrade gracefully, stdout untouched"

# Robustness gate (util/durable_io.h, util/faultpoint.h, api/checkpoint.h,
# util/watchdog.h, util/interrupt.h — README "Crash safety & fault
# injection"):
# 1. the robustness test suite (fork-kill matrix at every registered
#    fault point, shard round-trip exactness, torn-artifact tolerance);
ctest --output-on-failure --no-tests=error -R 'Robustness'
# 2. kill-then-resume bit-identity, CLI level: crash the pinned grid
#    sweep mid-flight with an injected _exit at a sweep-cell boundary
#    (the child must die with the fault exit code 41, proving the fault
#    actually fired), then resume from the shards and cmp against the
#    pinned output — under the default and forced-scalar GF backends.
rm -rf BENCH_ckpt && rm -f BENCH_resume_out.txt
rc=0
FECSCHED_FAULT=sweep.cell:2:exit ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --checkpoint=BENCH_ckpt \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected sweep.cell crash exited $rc, want 41"; exit 1
fi
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --checkpoint=BENCH_ckpt --resume | cmp - ../tools/pinned/grid_point.txt
rm -rf BENCH_ckpt
rc=0
FECSCHED_GF_BACKEND=scalar FECSCHED_FAULT=checkpoint.shard:3:exit \
  ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --checkpoint=BENCH_ckpt > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected checkpoint.shard crash exited $rc, want 41"; exit 1
fi
FECSCHED_GF_BACKEND=scalar ./fecsched_cli sweep --code=rse --tx=1 \
  --ratio=1.5 --k=400 --trials=3 --checkpoint=BENCH_ckpt --resume \
  | cmp - ../tools/pinned/grid_point.txt
# 3. SIGINT drains: a heavy ledgered sweep interrupted mid-flight must
#    exit 40, print nothing on stdout, and leave a strict-parseable
#    ledger whose record is marked interrupted;
rm -f BENCH_sigint.jsonl BENCH_sigint_out.txt
./fecsched_cli sweep --code=ldgm-triangle --tx=4 --ratio=2.5 --k=4000 \
  --trials=60 --ledger=BENCH_sigint.jsonl > BENCH_sigint_out.txt 2>/dev/null &
sweep_pid=$!
sleep 2
kill -INT "$sweep_pid" || true  # rc check below catches an early exit
rc=0
wait "$sweep_pid" || rc=$?
if [ "$rc" -ne 40 ]; then
  echo "BUG: interrupted sweep exited $rc, want 40"; exit 1
fi
if [ -s BENCH_sigint_out.txt ]; then
  echo "BUG: interrupted sweep printed a partial result"; exit 1
fi
grep -q '"status":"interrupted"' BENCH_sigint.jsonl
./fecsched_cli history --ledger=BENCH_sigint.jsonl --strict > /dev/null
# 4. the trial watchdog turns a too-tight deadline into timed-out cells,
#    not a hang or a crash;
./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
  --trial-timeout-ms=1 > /dev/null
# 5. truncated-artifact diagnostics: trace_stats must name the
#    truncation (writer died mid-write) instead of a confusing parse
#    error — on a torn trace and a torn timeline;
head -c -1 BENCH_obs_stream.jsonl > BENCH_torn.jsonl
if ./trace_stats BENCH_torn.jsonl > /dev/null 2> BENCH_torn_err.txt; then
  echo "BUG: trace_stats accepted a truncated trace"; exit 1
fi
grep -q 'truncated file' BENCH_torn_err.txt
# 6. crash-safety flags stay engine-scoped, and misuse is a usage error:
#    --checkpoint/--resume/--trial-timeout-ms belong to the sweep/run
#    engines (timeout also to stream/mpath), --strict to history/compare,
#    --resume requires --checkpoint, and a malformed FECSCHED_FAULT dies
#    loudly at startup rather than running faultless.
for sub in stream mpath adapt plan history compare list; do
  if ./fecsched_cli "$sub" --checkpoint=BENCH_x > /dev/null 2>&1; then
    echo "BUG: $sub accepted --checkpoint"; exit 1
  fi
done
for sub in adapt plan history compare list; do
  if ./fecsched_cli "$sub" --trial-timeout-ms=1 > /dev/null 2>&1; then
    echo "BUG: $sub accepted --trial-timeout-ms"; exit 1
  fi
done
for sub in sweep stream mpath adapt plan list; do
  if ./fecsched_cli "$sub" --strict > /dev/null 2>&1; then
    echo "BUG: $sub accepted --strict"; exit 1
  fi
done
if ./fecsched_cli sweep --code=rse --tx=1 --ratio=1.5 --k=400 --trials=3 \
    --resume > /dev/null 2>&1; then
  echo "BUG: --resume accepted without --checkpoint"; exit 1
fi
if FECSCHED_FAULT=no.such.point:1 ./fecsched_cli list > /dev/null 2>&1; then
  echo "BUG: malformed FECSCHED_FAULT did not abort"; exit 1
fi
echo "robustness gate: kill-resume bit-identical on both backends, SIGINT drains, torn artifacts diagnosed"

# Net gate (src/net/, -Werror via CMake — README "Real transport"):
# 1. the net test suite (wire-format fuzz/property suite, transport
#    semantics, impairment-shim substream identity, and the eight
#    sim-vs-wire parity oracles), then the parity oracles again on the
#    forced-scalar GF backend together with the other oracles of the
#    shared stream core (1-path multipath == stream, pinned stream and
#    mpath digests): the net receiver's payload-mode sliding, LDGM and
#    RSE decoders run through the GF kernels;
ctest --output-on-failure --no-tests=error -R 'Net'
FECSCHED_GF_BACKEND=scalar ctest --output-on-failure --no-tests=error \
      -R 'NetParity|MpathDegenerate|StreamTrialDigest|MpathTrialDigest'
# 2. loopback smoke over real UDP sockets: the run must byte-verify every
#    delivered source payload against the sender's ground truth and match
#    its simulation twin exactly on every trial — under the default and
#    forced-scalar GF backends (the wire carries codec output, so backend
#    divergence would surface here as a payload mismatch);
./fecsched_cli net --p=0.02 --q=0.4 --sources=800 --trials=3 \
  --report-interval=200 --net-dump=BENCH_net_dump.json > BENCH_net_out.txt
grep -q 'byte-verified payloads: .* (0 mismatches, 0 frames rejected)' \
  BENCH_net_out.txt
grep -q 'parity: 3/3 trials match the simulation twin exactly' \
  BENCH_net_out.txt
FECSCHED_GF_BACKEND=scalar ./fecsched_cli net --p=0.02 --q=0.4 \
  --sources=800 --trials=3 --report-interval=200 > BENCH_net_scalar.txt
grep -q 'parity: 3/3 trials match the simulation twin exactly' \
  BENCH_net_scalar.txt
# 3. the --net-dump artifact goes through durable::write_file (temp +
#    fsync + rename), so a crash injected at the durable.write fault
#    point must leave no dump file behind — and the successful run above
#    must have produced a parseable per-trial document;
grep -q '"engine": "net"' BENCH_net_dump.json
rm -f BENCH_net_fault.json
rc=0
FECSCHED_FAULT=durable.write:1:exit ./fecsched_cli net --p=0.02 --q=0.4 \
  --sources=400 --trials=1 --net-dump=BENCH_net_fault.json \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 41 ]; then
  echo "BUG: injected durable.write crash exited $rc, want 41"; exit 1
fi
if [ -f BENCH_net_fault.json ]; then
  echo "BUG: torn net dump left behind after injected crash"; exit 1
fi
# 4. the shipped scenario documents stay runnable: the net loopback spec
#    (real sockets, parity on) and the CI-scaled paper Fig. 8 grid;
./fecsched_cli run --spec=../scenarios/net_loopback.json > BENCH_net_spec.txt
grep -q 'parity: 2/2 trials match the simulation twin exactly' \
  BENCH_net_spec.txt
./fecsched_cli run --spec=../scenarios/paper_fig8.json > /dev/null
# 5. a reduced-scale packetize bench smoke (pack/unpack throughput and
#    loopback RTT land in the ledger as a kind="bench" record).
rm -f BENCH_net_ledger.jsonl
./bench_packetize --k=2000 --trials=30 --ledger=BENCH_net_ledger.jsonl \
  > /dev/null
grep -q '"kind":"bench","label":"bench_packetize"' BENCH_net_ledger.jsonl
echo "net gate: wire round-trips fuzz-clean, loopback matches simulation on both backends"

# Sanitizer gate: the structure-only hot paths (peeling decoder, grid
# trackers, trial loop, channel draw) index without range checks in
# release builds; an ASan + UBSan build (every UBSan finding fatal) with
# the hot-path checks compiled in (util/check.h) runs their suites.
cd ..
cmake -S . -B build-asan -DFECSCHED_SANITIZE="address;undefined" \
  -DFECSCHED_BUILD_BENCHES=OFF -DFECSCHED_BUILD_EXAMPLES=OFF \
  -DFECSCHED_BUILD_TOOLS=OFF
cmake --build build-asan -j --target peeling_test channel_test \
  trial_grid_test broadcast_memory_test experiment_test
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R 'Peeling|Gilbert|PerfectChannel|NStateMarkov|TraceModel|Analytic|RunTrial|RunGrid|GridSpec|Replication|Broadcast|MemoryMetric|Experiment|TxModel|RxModel|LosslessSequentialSource')
echo "sanitizer gate: tracker, peeling, trial-grid and channel suites clean under ASan+UBSan"
