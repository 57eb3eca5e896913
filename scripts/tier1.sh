#!/usr/bin/env bash
# Tier-1 verification:
#   1. regular build + full test suite (the ROADMAP.md tier-1 command),
#   2. ThreadSanitizer build (-DSANITIZE=thread) of the concurrency
#      surface — the parallel-round determinism harness plus the thread
#      pool / logging tests — and a TSan-clean run of it,
#   3. ASan+UBSan build (-DSANITIZE=address+undefined) of the
#      incremental-engine surface — delta computation, the longitudinal
#      index, the cache-reuse rounds, the memoized-fingerprint oracle
#      (FingerprintOracle), the world-generation reuses (Generations,
#      RelyingPartyStability, SharedEpoch), the checkpoint codec's
#      corruption/truncation battery (the loader must stay clean on
#      attacker-grade input) and the two-slot commit's crash-window
#      battery (SlotFile) — and a clean run of it,
#   4. ASan/UBSan fault soak: the RTR wire-error and lifecycle suites
#      plus the fault-injection suites, including the 200-day
#      high-fault-rate soak (FaultSoak) that drives relying-party runs,
#      corrupt-PDU teardowns, and per-AS view installs hot,
#   5. crash/resume end-to-end: a 6-round series with --archive killed
#      after round 3 (--die-after simulates SIGKILL: no destructors, no
#      exit checkpoint), its newest checkpoint slot then torn in half,
#      resumed from the older slot at a different thread count, must
#      publish CSVs byte-identical to an uninterrupted run, and so must
#      `analyze --publish` of the resumed archive,
#   6. the same crash/resume on a SLURM-policy series
#      (--slurm-fraction): delta installs run through the per-view
#      dirty-set path of apply_vrp_delta, and the published CSVs may not
#      depend on thread count or where the series was interrupted; the
#      series passes --checkpoint-dir alone, so its archive lives in the
#      checkpoint directory, and `analyze --publish` of that archive
#      must match too (that the same 6-round series publishes the bytes
#      of a from-scratch recompute is checked in ctest by
#      SlurmIncrementalRound.SixRoundSeriesMatchesOracle, which the ASan
#      stage runs),
#   7. the same contract under fault injection (--rp-failure-rate /
#      --rp-divergence-fraction / --rtr-drop-rate): kill mid-series,
#      resume at a different thread count, and byte-diff against an
#      uninterrupted run, and `analyze --publish` of the archive in the
#      checkpoint directory against the uninterrupted run (the
#      from-scratch byte-diff, degradation.csv included, is
#      FaultedIncrementalRound.SixRoundSeriesMatchesOracle, run by the
#      ASan fault stage),
#   8. TSan epoch-snapshot stress: multi-seed readers-vs-installer
#      harness (reader threads pinned to an epoch across >= 3
#      concurrent publishes, including a zero-VRP-delta fault-window
#      flip) plus the lifecycle/immutability property suites, all under
#      -DSANITIZE=thread (runs as stage 2b, before the ASan stages),
#   9. thread invariance: `measure` on the CAIDA sample topology with
#      --threads omitted, 1 and 4 must publish byte-identical score
#      datasets and MRT table dumps,
#  10. docs consistency: every `--flag` the built CLI prints in its
#      --help output must appear in README.md, and every
#      `docs/FORMATS.md §N` / `FORMATS.md section N` reference made
#      from code or data files must resolve to a `## N.` heading in
#      docs/FORMATS.md (runs as stage 1b, right after the build),
#  11. bench_scale smoke: the scaling bench's --smoke shape (~5k ASes)
#      must complete under a wall-clock ceiling with every internal
#      check green ("ok": true) — digests thread-invariant, zero flat
#      refusals, oracle and LPM spot-checks passing (stage 1c),
#  12. RVLA archive end-to-end: a longitudinal run with --archive, then
#      `rovista analyze --publish` straight off the archive, byte-diffed
#      against the CSVs the in-memory store published during the run;
#      plus bench_analytics --smoke under a wall-clock ceiling with its
#      streaming-vs-store identity gates green ("ok": true),
#  13. CLI refusals: `loadgen --reach-fraction` above 0 without
#      --reach-dst, any flag a subcommand does not accept (the removed
#      --incremental included), a malformed number (query and analyze
#      included), a missing required flag, a zero --interval-days or
#      serve --workers, a loadgen --port outside 1..65535, --resume or
#      --checkpoint-every without --checkpoint-dir, a
#      --checkpoint-every outside [1, 2^31-1], and a --threads or
#      serve --workers above 256 or a loadgen --connections above 4096
#      (each refusal naming its flag) exit 2 with a one-line error
#      (stage 1b),
#  14. steady-state daily series: 300 daily rounds on the small world
#      (checkpoint + archive writes on) under a 10 s wall-clock ceiling,
#      and its newest checkpoint slot at most 20,000 bytes (the
#      checkpoint names an archive prefix, so it does not grow with the
#      rounds). That the series' first 60 rounds publish the bytes of a
#      from-scratch recompute is checked in ctest by
#      IncrementalRound.DailySeriesMatchesOracle, which the ASan stage
#      runs.
#
# Every stage runs under its own timeout and the script fails fast: the
# first stage to fail (or hang past its budget) stops the run with a
# labeled message. ctest gets -j consistently; override parallelism with
# JOBS=N.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

STAGE=""
stage() {
  STAGE="$1"
  echo "=== tier1: $STAGE ==="
}
trap '[ -n "$STAGE" ] && echo "tier-1 FAILED during: $STAGE" >&2' ERR

# Per-stage timeout (seconds as $1); 124/137 from `timeout` means hung.
t() { timeout --kill-after=30 "$@"; }

stage "build + full test suite"
t 900 cmake -B build -S .
t 1800 cmake --build build -j "$JOBS"
t 1800 ctest --test-dir build --output-on-failure -j "$JOBS"

stage "docs consistency (--help flags vs README, FORMATS.md references)"
DOCS_TMP="$(mktemp -d)"
trap 'rm -rf "$DOCS_TMP"' EXIT
# --help exits non-zero by design (it is the usage path); the output is
# what we are after. Fail if it produced no flags at all.
build/tools/rovista --help > "$DOCS_TMP/help.txt" 2>&1 || true
grep -oE -- '--[a-z][a-z0-9-]*' "$DOCS_TMP/help.txt" | sort -u \
  > "$DOCS_TMP/flags.txt"
if [ ! -s "$DOCS_TMP/flags.txt" ]; then
  echo "rovista --help printed no flags" >&2
  exit 1
fi
missing=0
while IFS= read -r flag; do
  grep -q -- "$flag" README.md || {
    echo "flag $flag from --help is undocumented in README.md" >&2
    missing=1
  }
done < "$DOCS_TMP/flags.txt"
# Every FORMATS.md section referenced from code/tests/bench/tools/data
# must exist as a "## N." heading — references may not outlive the spec.
grep -rhoE 'FORMATS\.md (§|section )[0-9]+' src tests bench tools \
  | grep -oE '[0-9]+$' | sort -u > "$DOCS_TMP/refs.txt"
while IFS= read -r sec; do
  grep -qE "^## ${sec}\." docs/FORMATS.md || {
    echo "code references FORMATS.md §$sec but no '## $sec.' heading exists" >&2
    missing=1
  }
done < "$DOCS_TMP/refs.txt"
if [ "$missing" -ne 0 ]; then
  echo "docs drifted from the built CLI / format specs" >&2
  exit 1
fi

stage "CLI refusals (REACH share without a destination, unknown flags, malformed numbers, missing required flags, zero or out-of-range counts, checkpoint flags without --checkpoint-dir, out-of-range --checkpoint-every, thread/worker/connection caps)"
# Each is refused before any world is built or connection attempted.
refuse() {
  local status=0
  build/tools/rovista "$@" > /dev/null 2> "$DOCS_TMP/refusal.txt" \
    || status=$?
  if [ "$status" -ne 2 ] || [ "$(wc -l < "$DOCS_TMP/refusal.txt")" -ne 1 ]; then
    echo "rovista $*: exit $status, want 2 with a one-line error" >&2
    cat "$DOCS_TMP/refusal.txt" >&2 || true
    exit 1
  fi
}
refuse loadgen --port 9 --reach-fraction 0.1
refuse measure --propagation flat
refuse query --dir "$DOCS_TMP" --asn 129 --bogus 7
refuse measure --engine replica
refuse longitudinal --rounds 1 --engine snapshot
refuse measure --threads x
refuse longitudinal --rounds 2 --interval-days x
refuse longitudinal --rounds 2 --resume
refuse longitudinal --rounds 2 --checkpoint-every 3
refuse query --asn x
refuse analyze --query jumps --low x
refuse analyze --query fraction-trend --threshold abc
refuse analyze --archive "$DOCS_TMP" --query series
refuse longitudinal --rounds 2 --scale huge
refuse serve --rounds 1 --port 70000
refuse measure --out "$DOCS_TMP/m" --topology bogus
refuse longitudinal --rounds 2 --incremental off
# A required flag missing, or a count that would silently run as 1.
refuse measure --seed 1
refuse query --asn 129
refuse audit --seed 1
refuse analyze --query info
refuse checkpoint inspect
refuse feedcheck --record "$DOCS_TMP/record.csv"
refuse feedcheck --published "$DOCS_TMP"
refuse loadgen --requests 10
refuse loadgen --port 0
refuse loadgen --port 70000
refuse longitudinal --rounds 2 --interval-days 0
refuse serve --rounds 1 --interval-days 0
refuse serve --rounds 1 --workers 0
# Thread, worker and connection counts above their caps, each refused by
# name. A regressed refusal starts at most cap + 1 threads or sockets.
refuse_flag() {
  local flag="$1"
  shift
  refuse "$@"
  grep -q -- "--$flag" "$DOCS_TMP/refusal.txt" || {
    echo "rovista $*: the refusal does not name --$flag" >&2
    cat "$DOCS_TMP/refusal.txt" >&2
    exit 1
  }
}
refuse_flag threads measure --out "$DOCS_TMP/m" --threads 257
refuse_flag threads longitudinal --rounds 1 --threads 257
refuse_flag threads serve --rounds 1 --threads 257
refuse_flag workers serve --rounds 1 --workers 257
refuse_flag threads loadgen --port 9 --threads 257
refuse_flag connections loadgen --port 9 --connections 4097
# 0, or a value the engine's int cannot hold, would write no periodic
# checkpoint at all.
for every in 0 3000000000; do
  refuse longitudinal --rounds 2 --checkpoint-dir "$DOCS_TMP/ck" \
    --checkpoint-every "$every"
  refuse serve --rounds 2 --checkpoint-dir "$DOCS_TMP/ck" \
    --checkpoint-every "$every"
done

stage "bench_scale smoke (scaling contract under a wall-clock ceiling)"
# The full shape takes ~30 s; the smoke shape (~5k ASes) must stay well
# under a minute even on a loaded runner. bench_scale exits non-zero on
# any internal check failure; we also assert the emitted verdict.
t 120 build/bench/bench_scale --smoke --out "$DOCS_TMP/bench_scale_smoke.json" \
  > "$DOCS_TMP/bench_scale_smoke.log"
grep -q '"ok": true' "$DOCS_TMP/bench_scale_smoke.json" || {
  echo "bench_scale --smoke emitted ok=false" >&2
  cat "$DOCS_TMP/bench_scale_smoke.log" >&2 || true
  exit 1
}

stage "TSan parallel-round surface"
t 900 cmake -B build-tsan -S . -DSANITIZE=thread
t 1800 cmake --build build-tsan -j "$JOBS" \
  --target test_parallel_round test_util test_ipid_properties
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ParallelRound|ThreadPool|Logging|IpIdArithmetic|Spike|BackgroundCutoff'

stage "TSan epoch-snapshot stress (readers vs concurrent installer)"
# Multi-seed readers-vs-installer harness: reader threads score against
# pinned epochs while the publisher concurrently applies deltas and
# fault-window flips (including a zero-VRP-delta flip) and publishes
# >= 3 epochs per seed. Any state shared mutably across the publish
# boundary is a TSan report here. The lifecycle/immutability property
# suites run under TSan too.
t 1800 cmake --build build-tsan -j "$JOBS" \
  --target test_snapshot test_snapshot_stress test_serve_stress
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -L tsan-stress
t 1800 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'SnapshotFreeze|SnapshotLifecycle|SnapshotImmutability|SnapshotReader'

stage "ASan/UBSan incremental + checkpoint surface"
t 900 cmake -B build-asan -S . -DSANITIZE=address+undefined
t 1800 cmake --build build-asan -j "$JOBS" \
  --target test_vrp_delta test_longitudinal_index test_incremental_round \
           test_checkpoint test_slot_file test_rvla test_rtr test_faults \
           test_generations
t 1800 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'VrpDelta|LongitudinalIndex|IncrementalRound|FingerprintOracle|Wire|Checkpoint|ScoreCacheRestore|Rvla|SlotFile|Generations|RelyingPartyStability|SharedEpoch'

stage "ASan/UBSan fault soak (RTR lifecycle + fault injection)"
t 1800 ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'RtrLifecycle|FaultSchedule|FaultChainScenario|FaultSoak|FaultedIncremental'

CK_TMP="$(mktemp -d)"
trap 'rm -rf "$CK_TMP" "$DOCS_TMP"' EXIT
CLI=build/tools/rovista

# The query server under ASan/UBSan: start the daemon on an ephemeral
# port, hammer it with the bundled loadgen *while* the engine is still
# publishing rounds (the loadgen bootstrap waits for round 1), then
# again at steady state, and byte-compare every recorded SCORE response
# against the CSVs the same daemon published. A torn read across an
# epoch swap, a leak, or an unflushed response on SIGTERM all fail here.
stage "ASan serve daemon: concurrent-publish burst + byte-compare + SIGTERM"
t 1800 cmake --build build-asan -j "$JOBS" --target rovista
ACLI=build-asan/tools/rovista
SERVE_DIR="$CK_TMP/serve"
mkdir -p "$SERVE_DIR"
"$ACLI" serve --seed 11 --rounds 3 --interval-days 20 --scale small \
  --port 0 --workers 2 --publish "$SERVE_DIR/pub" \
  > "$SERVE_DIR/serve.log" 2> "$SERVE_DIR/serve.err" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 300); do
  PORT="$(awk '/^LISTENING/ {print $2; exit}' "$SERVE_DIR/serve.log")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "serve daemon never printed LISTENING" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
fi
t 600 "$ACLI" loadgen --port "$PORT" --requests 4000 --connections 6 \
  --threads 3 --record "$SERVE_DIR/burst1.csv" >/dev/null
for _ in $(seq 1 600); do
  grep -q '^PUBLISHED ' "$SERVE_DIR/serve.log" && break
  sleep 0.5
done
grep -q '^PUBLISHED ' "$SERVE_DIR/serve.log" || {
  echo "serve daemon never published its CSV dataset" >&2
  kill -9 "$SERVE_PID" 2>/dev/null || true
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
}
t 600 "$ACLI" loadgen --port "$PORT" --requests 4000 --connections 6 \
  --threads 3 --traj-fraction 0.2 --record "$SERVE_DIR/burst2.csv" \
  >/dev/null
kill -TERM "$SERVE_PID"
status=0
wait "$SERVE_PID" || status=$?
if [ "$status" -ne 0 ]; then
  echo "serve daemon exited $status on SIGTERM (sanitizer report?)" >&2
  cat "$SERVE_DIR/serve.err" >&2 || true
  exit 1
fi
grep -q '^SERVED ' "$SERVE_DIR/serve.log" || {
  echo "serve daemon exited without its SERVED summary line" >&2
  exit 1
}
t 300 "$ACLI" feedcheck --record "$SERVE_DIR/burst1.csv" \
  --published "$SERVE_DIR/pub" >/dev/null
t 300 "$ACLI" feedcheck --record "$SERVE_DIR/burst2.csv" \
  --published "$SERVE_DIR/pub" >/dev/null

# Demand-warmed epochs: a steady-state daily round re-converges only
# the prefixes its day erased, so 300 rounds with checkpoint and archive
# writes fit a 10 s ceiling (when every publish re-converged every
# prefix they took 14-20 s on a 4-core host). That the fast path changes
# no byte is IncrementalRound.DailySeriesMatchesOracle's job (stage 1).
stage "steady-state daily series (wall-clock ceiling + checkpoint size cap)"
SS="$CK_TMP/steady"
t0="$(date +%s%N)"
t 120 "$CLI" longitudinal --scale small --seed 3 --rounds 300 \
  --interval-days 1 --threads 4 --checkpoint-dir "$SS/ck" \
  --archive "$SS/archive" --publish "$SS/published" >/dev/null
ms=$(( ($(date +%s%N) - t0) / 1000000 ))
if [ "$ms" -gt 10000 ]; then
  echo "300-round daily series took ${ms} ms (ceiling 10000 ms)" >&2
  exit 1
fi
# The checkpoint names an archive prefix instead of re-encoding every
# round, so its size does not grow with the series.
t 300 "$CLI" checkpoint inspect --dir "$SS/ck" > "$SS/inspect.txt"
newest="$(awk '/^resume takes slot/ {print $5}' "$SS/inspect.txt")"
if [ ! -s "$newest" ] || [ "$(stat -c %s "$newest")" -gt 20000 ]; then
  echo "newest checkpoint slot of the 300-round series is over 20000 bytes" >&2
  cat "$SS/inspect.txt" >&2
  exit 1
fi

stage "crash/resume byte-diff"
# `|| status=$?` (not `set +e`) — the ERR trap fires even with -e off,
# and this kill is supposed to happen.
status=0
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --checkpoint-dir "$CK_TMP/ck" --archive "$CK_TMP/ck-archive" \
  --die-after 3 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 300 "$CLI" checkpoint inspect --dir "$CK_TMP/ck" > "$CK_TMP/inspect.txt"
# Tear the newest checkpoint slot, as a crash mid-commit would: the
# resume must fall back to the older slot and still converge on the
# uninterrupted bytes, archive included.
newest="$(awk '/^resume takes slot/ {print $5}' "$CK_TMP/inspect.txt")"
if [ ! -s "$newest" ]; then
  echo "checkpoint inspect named no newest slot" >&2
  cat "$CK_TMP/inspect.txt" >&2
  exit 1
fi
truncate -s $(( $(stat -c %s "$newest") / 2 )) "$newest"
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --checkpoint-dir "$CK_TMP/ck" --archive "$CK_TMP/ck-archive" \
  --resume --threads 4 --publish "$CK_TMP/resumed" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --publish "$CK_TMP/uninterrupted" >/dev/null
diff -r "$CK_TMP/resumed" "$CK_TMP/uninterrupted" >/dev/null || {
  echo "resumed series published different CSV bytes" >&2
  exit 1
}
t 300 "$CLI" analyze --archive "$CK_TMP/ck-archive" \
  --publish "$CK_TMP/resumed-analyze" >/dev/null
diff -r "$CK_TMP/resumed-analyze" "$CK_TMP/uninterrupted" >/dev/null || {
  echo "the resumed archive published different CSV bytes" >&2
  exit 1
}

# RVLA archive end-to-end: the round loop appends one frame per round;
# `analyze` must reproduce the published dataset byte-for-byte straight
# off the archive, and the streaming-query bench's identity gates must
# hold at smoke scale under a wall-clock ceiling.
stage "RVLA archive: analyze byte-diff + bench_analytics smoke"
t 900 "$CLI" longitudinal --seed 11 --rounds 5 --interval-days 20 \
  --scale small --archive "$CK_TMP/rvla" --publish "$CK_TMP/rvla-store" \
  >/dev/null
t 300 "$CLI" analyze --archive "$CK_TMP/rvla" >/dev/null
t 300 "$CLI" analyze --archive "$CK_TMP/rvla" \
  --publish "$CK_TMP/rvla-analyze" >/dev/null
diff -r "$CK_TMP/rvla-store" "$CK_TMP/rvla-analyze" >/dev/null || {
  echo "analyze published different CSV bytes than the in-memory store" >&2
  exit 1
}
t 120 build/bench/bench_analytics --smoke \
  --out "$CK_TMP/bench_analytics_smoke.json" \
  > "$CK_TMP/bench_analytics_smoke.log"
grep -q '"ok": true' "$CK_TMP/bench_analytics_smoke.json" || {
  echo "bench_analytics --smoke emitted ok=false" >&2
  cat "$CK_TMP/bench_analytics_smoke.log" >&2 || true
  exit 1
}

# SLURM-policy series: crash/resume byte-identity with local exceptions
# in play.
stage "SLURM crash/resume byte-diff"
status=0
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --checkpoint-dir "$CK_TMP/slurm-ck" \
  --die-after 2 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the SLURM --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --checkpoint-dir "$CK_TMP/slurm-ck" \
  --resume --threads 4 --publish "$CK_TMP/slurm-resumed" >/dev/null
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small --slurm-fraction 0.35 --publish "$CK_TMP/slurm-incr" \
  >/dev/null
diff -r "$CK_TMP/slurm-resumed" "$CK_TMP/slurm-incr" >/dev/null || {
  echo "SLURM resumed series published different CSV bytes" >&2
  exit 1
}
# Without --archive the series' archive lives in the checkpoint dir.
t 300 "$CLI" analyze --archive "$CK_TMP/slurm-ck" \
  --publish "$CK_TMP/slurm-analyze" >/dev/null
diff -r "$CK_TMP/slurm-analyze" "$CK_TMP/slurm-incr" >/dev/null || {
  echo "the SLURM series' archive published different CSV bytes" >&2
  exit 1
}

# Fault-injected series: the checkpoint lands mid-failure-window (the
# RVCP container with its FAULTS section), the resume replays the same
# fault world, and neither thread count nor the interruption point may
# change a published byte — degradation.csv included.
stage "fault-injection crash/resume byte-diff"
FAULT_KNOBS="--rp-failure-rate 0.3 --rp-divergence-fraction 0.25 \
  --rtr-drop-rate 0.3"
status=0
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --checkpoint-dir "$CK_TMP/fault-ck" \
  --die-after 3 >/dev/null || status=$?
if [ "$status" -ne 137 ]; then
  echo "expected the faulted --die-after run to die with 137, got $status" >&2
  exit 1
fi
t 300 "$CLI" checkpoint inspect --dir "$CK_TMP/fault-ck" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --checkpoint-dir "$CK_TMP/fault-ck" \
  --resume --threads 4 --publish "$CK_TMP/fault-resumed" >/dev/null
# shellcheck disable=SC2086
t 900 "$CLI" longitudinal --seed 11 --rounds 6 --interval-days 20 \
  --scale small $FAULT_KNOBS --publish "$CK_TMP/fault-incr" >/dev/null
if [ ! -s "$CK_TMP/fault-incr/degradation.csv" ]; then
  echo "faulted series published no degradation.csv" >&2
  exit 1
fi
diff -r "$CK_TMP/fault-resumed" "$CK_TMP/fault-incr" >/dev/null || {
  echo "faulted resumed series published different CSV bytes" >&2
  exit 1
}
t 300 "$CLI" analyze --archive "$CK_TMP/fault-ck" \
  --publish "$CK_TMP/fault-analyze" >/dev/null
diff -r "$CK_TMP/fault-analyze" "$CK_TMP/fault-incr" >/dev/null || {
  echo "the faulted series' archive published different CSV bytes" >&2
  exit 1
}

# One round path: every --threads value (omitted and 1 run the matrix
# inline, 4 shards it across epoch readers) measures the same published
# world, so the score dataset and the collector's MRT table dump may not
# change by a byte.
stage "thread-invariance byte-diff (measure --threads omitted / 1 / 4)"
TI="$CK_TMP/threads"
TOPO="caida:tests/data/caida_serial2_sample.txt"
t 300 "$CLI" measure --topology "$TOPO" --out "$TI/default" \
  --mrt "$TI/default.mrt" >/dev/null
t 300 "$CLI" measure --topology "$TOPO" --threads 1 --out "$TI/t1" \
  --mrt "$TI/t1.mrt" >/dev/null
t 300 "$CLI" measure --topology "$TOPO" --threads 4 --out "$TI/t4" \
  --mrt "$TI/t4.mrt" >/dev/null
for run in t1 t4; do
  diff -r "$TI/default" "$TI/$run" >/dev/null || {
    echo "measure --threads ${run#t} published different scores than without --threads" >&2
    exit 1
  }
  cmp -s "$TI/default.mrt" "$TI/$run.mrt" || {
    echo "measure --threads ${run#t} wrote a different MRT dump than without --threads" >&2
    exit 1
  }
done

STAGE=""
echo "tier-1 OK (tests + docs consistency + bench_scale smoke" \
     "+ TSan parallel round + TSan snapshot stress" \
     "+ ASan/UBSan incremental + checkpoint corruption battery" \
     "+ ASan fault soak + crash/resume byte-diff + SLURM byte-diff" \
     "+ fault byte-diff + thread-invariance byte-diff" \
     "+ RVLA analyze byte-diff + bench_analytics smoke" \
     "+ CLI refusals + steady-state daily series)"
