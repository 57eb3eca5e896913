#!/usr/bin/env python3
"""The RoVista benchmark: one command, two workloads, gated outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload daily-series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-publishing --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke            # every code path, tiny, < 1 min
    python3 perfbench/run.py --record-references

The first run builds the `rovista` CLI (the repository's own CMake
project) and `perfbench_native` (perfbench/CMakeLists.txt) under
.bench_build/. With --trace 0 the end-to-end metrics come from the CLI
processes, untraced; with --trace 1 the per-layer metrics come from the
traced in-process pipeline (native/traced.h), which also writes a Chrome
trace-event file under .bench_build/traces/. Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics. The
README beside this file says what each workload and metric means.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLI = os.path.join(BUILD, "rovista", "tools", "rovista")
NATIVE = os.path.join(BUILD, "native", "perfbench_native")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("daily-series", "serve-publishing")

# Sizes. A full run is one 600-round daily series (2021-12-24 ..
# 2023-08-15) on the 195-AS world; smoke shrinks every count so the
# whole benchmark, gates and trace write included, runs in seconds.
FULL = {"name": "small-600", "rounds": 600, "queries": 600, "setups": 15}
SMOKE = {"name": "small-20", "rounds": 20, "queries": 60, "setups": 2}
# The load driver's fixed shape (native/load_driver.h, native/traced.cpp),
# reported in every result's provenance.
DRIVER = {"driver_threads": 1, "driver_connections": 4,
          "driver_rate_per_s": 5000.0, "traced_quiet_load_s": 2.0}
# Every run measures the same 195-AS world, the one --record-references
# stores digests for: its median round cost over 150 rounds lies within
# 5% of the median of the small worlds of seeds 1-16. Worlds of other
# seeds cost between -12% and +7% of that median, which would widen the
# seed-to-seed spread. --seed drives the ASNs that `series --asn` queries
# ask for and the load driver's request stream.
WORLD_SEED = 3
SERIES_THREADS = 4  # longitudinal --threads
SERVE_THREADS = 1   # serve --threads (its 2 workers answer queries)
STOP_SHARE = 0.95   # load stops once this share of rounds has published
CHILD_TIMEOUT_S = 150.0

ROUND_LINE = re.compile(r"^\d{4}-\d{2}-\d{2}  events=")

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "round_ms_p10": "ms",
    "query_ms_p50": "ms",
}
# What the traced pipeline reports (native/traced.cpp), with units.
PER_LAYER = {
    "scenario.build_s": "s", "scenario.advance_s": "s",
    "snapshot.publish_s": "s", "snapshot.digest_s": "s",
    "snapshot.epoch_cached_prefixes": "count", "snapshot.reader_ms": "ms",
    "snapshot.live_epochs_max": "count",
    "bgp.collector_snapshot_s": "s", "bgp.converge_all_s": "s",
    "bgp.prefixes": "count",
    "scan.tnode_acquire_s": "s", "scan.vvp_acquire_s": "s",
    "core.round_s": "s", "core.pairs": "count",
    "core.inconclusive_frac": "fraction", "core.publish_csv_ms": "ms",
    "mem.rss_mb_build": "MB", "mem.rss_mb_publish": "MB",
    "incremental.round_ms_p50": "ms", "incremental.round_ms_p98": "ms",
    "incremental.reused_pair_frac": "fraction",
    "incremental.discovery_reused_frac": "fraction",
    "incremental.dirty_prefixes": "count",
    "persist.checkpoint_ms_p50": "ms", "persist.checkpoint_bytes": "bytes",
    "analytics.append_ms_p50": "ms", "analytics.frame_bytes": "bytes",
    "analytics.query_ms": "ms",
    "serve.score_ms_p99": "ms", "serve.trajectory_ms_p99": "ms",
    "serve.reach_ms_p99": "ms", "serve.quiet_p99_ms": "ms",
    "serve.frames_per_batch": "frames/batch",
    "serve.feed_publish_ms_p50": "ms",
    "driver.late_ms_p99": "ms",
    "trace.stage_sum_s": "s", "trace.wall_s": "s",
}


class GateError(Exception):
    """An output gate failed: the run's operations all count as failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: no rovista source tree beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for src, bdir, target in ((ROOT, "rovista", "rovista"),
                                  (HERE, "native", "perfbench_native")):
            bdir = os.path.join(BUILD, bdir)
            steps = []
            if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", src, "-B", bdir, *generator,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", bdir, "--target", target,
                          "-j", jobs])
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    raise SystemExit("perfbench: build failed, see "
                                     ".bench_build/build.log")


def provenance(args, size, extra):
    compiler = "unknown"
    build_type = "unknown"
    cache = os.path.join(BUILD, "rovista", "CMakeCache.txt")
    if os.path.isfile(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1].strip()
                try:
                    compiler = subprocess.run(
                        [exe, "--version"], capture_output=True,
                        text=True).stdout.splitlines()[0]
                except (OSError, IndexError):
                    compiler = exe
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    git_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": build_type,
        "git_rev": git_rev.stdout.strip() if git_rev.returncode == 0
        else "none (not a git checkout)",
        "source_sha256": tree_digest(os.path.join(ROOT, "src"),
                                     os.path.join(ROOT, "tools")),
        "workload": args.workload, "seed": args.seed,
        "world_seed": WORLD_SEED, "size": size["name"],
        "seconds": args.seconds, "trace": args.trace,
        **DRIVER, **extra,
    }


# ---------------------------------------------------------------- helpers

def tree_digest(*dirs):
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for top in dirs:
        paths = []
        for base, _, files in os.walk(top):
            paths += [os.path.join(base, f) for f in files]
        for path in sorted(paths):
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def percentile(values, q):
    """Nearest rank, as perfbench_native computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return percentile(values, 0.5)


class Child:
    """A CLI process with line-buffered stdout, each line timestamped as
    it arrives, and its rusage collected by wait4."""

    def __init__(self, argv, stderr_path, stdin=None):
        self.err = open(stderr_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            ["stdbuf", "-oL", *argv], stdout=subprocess.PIPE,
            stderr=self.err, stdin=stdin, text=True, cwd=ROOT)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rusage = None
        self.end = None

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def next_line(self, deadline):
        """(time, line); line None at EOF. Raises GateError on timeout."""
        try:
            return self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise GateError("timed out waiting for " + self.proc.args[2])

    def wait(self):
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0


def stop_all(children):
    for child in children:
        child.kill()


def load_reference(path, size):
    with open(path) as f:
        ref = json.load(f)
    entry = ref.get(size["name"], {}).get(str(WORLD_SEED))
    if entry is None:
        raise GateError(f"no reference digest for world {WORLD_SEED}")
    return entry


# ---------------------------------------------------------------- workloads

def series_argv(rounds, d):
    return [CLI, "longitudinal", "--scale", "small", "--seed", str(WORLD_SEED),
            "--rounds", str(rounds), "--interval-days", "1",
            "--threads", str(SERIES_THREADS),
            "--archive", os.path.join(d, "archive"),
            "--checkpoint-dir", os.path.join(d, "checkpoint"),
            "--publish", os.path.join(d, "published"),
            "--out", os.path.join(d, "series.csv")]


def serve_argv(rounds, d):
    return [CLI, "serve", "--scale", "small", "--seed", str(WORLD_SEED),
            "--rounds", str(rounds), "--interval-days", "1",
            "--workers", "2", "--threads", str(SERVE_THREADS),
            "--port", "0", "--publish", os.path.join(d, "published")]


def time_to_first_round(argv, d, is_round, children, terminate):
    """Spawn, return seconds until the first round line."""
    os.makedirs(d, exist_ok=True)
    child = Child(argv, os.path.join(d, "stderr.txt"))
    children.append(child)
    deadline = child.t0 + CHILD_TIMEOUT_S
    while True:
        t, line = child.next_line(deadline)
        if line is None:
            raise GateError("no round line from " + argv[1])
        if is_round(line):
            setup = t - child.t0
            break
    if terminate:
        child.proc.send_signal(signal.SIGTERM)
    if child.wait() != 0:
        raise GateError(argv[1] + " exited with " + str(child.proc.returncode))
    return setup


def run_daily_series(size, seed, seconds, work, reference, children):
    rounds = size["rounds"]
    walls, rss, setups, p10s = [], [], [], []
    began = time.perf_counter()
    rep = 0
    # Series run back to back while another one still fits in --seconds;
    # on today's code one series fills the window.
    while rep == 0 or (time.perf_counter() - began) * (rep + 1) / rep <= seconds:
        d = os.path.join(work, f"series{rep}")
        os.makedirs(d)
        child = Child(series_argv(rounds, d),
                      os.path.join(d, "stderr.txt"))
        children.append(child)
        stamps = []
        while True:
            t, line = child.next_line(child.t0 + CHILD_TIMEOUT_S)
            if line is None:
                break
            if ROUND_LINE.match(line):
                stamps.append(t)
        if child.wait() != 0:
            raise GateError("longitudinal exited with "
                            + str(child.proc.returncode))
        if len(stamps) != rounds:
            raise GateError(f"longitudinal printed {len(stamps)} round lines")
        analyze = Child([CLI, "analyze", "--archive", os.path.join(d, "archive"),
                         "--publish", os.path.join(d, "republished")],
                        os.path.join(d, "analyze-stderr.txt"))
        children.append(analyze)
        while analyze.next_line(analyze.t0 + CHILD_TIMEOUT_S)[1] is not None:
            pass
        if analyze.wait() != 0:
            raise GateError("analyze exited with " + str(analyze.proc.returncode))

        if file_digest(os.path.join(d, "series.csv")) != reference["series_csv"]:
            raise GateError("series CSV differs from the reference digest")
        published = tree_digest(os.path.join(d, "published"))
        if published != reference["published"]:
            raise GateError("published dataset differs from the reference digest")
        if tree_digest(os.path.join(d, "republished")) != published:
            raise GateError("analyze --publish differs from longitudinal --publish")

        gaps = [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]
        walls.append((child.end - child.t0) + (analyze.end - analyze.t0))
        rss.append(max(child.peak_rss_mb, analyze.peak_rss_mb))
        setups.append(stamps[0] - child.t0)
        p10s.append(percentile(gaps, 0.10))
        rep += 1

    k = len(setups)
    while len(setups) < size["setups"]:
        setups.append(time_to_first_round(
            series_argv(1, os.path.join(work, f"setup{k}")),
            os.path.join(work, f"setup{k}"), ROUND_LINE.match, children,
            terminate=False))
        k += 1

    # The paper's queries, answered off the first series' RVLA archive.
    archive = os.path.join(work, "series0", "archive")
    published = os.path.join(work, "series0", "published")
    last = sorted(f for f in os.listdir(published) if f.startswith("scores-"))[-1]
    with open(os.path.join(published, last)) as f:
        ases = [row.split(",")[0] for row in f.read().splitlines()[1:] if row]
    rng = random.Random(seed)
    kinds = [["info"], ["latest-cdf"], ["fraction-trend"], ["jumps"],
             ["churn"], ["series", "--asn"]]
    query_ms = []
    for i in range(size["queries"]):
        kind = list(kinds[i % len(kinds)])
        if kind[-1] == "--asn":
            kind.append(rng.choice(ases))
        # wait() without a timeout blocks in waitpid; with one, Python polls
        # with doubling sleeps, which rounds a 3 ms query up to 7 ms.
        t = time.perf_counter()
        query = subprocess.Popen([CLI, "analyze", "--archive", archive,
                                  "--query", *kind], stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, query.kill)
        watchdog.start()
        returncode = query.wait()
        query_ms.append((time.perf_counter() - t) * 1000.0)
        watchdog.cancel()
        if returncode != 0:
            raise GateError("analyze --query " + kind[0] + " failed")

    metrics = {
        "setup_s": median(setups), "peak_rss_mb": median(rss),
        "round_ms_p10": median(p10s),
        "query_ms_p50": percentile(query_ms, 0.50),
    }
    attempted = rep * rounds + len(setups) + len(query_ms)
    runs = {"series_runs": rep, "setup_samples": len(setups),
            "queries": len(query_ms), "wall_s": walls}
    return metrics, attempted, 0, runs


def run_serve_publishing(size, seed, seconds, work, reference, children):
    rounds = size["rounds"]
    d = os.path.join(work, "serve")
    os.makedirs(d)
    server = Child(serve_argv(rounds, d), os.path.join(d, "stderr.txt"))
    children.append(server)
    deadline = server.t0 + CHILD_TIMEOUT_S
    port = None
    while port is None:
        _, line = server.next_line(deadline)
        if line is None:
            raise GateError("serve exited before LISTENING")
        if line.startswith("LISTENING "):
            port = line.split()[1]
    paths = {k: os.path.join(d, k) for k in ("records.csv", "unknown.csv",
                                             "load.json")}
    driver = Child([NATIVE, "load", "--port", port,
                    "--world-seed", str(WORLD_SEED), "--seed", str(seed),
                    "--records", paths["records.csv"],
                    "--unknown", paths["unknown.csv"],
                    "--json", paths["load.json"]],
                   os.path.join(d, "driver-stderr.txt"), stdin=subprocess.PIPE)
    children.append(driver)
    if driver.next_line(deadline)[1] != "READY":
        raise GateError("load driver did not start")

    def tell(word):
        try:
            driver.proc.stdin.write(word + "\n")
            driver.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            pass  # the load driver already stopped on its safety limit

    stop_round = max(1, int(rounds * STOP_SHARE))
    stamps = []
    published_at = None
    while published_at is None:
        t, line = server.next_line(deadline)
        if line is None:
            raise GateError("serve exited before PUBLISHED")
        if line.startswith("ROUND "):
            stamps.append(t)
            if len(stamps) == 1:
                tell("go")
            if len(stamps) == stop_round:
                tell("stop")
        elif line.startswith("PUBLISHED "):
            published_at = t
    tell("stop")
    try:
        driver.proc.stdin.close()
    except BrokenPipeError:
        pass
    server.proc.send_signal(signal.SIGTERM)
    if server.wait() != 0:
        raise GateError("serve exited with " + str(server.proc.returncode))
    while driver.next_line(deadline)[1] is not None:
        pass
    if driver.wait() != 0:
        raise GateError("load driver exited with " + str(driver.proc.returncode))
    with open(paths["load.json"]) as f:
        load = json.load(f)

    published = os.path.join(d, "published")
    if len(stamps) != rounds:
        raise GateError(f"serve printed {len(stamps)} ROUND lines")
    if tree_digest(published) != reference["published"]:
        raise GateError("served dataset differs from the reference digest")
    check = subprocess.run([CLI, "feedcheck", "--record", paths["records.csv"],
                            "--published", published], capture_output=True,
                           text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if check.returncode != 0:
        raise GateError("feedcheck: " + check.stderr.strip())
    # The driver asks only for ASNs the server listed as scored, so a
    # server answering UNKNOWN_AS to most SCOREs would otherwise pass
    # feedcheck on a near-empty record file.
    if not load["enough_scores"] or load["score_records"] == 0:
        raise GateError(f"only {load['score_ok']} of {load['score_sent']} "
                        "SCORE requests came back OK")
    mismatches = unknown_mismatches(paths["unknown.csv"], published)

    setups = [stamps[0] - server.t0]
    k = 0
    while len(setups) < size["setups"]:
        sd = os.path.join(work, f"setup{k}")
        setups.append(time_to_first_round(
            serve_argv(1, sd), sd,
            lambda line: line.startswith("ROUND "), children, terminate=True))
        k += 1

    # Round gaps only while the load ran: from the first ROUND line, when
    # the driver is told to go, to the one that stops it.
    loaded = stamps[:stop_round]
    gaps = [(b - a) * 1000.0 for a, b in zip(loaded, loaded[1:])]
    metrics = {
        "setup_s": median(setups), "peak_rss_mb": server.peak_rss_mb,
        "round_ms_p10": percentile(gaps, 0.10),
        "query_ms_p50": load["p50_ms"],
    }
    failed = load["unexpected"] + load["transport_errors"] + mismatches
    runs = {"setup_samples": len(setups), "wall_s": published_at - server.t0,
            "load": load}
    return metrics, max(1, load["sent"]), failed, runs


def unknown_mismatches(path, published):
    """UNKNOWN_AS answers whose AS the published round for that date does
    score, or whose date has no published round."""
    scored = {}
    bad = 0
    with open(path) as f:
        for row in f.read().splitlines()[1:]:
            date, asn = row.split(",")
            if date not in scored:
                name = os.path.join(published, f"scores-{date}.csv")
                scored[date] = None
                if os.path.isfile(name):
                    with open(name) as g:
                        scored[date] = {r.split(",")[0]
                                        for r in g.read().splitlines()[1:]}
            bad += scored[date] is None or asn in scored[date]
    return bad


def run_traced(workload, size, work, reference, args):
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    trace_path = os.path.join(BUILD, "traces",
                              f"{workload}-seed{args.seed}.json")
    threads = SERIES_THREADS if workload == "daily-series" else SERVE_THREADS
    r = subprocess.run([NATIVE, "trace", "--workload", workload,
                        "--world-seed", str(WORLD_SEED),
                        "--seed", str(args.seed),
                        "--rounds", str(size["rounds"]),
                        "--threads", str(threads),
                        "--work-dir", os.path.join(work, "traced"),
                        "--trace-out", trace_path],
                       capture_output=True, text=True, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise GateError("traced run printed nothing: " + r.stderr.strip())
    result = json.loads(lines[-1])
    if not result["ok"]:
        raise GateError("traced run: " + result.get("error", "failed"))
    if tree_digest(os.path.join(work, "traced", "published")) != reference["published"]:
        raise GateError("traced series differs from the reference digest")
    if set(result["metrics"]) != set(PER_LAYER):
        raise GateError("traced run reported other metrics than PER_LAYER")
    runs = {"trace_file": os.path.relpath(trace_path, ROOT)}
    return (result["metrics"], int(result["attempted"]), int(result["failed"]),
            runs)


def run_one(args, size, reference_path):
    reference = load_reference(reference_path, size)
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    children = []
    try:
        if args.trace:
            metrics, attempted, failed, runs = run_traced(
                args.workload, size, work, reference, args)
            units = PER_LAYER
        else:
            run = (run_daily_series if args.workload == "daily-series"
                   else run_serve_publishing)
            metrics, attempted, failed, runs = run(
                size, args.seed, args.seconds, work, reference, children)
            units = END_TO_END
        correct = failed == 0
    except GateError as e:
        log(f"perfbench: {args.workload}: output gate failed: {e}")
        metrics, units, runs = {}, {}, {}
        attempted, failed, correct = 1, 1, False
    finally:
        stop_all(children)
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "provenance": provenance(args, size, runs),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=2)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    return record


def record_references(path):
    """Run the CLI series on the benchmark's world, at both sizes, and
    store the digests the gates compare against."""
    ref = {}
    for size in (FULL, SMOKE):
        d = os.path.join(BUILD, "work", "reference")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        subprocess.run(series_argv(size["rounds"], d), check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        ref[size["name"]] = {str(WORLD_SEED): {
            "series_csv": file_digest(os.path.join(d, "series.csv")),
            "published": tree_digest(os.path.join(d, "published")),
        }}
        shutil.rmtree(d)
        log(f"recorded {size['name']} world {WORLD_SEED}")
    with open(path, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload, both modes, at a tiny size")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference digests (default perfbench/reference.json)")
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args()

    build()
    if args.record_references:
        record_references(args.reference)
        return 0
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                sub = argparse.Namespace(**{**vars(args), "workload": workload,
                                            "trace": trace, "seconds": 2.0})
                ok &= run_one(sub, SMOKE, args.reference)["correct"]
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required")
    record = run_one(args, FULL, args.reference)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
