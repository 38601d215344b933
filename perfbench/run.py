#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the csserve stack.

    python3 perfbench/run.py --workload hot_memo --seed 1 --seconds 10 --trace 0

Builds csserve and the harness from the checkout (first run only), then:

  --trace 0  times the workload end to end.  Set-up (server start plus
             warm-up) is repeated SETUP_REPS times and its median reported;
             the last server then takes an open loop at the workload's fixed
             rate (latency from each request's intended send time) and a
             closed loop over two connections (throughput).
  --trace 1  reports the per-layer metrics: a server started with
             --metrics-out (stage histograms in the `stats` verb), an
             untraced server for the tracing overhead, and the harness's
             in-process replay through each layer's public functions.

Every phase reports operations attempted, succeeded and failed; sampled
answers are checked against direct in-process solves.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Each run
also leaves a record under .bench_build/perfbench-out/ for compare.py.
"""
import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
HARNESS = BUILD / "pb_harness"
CSSERVE = BUILD / "cyclesteal" / "tools" / "csserve"

# Open-loop rate per workload, requests/s over both connections: a sixth
# to a third of the closed-loop throughput on a 4-CPU host (at half,
# zipf_drift's median waits behind cold solves and swings +-30% from run to
# run).  Fixed here, never re-derived per run, so a faster build shows as
# lower latency at the same offered load.
OPEN_RATE = {"hot_memo": 16000.0, "cold_unique": 350.0, "zipf_drift": 3300.0}
# Statistics window: figures come from the windows with little host steal,
# so a stall of the host moves a window, not the figure.
# cold_unique's windows are longer because its requests cost 0.1-10 ms each.
WINDOW_S = {"hot_memo": 0.5, "cold_unique": 2.0, "zipf_drift": 0.5}
CLOSED_SHARE = 0.4  # of --seconds; the open loop takes the rest
SETUP_REPS = 3

# The server runs on one half of the CPUs and the harness on the other, so
# the load generator never takes the server's CPUs and thread placement is
# the same in every run.  Without this, back-to-back runs of one zipf_drift
# seed differed by up to 40% in throughput on a 4-CPU host.  Within each
# half, every server thread (Server.pin_threads) and every connection thread
# of the harness gets one CPU of its own.  The in-process
# replay (`layers`) runs while no server is up and gets every CPU, so its
# 4-worker steal farm is not squeezed onto half of them.
ALL_CPUS = set(os.sched_getaffinity(0))
_CPUS = sorted(ALL_CPUS)
SERVER_CPUS = set(_CPUS[:len(_CPUS) // 2] or _CPUS)
HARNESS_CPUS = set(_CPUS[len(_CPUS) // 2:])


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no cyclesteal sources next to perfbench/ (expected %s)" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "perfbench-build.log"
    steps = []
    if not (BUILD / "build.ninja").is_file() and not (BUILD / "Makefile").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "csserve", "pb_harness",
                  "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]), build_log))


def harness(*args, timeout=170, cpus=HARNESS_CPUS):
    res = subprocess.run([str(HARNESS), *map(str, args)], capture_output=True, text=True,
                         timeout=timeout,
                         preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if res.returncode != 0:
        raise RuntimeError("pb_harness %s failed: %s" % (args[0], res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


def cmake_build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.is_file() else []:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def host_context():
    with open("/proc/stat") as stat:
        ticks = [int(x) for x in stat.readline().split()[1:]]
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "cpu_ticks": ticks}


def steal_frac(start, end):
    """Share of CPU time the hypervisor gave to other guests during the run."""
    delta = [b - a for a, b in zip(start["cpu_ticks"], end["cpu_ticks"])]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


class Server:
    """A csserve child on an ephemeral port."""

    def __init__(self, flags, metrics_out=None):
        cmd = [str(CSSERVE), "--port", "0", *flags]
        if metrics_out:
            cmd += ["--metrics-out", str(metrics_out)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True,
                                     preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        self.port = None
        deadline = time.monotonic() + 10.0
        while self.port is None:
            left = deadline - time.monotonic()
            ready = select.select([self.proc.stderr], [], [], max(0.0, left))[0]
            line = self.proc.stderr.readline() if ready else ""
            if not line:
                self.stop()
                raise RuntimeError("csserve did not start")
            if "listening on" in line:
                self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        try:
            self.pin_threads()
        except Exception:
            self.stop()
            raise

    def pin_threads(self):
        """Pin each server thread to one CPU of SERVER_CPUS, in creation order.

        csserve creates its solver workers, then its loop threads, all before
        it prints its port.  Dealt out in turn, the loop threads get a CPU
        each, and so do the workers: the same placement in every run.
        """
        cpus = sorted(SERVER_CPUS)
        tids = sorted(int(t) for t in os.listdir("/proc/%d/task" % self.proc.pid))
        for i, tid in enumerate(t for t in tids if t != self.proc.pid):
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for csserve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


class Ledger:
    """Operations attempted / failed per phase."""

    def __init__(self):
        self.phases = []

    def add(self, name, counts):
        attempted, failed = int(counts["attempted"]), int(counts["failed"])
        self.phases.append({"phase": name, "attempted": attempted, "failed": failed,
                            "failures": counts.get("failures", [])})
        log("phase %-14s attempted=%d succeeded=%d failed=%d"
            % (name, attempted, attempted - failed, failed))
        for why in counts.get("failures", []):
            log("  failure: " + why)

    @property
    def attempted(self):
        return sum(p["attempted"] for p in self.phases)

    @property
    def failed(self):
        return sum(p["failed"] for p in self.phases)


def start_and_warm(workload, seed, flags, ledger, tag, metrics_out=None):
    """Server start plus warm-up; returns (server, seconds)."""
    t0 = time.perf_counter()
    server = Server(flags, metrics_out)
    try:
        warm = harness("warm", "--workload", workload, "--seed", seed, "--port", server.port)
    except Exception:
        server.stop()
        raise
    elapsed = time.perf_counter() - t0
    ledger.add(tag, warm)
    return server, elapsed


def run_load(workload, seed, server, seconds, ledger, tag, open_loop=True):
    closed_s = seconds * CLOSED_SHARE if open_loop else seconds
    open_s = seconds - closed_s if open_loop else 0.0
    res = harness("load", "--workload", workload, "--seed", seed, "--port", server.port,
                  "--closed-s", closed_s, "--open-s", open_s, "--rate", OPEN_RATE[workload],
                  "--window-s", WINDOW_S[workload],
                  timeout=seconds + 120)
    ledger.add(tag + ".closed", res["closed"])
    if open_loop:
        ledger.add(tag + ".open", res["open"])
    ledger.add(tag + ".check", res["checks"])
    return res


def metric(value, unit):
    return {"value": value, "unit": unit}


def stats_delta(before, after, path):
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return a - b


def shard_sum(stats, key):
    return sum(v[key] for k, v in stats.items() if k.startswith("shard"))


def tier_counts(*parts):
    names = ("memo", "lru", "atlas", "cold")
    return {t: sum(p[t] for p in parts) for t in names}


def timed_run(workload, seed, seconds, ledger, flags):
    setups = []
    server = None
    for rep in range(SETUP_REPS):
        if server is not None:
            server.stop()
        server, elapsed = start_and_warm(workload, seed, flags, ledger, "setup#%d" % rep)
        setups.append(elapsed)
    try:
        res = run_load(workload, seed, server, seconds, ledger, "load")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_rps": metric(res["closed"]["throughput_rps"], "1/s"),
        "p50_us": metric(res["open"]["p50_us"], "us"),
        "peak_rss_mb": metric(rss, "MB"),
    }, {"setup_s_all": setups, "tiers": res["closed"]["tiers"],
        "open_latencies": res["open"]["latencies"], "p99_us": res["open"]["p99_us"],
        "throughput_total_rps": res["closed"]["throughput_total_rps"],
        "late_p99_us": res["open"]["late_p99_us"],
        "closed_windows": {"rps": res["closed"]["window_rps"],
                           "steal": res["closed"]["window_steal"]},
        "open_windows": {"p50_us": res["open"]["window_p50_us"],
                         "steal": res["open"]["window_steal"]}}


def traced_run(workload, seed, seconds, ledger, flags):
    OUT.mkdir(parents=True, exist_ok=True)
    registry = OUT / ("registry-%s-%d.json" % (workload, seed))
    registry.unlink(missing_ok=True)
    server, _ = start_and_warm(workload, seed, flags, ledger, "setup.traced", registry)
    try:
        res = run_load(workload, seed, server, seconds, ledger, "load.traced")
    finally:
        server.stop()
    batch = next((m for m in json.loads(registry.read_text())
                  if m["name"] == "net.batch_size"), None)

    # The same open-then-closed sequence on a server without observability,
    # so both closed loops meet the same cache, memo and atlas state: the
    # gap between them is the cost of tracing.
    server, _ = start_and_warm(workload, seed, flags, ledger, "setup.untraced")
    try:
        plain = run_load(workload, seed, server, seconds, ledger, "load.untraced")
    finally:
        server.stop()

    layers = harness("layers", "--workload", workload, "--seed", seed,
                     "--spans-out", OUT / ("spans-%s-%d.jsonl" % (workload, seed)),
                     cpus=ALL_CPUS)
    ledger.add("layers", layers["checks"])

    before, after = res["stats_before"], res["stats_after"]
    stage = lambda name, q: after["stage_" + name][q]  # noqa: E731
    memo_lookups = shard_sum(after, "memo_lookups") - shard_sum(before, "memo_lookups")
    memo_hits = shard_sum(after, "memo_hits") - shard_sum(before, "memo_hits")
    closed_tiers = res["closed"]["tiers"]
    answered = sum(closed_tiers.values())
    responses = tier_counts(res["closed"]["tiers"], res["open"]["tiers"])
    rollup_lru = stats_delta(before, after, ("tiers", "lru"))
    mismatch = rollup_lru != responses["lru"]
    if mismatch:
        log("rollup mismatch: stats `tiers` rollup lru=%d, responses' tier field lru=%d"
            % (rollup_lru, responses["lru"]))
    out = {
        "server.parse_p50_us": stage("parse", "p50_us"),
        "server.flush_p50_us": stage("flush", "p50_us"),
        "server.batch_size_mean": batch["sum"] / batch["count"] if batch and batch["count"] else 0.0,
        "server.memo_hit_frac": memo_hits / memo_lookups if memo_lookups else 0.0,
        "server.queue_wait_p50_us": stage("queue_wait", "p50_us"),
        "server.queue_wait_p99_us": stage("queue_wait", "p99_us"),
        "server.solve_p50_us": stage("solve", "p50_us"),
        "server.shed": stats_delta(before, after, ("shed",)),
        "server.timeouts": stats_delta(before, after, ("timeouts",)),
    }
    for key in ("solves", "evictions", "coalesced"):
        out["engine." + key] = stats_delta(before, after, ("engine", key))
    for t in ("memo", "lru", "atlas", "cold"):
        out["tier.%s_frac" % t] = closed_tiers[t] / answered if answered else 0.0
    out["tier.rollup_lru"] = rollup_lru
    out["tier.response_lru"] = responses["lru"]
    out["tier.rollup_mismatch"] = 1 if mismatch else 0
    out.update(layers["metrics"])
    traced_tput = res["closed"]["throughput_rps"]
    plain_tput = plain["closed"]["throughput_rps"]
    out["loadgen.p99_us"] = res["open"]["p99_us"]
    out["loadgen.late_p99_us"] = res["open"]["late_p99_us"]
    out["loadgen.trace_overhead_frac"] = 1.0 - traced_tput / plain_tput if plain_tput else 0.0
    return {k: metric(v, unit_of(k)) for k, v in out.items()}, {
        "traced_throughput_rps": traced_tput, "untraced_throughput_rps": plain_tput,
        "rollup_tiers": after["tiers"], "response_tiers": responses}


def unit_of(name):
    leaf = name.split(".")[1] if "." in name else name
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_s", "s"), ("_frac", "ratio"),
                         ("_rate", "ratio"), ("_mean", "count")):
        if leaf.endswith(suffix):
            return unit
    if leaf.startswith("p_evals"):
        return "count"
    if leaf in ("served_per_cell", "attempts_per_task", "work_per_vtime"):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPEN_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    host_start = host_context()
    build()
    info = harness("info")
    build_type = cmake_build_type()
    if info["build_type"] != "optimized" or build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing to measure a non-optimised build (harness: %s, CMAKE_BUILD_TYPE=%r)"
             % (info["build_type"], build_type))
    flags = harness("flags", "--workload", args.workload)["flags"]
    log("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d loadavg=%s build=%s"
        % (args.workload, args.seed, args.seconds, args.trace, host_start["nproc"],
           host_start["loadavg"], build_type))

    ledger = Ledger()
    run = traced_run if args.trace else timed_run
    metrics, detail = run(args.workload, args.seed, args.seconds, ledger, flags)
    host_end = host_context()
    log("perfbench: loadavg at end %s" % host_end["loadavg"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "build_type": build_type, "nproc": host_start["nproc"],
        "loadavg_start": host_start["loadavg"], "loadavg_end": host_end["loadavg"],
        "steal_frac": steal_frac(host_start, host_end),
        "open_rate": OPEN_RATE[args.workload], "phases": ledger.phases, "detail": detail,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1))
    log("host: " + json.dumps({k: record[k] for k in (
        "nproc", "loadavg_start", "loadavg_end", "steal_frac", "build_type")}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
