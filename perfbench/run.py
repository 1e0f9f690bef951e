#!/usr/bin/env python3
"""The repository benchmark: builds the scheduler from this checkout and
measures one workload end to end (or, with --trace 1, layer by layer).

    python3 perfbench/run.py --workload http-single --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds into .bench_build/, prints
a human-readable table, and ends its standard output with one JSON line
{"correct", "attempted", "failed", "metrics"}. It exits non-zero, without
that line, when it cannot build or run the program. See README.md for
the workloads and every metric.
"""

import argparse
import array
import ctypes
import io
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
from benchlib import BenchError, percentile  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")

# Offered loads are sized for a 4-CPU machine on which the daemon's own
# threads (HTTP server, two shard workers, profiler, health monitor)
# share the CPUs with the generator. `time_scale` sets the daemon's
# virtual execution so its 8 virtual cores stay about 70% busy at the
# offered task rate (rate x share of submits x tasks x time_scale ~ 3.0),
# keeping queue depth steady instead of growing with run length.
WORKLOADS = {
    "http-single": {
        "kind": "http", "rate": 4000, "tasks": 1, "time_scale": 7.5e-4,
    },
    "http-batch64": {
        "kind": "http", "rate": 625, "tasks": 64, "time_scale": 7.5e-5,
    },
    "http-mixed": {
        "kind": "http", "rate": 3000, "tasks": 1, "time_scale": 2e-3,
        "w_submit": 0.5, "w_schedule": 0.2, "w_trace": 0.2, "w_healthz": 0.1,
        "metrics_period": 1.0, "health_period": 0.25,
    },
    # Trace shape and core count live in reference.json beside the
    # costs recorded for them.
    "sim-judgegirl": {"kind": "sim"},
}

WARMUP_S = 1.0
# Per-shard admission ring slots of the daemon. POST /submit answers once
# its tasks are in a ring, and the shards place them later; a closed-loop
# client that outruns placement by more than ~33 000 tasks/s fills both
# rings within SATURATE_SKIP_S, after which the accepted rate is the
# shards' placement rate. They still hold the open-loop phase's
# ~20 000 tasks/s per shard through a stall of 0.8 s.
RING_CAPACITY = 16384
# An untraced HTTP run spends this share of --seconds in the closed-loop
# saturation phase and the rest in the open loop. The host's speed drifts
# by about 10% over a few seconds, so each phase must span several such
# stretches for its median to settle.
SATURATE_SHARE = 0.4
# The saturation rate is the median over windows of this many seconds,
# from SATURATE_SKIP_S into the phase (once the rings would have filled)
# to its end.
SATURATE_SKIP_S = 1.0
SATURATE_WINDOW_S = 0.1
# Latency percentiles are taken per window of this many seconds of the
# measured phase (http-mixed scrapes /metrics once per window), and the
# lower quartile across windows is reported (benchlib.lower_quartile).
LATENCY_WINDOW_S = 1.0
DAEMON_SETUPS = 9
SIM_SETUPS = 5
# The generator has fallen behind when it started a tenth of its
# requests this late or later (its own lateness, see
# benchlib.generator_lag); such a phase is invalid, not a server slowdown.
# Rarer lateness is host noise that hits the daemon alike; its p99 reaches
# 0.7 ms in undisturbed http-batch64 runs.
MAX_LAG_P90_MS = 1.0

# A phase whose generator fell behind is discarded and repeated, at most
# this many times in all, before the benchmark gives up.
PHASE_ATTEMPTS = 4


def metric_spec(kind):
    """(name, unit, better) of every `end_to_end` or `per_layer` metric,
    from BENCHMARK.json at the checkout root."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.py's")
    return [(m["name"], m["unit"], m["better"]) for m in spec[kind]]


def cpu_times():
    """The machine's aggregate CPU time counters from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before, after):
    """Share of all CPU time between two cpu_times() readings that the
    hypervisor gave to other guests (the 8th field, steal)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta)) if len(delta) > 7 else 0.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures and builds the tools plus the benchmark's own binaries;
    on an up-to-date tree both steps take a few seconds."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(BUILD_DIR, "build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR],
             ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]]
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logfile) as f:
                    log(f.read()[-4000:])
                raise SystemExit("build failed: %s" % " ".join(cmd))


def tool(name):
    return os.path.join(BUILD_DIR, "dvfs", "tools", name)


def bench_bin(name):
    return os.path.join(BUILD_DIR, name)


# -------------------------------------------------------------- processes

def cpu_split():
    """Server CPUs and generator CPUs: the generator gets one CPU of its
    own so its polling never competes with the daemon's threads."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def child_setup(cpus, idle=False):
    """Runs in each child before exec: pin it, and have the kernel kill
    it if this process dies first, so no child outlives the benchmark."""
    def setup():
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        os.sched_setaffinity(0, cpus)
        if idle:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    return setup


class CpuFillers:
    """One SCHED_IDLE loop of sched_yield() per CPU for the duration of a
    run.

    On a virtual machine an idle vCPU halts, and waking it for the next
    request costs a trip through the host scheduler whose delay depends on
    other tenants' load: on a shared 4-vCPU virtual machine that showed as
    5-30% CPU steal and HTTP latency that varied tenfold between runs.
    A SCHED_IDLE loop keeps every vCPU running without taking CPU from
    any normal thread (the kernel preempts it at once on a wake-up), so
    wake-ups stay inside the guest and the figures measure the program.
    It yields rather than spins so that a daemon thread that itself
    spins on sched_yield() gets the CPU straight back instead of waiting
    for the next scheduler tick."""

    def __enter__(self):
        loop = "import os\nwhile True: os.sched_yield()"
        self.procs = [subprocess.Popen([sys.executable, "-c", loop],
                                       preexec_fn=child_setup([cpu], idle=True))
                      for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


class Proc:
    """A child with its stdout on a pipe; stop() always reaps it."""

    def __init__(self, cmd, cpus, stdin=None):
        self.p = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, stdin=stdin,
                                  preexec_fn=child_setup(cpus))
        self.out = b""
        self.rusage = None

    def read_until(self, pattern, timeout):
        deadline = time.monotonic() + timeout
        fd = self.p.stdout.fileno()
        while True:
            m = re.search(pattern, self.out)
            if m is not None:
                return m
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("timed out waiting for %r" % pattern)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError("process exited: %r" % self.out[-500:])
                self.out += chunk

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def wait(self, timeout, sig=None):
        """Sends `sig` (if any), then reaps the child within `timeout`
        seconds (killing it past that), collecting its output and rusage.
        Returns the exit code."""
        if self.rusage is None:
            if sig is not None:
                self.p.send_signal(sig)
            fd = self.p.stdout.fileno()
            deadline = time.monotonic() + timeout
            try:
                while True:
                    pid, status, rusage = os.wait4(self.p.pid, os.WNOHANG)
                    if pid != 0:
                        break
                    if time.monotonic() > deadline:
                        self.p.kill()
                        deadline = time.monotonic() + 5
                    ready, _, _ = select.select([fd], [], [], 0.005)
                    if ready:
                        self.out += os.read(fd, 65536)
            except BaseException:  # interrupted: do not leave it running
                self.p.kill()
                os.waitpid(self.p.pid, 0)
                raise
            self.p.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = rusage
            self.out += self.p.stdout.read()
            self.p.stdout.close()
        return self.p.returncode

    def stop(self, sig=signal.SIGTERM):
        return self.wait(30.0, sig)


def http_get(port, path, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" % path).encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode()


def launch_daemon(w, cpus):
    """Starts a fresh `dvfs_execute --serve`; returns (proc, port, set-up
    seconds from launch until it answered its first request)."""
    cmd = [tool("dvfs_execute"), "--serve", "--listen", "127.0.0.1:0",
           "--shards", "2", "--cores", "8", "--ring-capacity", str(RING_CAPACITY),
           "--time-scale", repr(w["time_scale"])]
    if "health_period" in w:
        cmd += ["--health-period", repr(w["health_period"])]
    t0 = time.perf_counter()
    proc = Proc(cmd, cpus)
    try:
        port = int(proc.read_until(rb"on port (\d+)", 30).group(1))
        http_get(port, "/healthz")
    except Exception:
        proc.stop(signal.SIGKILL)
        raise
    return proc, port, time.perf_counter() - t0


# --------------------------------------------------------------- HTTP run

def read_requests(run_dir):
    cols = ("phase", "kind", "status", "due", "eligible", "start",
            "connected", "written", "first_byte", "done", "first_id", "tasks")
    recs = []
    with open(os.path.join(run_dir, "requests.tsv")) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            rec = dict(zip(cols, parts))
            for k in cols[2:]:
                rec[k] = int(rec[k])
            recs.append(rec)
    with open(os.path.join(run_dir, "bodies.bin"), "rb") as f:
        blob = f.read()
    pos = 0
    for rec in recs:
        nl = blob.index(b"\n", pos)
        _, length = blob[pos:nl].split()
        start = nl + 1
        rec["body"] = blob[start:start + int(length)].decode("utf-8", "replace")
        pos = start + int(length) + 1
    return recs


def stream_args(w, seed, warmup, seconds):
    """The request stream's flags, shared by both binaries (src/inputs.h)."""
    return ["--seed", str(seed), "--rate", repr(w["rate"]),
            "--tasks", str(w["tasks"]),
            "--w-submit", repr(w.get("w_submit", 1.0)),
            "--w-schedule", repr(w.get("w_schedule", 0.0)),
            "--w-trace", repr(w.get("w_trace", 0.0)),
            "--w-healthz", repr(w.get("w_healthz", 0.0)),
            "--metrics-period", repr(w.get("metrics_period", 0.0)),
            "--warmup", repr(warmup), "--seconds", repr(seconds)]


def loadgen_cmd(w, port, seed, warmup, seconds, sat_s, out_dir, first_id=1):
    return ([bench_bin("perfbench_loadgen"), "--port", str(port)]
            + stream_args(w, seed, warmup, seconds)
            + ["--sat-seconds", repr(sat_s), "--first-id", str(first_id),
               "--out", out_dir])


def run_loadgen(cmd, cpus, timeout):
    proc = Proc(cmd, cpus)
    if proc.wait(timeout) != 0:
        raise BenchError("load generator failed: %r" % proc.out[-500:])


def analyze_http(recs, check_bodies=True):
    """Checks every response and computes the run's figures."""
    accepted = 0
    rejected = 0
    failed = 0
    first_error = None
    for r in recs:
        try:
            if r["status"] < 0:
                raise BenchError("%s transport failure %d" % (r["kind"], r["status"]))
            if check_bodies:
                a, j = benchlib.check_response(r["kind"], r["status"], r["body"],
                                               r["tasks"], r["phase"] == "s")
                r["accepted"] = a
                accepted += a
                rejected += j
        except BenchError as e:
            failed += 1
            first_error = first_error or str(e)
    measured = [r for r in recs if r["phase"] == "m" and r["kind"] != "metrics"]
    open_loop = [r for r in recs if r["phase"] in "wm"]
    res = {
        "attempted": len(recs), "failed": failed, "first_error": first_error,
        "accepted": accepted, "rejected": rejected,
        "latency_ms": [x / 1e6 for x in benchlib.co_latencies(measured)],
        "lag_ms": [x / 1e6 for x in benchlib.generator_lag(open_loop)],
        "measured": measured,
    }
    sat = [r for r in recs if r["phase"] == "s"]
    if sat and check_bodies:
        res["sat_windows"] = benchlib.window_rates(
            [(r["done"], r.get("accepted", 0)) for r in sat],
            min(r["start"] for r in sat) + int(SATURATE_SKIP_S * 1e9),
            SATURATE_WINDOW_S)
        res["sat_tasks_per_s"] = statistics.median(res["sat_windows"])
    return res


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def http_phase(w, seed, seconds, run_dir, sat_s):
    """One fresh daemon under the workload's traffic, checked end to end:
    the open-loop phase, then (after reading its memory high-water mark)
    the closed-loop saturation phase."""
    server_cpus, gen_cpus = cpu_split()
    setups = []
    for _ in range(DAEMON_SETUPS - 1):
        proc, _, s = launch_daemon(w, server_cpus)
        proc.stop()
        setups.append(s)
    proc, port, s = launch_daemon(w, server_cpus)
    setups.append(s)
    try:
        run_loadgen(loadgen_cmd(w, port, seed, WARMUP_S, seconds, 0, run_dir),
                    gen_cpus, seconds + 120)
        recs = read_requests(run_dir)
        rss_mb = vm_hwm_mb(proc.p.pid)
        next_id = 1 + sum(r["tasks"] for r in recs if r["kind"] == "submit")
        run_loadgen(loadgen_cmd(w, port, seed, 0, 0, sat_s, run_dir, next_id),
                    gen_cpus, sat_s + 120)
        recs += read_requests(run_dir)
        res = analyze_http(recs)
        # Every accepted task must reach a placement: poll the counters
        # (exact values, not histograms) until the shards have caught up.
        deadline = time.monotonic() + 20
        while True:
            status, text = http_get(port, "/metrics")
            prom = benchlib.parse_prometheus(text)
            submitted = benchlib.metric_sum(prom, "dvfs_svc_submitted_total")
            placed = benchlib.metric_sum(prom, "dvfs_svc_placed_total")
            stolen = benchlib.metric_sum(prom, "dvfs_svc_stolen_tasks_total")
            if status == 200 and placed >= submitted + stolen:
                break
            if time.monotonic() > deadline:
                raise BenchError("placed %d of %d submitted" % (placed, submitted))
            time.sleep(0.05)
        if submitted != res["accepted"]:
            raise BenchError("svc_submitted_total %d, generator saw %d accepted"
                             % (submitted, res["accepted"]))
        res["prof_samples"] = benchlib.metric_sum(prom, "dvfs_obs_prof_samples_total")
        res["prof_dropped"] = benchlib.metric_sum(prom, "dvfs_obs_prof_dropped_total")
        res["cpu_s"] = proc.cpu_seconds()
    finally:
        proc.stop()
    benchlib.check_drained(proc.out.decode(), res["accepted"], res["rejected"])
    res["setup_s"] = statistics.median(setups)
    res["peak_rss_mb"] = rss_mb
    return res


def noop_phase(w, seed, seconds, run_dir):
    """The same request stream against obs::MetricsHttpServer serving
    no-op routes: the HTTP layer's own round trip."""
    server_cpus, gen_cpus = cpu_split()
    proc = Proc([bench_bin("perfbench_layers"), "noop"], server_cpus,
                stdin=subprocess.PIPE)
    try:
        port = int(proc.read_until(rb"port (\d+)", 30).group(1))
        run_loadgen(loadgen_cmd(w, port, seed, WARMUP_S, seconds, 0, run_dir),
                    gen_cpus, seconds + 120)
        res = analyze_http(read_requests(run_dir), check_bodies=False)
    finally:
        proc.p.stdin.close()
        proc.wait(30)
    rtt = [(r["done"] - r["start"]) / 1e3 for r in res["measured"]
           if r["kind"] == "submit"]
    return res, rtt


def run_layers(args, run_dir, timeout=170):
    cmd = [bench_bin("perfbench_layers")] + args + ["--out", run_dir]
    proc = Proc(cmd, sorted(os.sched_getaffinity(0)))
    if proc.wait(timeout) != 0:
        raise BenchError("layer harness failed: %r" % proc.out[-500:])
    with open(os.path.join(run_dir, "layers.json")) as f:
        scalars = json.load(f)

    def samples(name):
        a = array.array("Q")
        with open(os.path.join(run_dir, name + ".u64"), "rb") as f:
            a.frombytes(f.read())
        return list(a)
    return scalars, samples


def checked_phase(*args, **kwargs):
    """http_phase() whose generator kept up; see MAX_LAG_P90_MS."""
    for attempt in range(1, PHASE_ATTEMPTS + 1):
        res = http_phase(*args, **kwargs)
        try:
            lag_check(res)
            return res
        except BenchError as e:
            if attempt == PHASE_ATTEMPTS:
                raise
            log("%s; repeating the phase" % e)


def lag_check(res):
    lag_p90 = percentile(res["lag_ms"], 0.9)
    if lag_p90 > MAX_LAG_P90_MS:
        raise BenchError("generator fell behind: lag p90 %.3f ms > %.1f ms; "
                         "run invalid" % (lag_p90, MAX_LAG_P90_MS))


def latency_windows(seconds):
    return max(1, int(round(seconds / LATENCY_WINDOW_S)))


def http_end_to_end(w, seed, seconds, run_dir):
    sat_s = max(SATURATE_SKIP_S + 1.0, seconds * SATURATE_SHARE)
    seconds = max(LATENCY_WINDOW_S, seconds - sat_s)
    res = checked_phase(w, seed, seconds, run_dir, sat_s)
    lat = res["latency_ms"]
    windows = latency_windows(seconds)
    p50s = benchlib.window_quantiles(lat, 0.5, windows)
    p90s = benchlib.window_quantiles(lat, 0.9, windows)
    metrics = {
        "setup_s": res["setup_s"],
        "latency_p50_ms": benchlib.lower_quartile(p50s),
        "latency_p90_ms": benchlib.lower_quartile(p90s),
        "tasks_per_s": res["sat_tasks_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"samples": len(lat), "windows": {"p50": p50s, "p90": p90s},
             "sat_windows": res["sat_windows"],
             "first_error": res["first_error"],
             "lag_p99_ms": percentile(res["lag_ms"], 0.99)}
    by_kind = {}
    for r in res["measured"]:
        by_kind.setdefault(r["kind"], []).append((r["done"] - r["due"]) / 1e6)
    notes["by_kind"] = by_kind
    return metrics, res["attempted"], res["failed"], notes


def http_layer_suite(w, seed, seconds, run_dir):
    """Per-layer figures for an HTTP request stream: a daemon phase with
    client-side spans per request, the no-op server, and the in-process
    layer harness on the same stream."""
    out = {}
    phase = checked_phase(w, seed, seconds, run_dir, sat_s=0)
    attempted = phase["attempted"]
    failed = phase["failed"]
    out["loadgen.lag_p99_ms"] = percentile(phase["lag_ms"], 0.99)
    out["loadgen.sent"] = phase["attempted"]
    connect_us = [(r["connected"] - r["start"]) / 1e3 for r in phase["measured"]]
    out["http.connect_p99_us"] = percentile(connect_us, 0.99)
    out["svc.cpu_us_per_task"] = phase["cpu_s"] * 1e6 / max(1, phase["accepted"])
    out["prof.samples"] = phase["prof_samples"]
    out["prof.dropped"] = phase["prof_dropped"]

    noop, rtt = noop_phase(w, seed, seconds, run_dir)
    attempted += noop["attempted"]
    failed += noop["failed"]
    out["http.noop_rtt_p50_us"] = percentile(rtt, 0.5)
    out["http.noop_rtt_p99_us"] = percentile(rtt, 0.99)

    scalars, samples = run_layers(
        ["svc", "--time-scale", repr(w["time_scale"]),
         "--ring-capacity", str(RING_CAPACITY)]
        + stream_args(w, seed, WARMUP_S, seconds), run_dir)
    parse = samples("json_parse_ns")
    submit = samples("svc_submit_ns")
    out["json.parse_us_p50"] = percentile(parse, 0.5) / 1e3
    out["svc.submit_ns_p50"] = percentile(submit, 0.5)
    out["svc.submit_ns_p99"] = percentile(submit, 0.99)
    ring_wait = samples("svc_ring_wait_ns")
    out["svc.ring_wait_us_p50"] = percentile(ring_wait, 0.5) / 1e3
    out["svc.ring_wait_us_p99"] = percentile(ring_wait, 0.99) / 1e3
    out["svc.placement_us_p50"] = percentile(samples("svc_placement_ns"), 0.5) / 1e3
    out["svc.batch_mean"] = scalars["svc_batch_mean"]
    out["svc.ring_occupancy_max"] = scalars["svc_ring_occupancy_max"]
    out["svc.rejected_ratio"] = scalars["svc_rejected"] / (
        scalars["svc_submitted"] + scalars["svc_rejected"])
    status = samples("svc_status_get_ns")
    out["svc.status_get_us_p50"] = percentile(status, 0.5) / 1e3
    out["svc.status_get_us_p99"] = percentile(status, 0.99) / 1e3
    out["ring.push_pop_ns"] = percentile(samples("ring_push_pop_ns"), 0.5)
    place = samples("lmc_place_ns")
    out["lmc.place_ns_p50"] = percentile(place, 0.5)
    out["lmc.place_ns_p99"] = percentile(place, 0.99)
    out["lmc.queue_depth_mean"] = scalars["lmc_queue_depth_mean"]
    out["reqtrace.get_us_p50"] = percentile(samples("reqtrace_get_ns"), 0.5) / 1e3
    out["promtext.render_ms"] = percentile(samples("promtext_render_ns"), 0.5) / 1e6
    out["promtext.bytes"] = scalars["promtext_bytes"]
    # What the harness's per-call timing costs: the parse-and-place replay
    # with timing over the same replay without.
    out["trace.overhead_ratio"] = (min(samples("replay_timed_ns"))
                                   / min(samples("replay_untimed_ns")) - 1.0)

    # Latency budget of one submit: the layers it crosses, against the
    # end-to-end median of the same request shape.
    submits = [r for r in phase["measured"] if r["kind"] == "submit"]
    submit_p50_us = percentile([(r["done"] - r["due"]) / 1e3 for r in submits], 0.5)
    layers_us = {
        "http (no-op round trip)": out["http.noop_rtt_p50_us"],
        "json parse": out["json.parse_us_p50"],
        "%d x submit()" % w["tasks"]: w["tasks"] * out["svc.submit_ns_p50"] / 1e3,
    }
    out["budget.gap_ratio"] = benchlib.budget_gap(submit_p50_us, layers_us.values())
    # Client-side spans of the same submits.
    spans = {
        "connect": [(r["connected"] - r["start"]) / 1e3 for r in submits],
        "send": [(r["written"] - r["connected"]) / 1e3 for r in submits],
        "server (sent to first byte)": [(r["first_byte"] - r["written"]) / 1e3
                                         for r in submits],
        "receive": [(r["done"] - r["first_byte"]) / 1e3 for r in submits],
    }
    notes = {"budget": (submit_p50_us, layers_us),
             "spans": {k: percentile(v, 0.5) for k, v in spans.items()},
             "virtual_busy": scalars["lmc_virtual_busy_ratio"]}
    return out, attempted, failed, notes


# ---------------------------------------------------------------- sim run

def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def sim_trace(seed, run_dir):
    """The judgegirl exam trace for `seed`, generated by the project's own
    dvfs_trace_gen. Seeds map onto the recorded references' trace seeds."""
    ref = load_reference()
    gen = ref["trace"]
    trace_seed = seed % len(ref["costs"])
    path = os.path.join(run_dir, "judgegirl.csv")
    cmd = [tool("dvfs_trace_gen"), "--kind", "judgegirl",
           "--seed", str(trace_seed), "--submissions", str(gen["submissions"]),
           "--interactive", str(gen["interactive"]),
           "--duration", str(gen["duration"]), "--out", path]
    if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
        raise BenchError("dvfs_trace_gen failed")
    return path, ref["costs"][str(trace_seed)]


def sim_harness(trace_path, seconds, run_dir, setups=SIM_SETUPS):
    return run_layers(
        ["sim", "--trace", trace_path, "--cores", str(load_reference()["trace"]["cores"]),
         "--run-seconds", repr(seconds), "--setups", str(setups)], run_dir)


def sim_end_to_end(seed, seconds, run_dir):
    trace_path, ref = sim_trace(seed, run_dir)
    # The CLI users run: its printed cost must match the reference.
    proc = Proc([tool("dvfs_simulate"), "--trace", trace_path,
                 "--cores", str(load_reference()["trace"]["cores"]), "--policy", "lmc"],
                sorted(os.sched_getaffinity(0)))
    proc.wait(120)
    m = re.search(rb"cost: ([0-9.]+) ", proc.out)
    if proc.p.returncode != 0 or m is None:
        raise BenchError("dvfs_simulate failed: %r" % proc.out[-500:])
    failures = []
    if m.group(1).decode() != ref["printed"]:
        failures.append("dvfs_simulate cost %s != reference %s"
                        % (m.group(1).decode(), ref["printed"]))
    scalars, samples = sim_harness(trace_path, seconds, run_dir)
    if scalars["sim_cost_hex"] != ref["hex"]:
        failures.append("simulated cost %s != reference %s"
                        % (scalars["sim_cost_hex"], ref["hex"]))
    decisions_ms = [x / 1e6 for x in samples("sim_decision_ns")]
    tasks = scalars["sim_tasks"]
    runs = scalars["sim_runs"]
    metrics = {
        "setup_s": statistics.median(samples("sim_setup_ns")) / 1e9,
        "latency_p50_ms": percentile(decisions_ms, 0.5),
        "latency_p90_ms": percentile(decisions_ms, 0.9),
        # Bare runs: the timed runs' per-decision clock reads excluded.
        "tasks_per_s": tasks / (min(samples("sim_run_ns")) / 1e9),
        "peak_rss_mb": proc.rusage.ru_maxrss / 1024.0,
    }
    attempted = int(tasks * runs)
    failed = attempted - int(scalars["sim_completed"])
    notes = {"samples": len(decisions_ms), "cost": scalars["sim_cost_2dp"],
             "cost_hex": scalars["sim_cost_hex"], "runs": runs,
             "p99_ms": percentile(decisions_ms, 0.99),
             "first_error": "; ".join(failures) or None}
    return metrics, attempted, failed + len(failures), notes


def sim_layer_metrics(scalars, samples):
    tasks = scalars["sim_tasks"] * scalars["sim_runs"]
    return {
        "trace.load_s": statistics.median(samples("trace_load_ns")) / 1e9,
        "sim.run_s": statistics.median(samples("sim_run_ns")) / 1e9,
        "governor.decide_ns_mean": benchlib.histogram_mean(
            scalars["governor_decision_ns_sum"], scalars["governor_decision_ns_count"]),
        "governor.lmc.interactive_evals_per_task":
            scalars["governor_interactive_evals"] / tasks,
        "sim.event_queue_depth_mean": benchlib.histogram_mean(
            scalars["sim_event_queue_depth_sum"], scalars["sim_event_queue_depth_count"]),
    }


# ------------------------------------------------------------ entry points

def end_to_end(name, seed, seconds, run_dir):
    w = WORKLOADS[name]
    if w["kind"] == "sim":
        return sim_end_to_end(seed, seconds, run_dir)
    return http_end_to_end(w, seed, seconds, run_dir)


def traced(name, seed, seconds, run_dir):
    """Every per-layer metric for the workload's inputs. The HTTP layers
    need a request stream: sim-judgegirl borrows http-single's, since its
    own inputs never cross HTTP. The simulator layers run on every
    workload's tasks (an HTTP stream's tasks arrive at their due times,
    in the daemon's virtual model seconds)."""
    w = WORKLOADS[name]
    half = max(1.0, seconds / 2)
    if w["kind"] == "sim":
        trace_path, ref = sim_trace(seed, run_dir)
        scalars, samples = sim_harness(trace_path, half, run_dir)
        out, attempted, failed, notes = http_layer_suite(
            WORKLOADS["http-single"], seed, half / 2, run_dir)
        if scalars["sim_cost_hex"] != ref["hex"]:
            failed += 1
            notes["first_error"] = ("simulated cost %s != reference %s"
                                    % (scalars["sim_cost_hex"], ref["hex"]))
        out.update(sim_layer_metrics(scalars, samples))
        decisions = samples("sim_decision_ns")
        # Runs that time every decision over bare runs of the same trace.
        out["trace.overhead_ratio"] = (min(samples("sim_timed_run_ns"))
                                       / min(samples("sim_run_ns")) - 1.0)
        # Each span records (start << 1 | kind), in decision order.
        by_kind = {"arrival": [], "completion": []}
        for span, ns in zip(samples("sim_spans"), decisions):
            by_kind["completion" if span & 1 else "arrival"].append(ns)
        notes["decisions"] = {k: (len(v), percentile(v, 0.5), percentile(v, 0.99))
                              for k, v in by_kind.items()}
        return out, attempted, failed, notes
    out, attempted, failed, notes = http_layer_suite(w, seed, half, run_dir)
    scalars, samples = run_layers(
        ["sim", "--cores", "8", "--run-seconds", "0", "--setups", "1",
         "--time-scale", repr(w["time_scale"])]
        + stream_args(w, seed, WARMUP_S, half), run_dir)
    out.update(sim_layer_metrics(scalars, samples))
    return out, attempted, failed, notes


def selftest():
    """The benchmark's own arithmetic must hold before it measures."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_benchlib")
    report = io.StringIO()
    if not unittest.TextTestRunner(stream=report).run(suite).wasSuccessful():
        log(report.getvalue())
        raise SystemExit("benchmark self-tests failed")


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    selftest()
    spec = metric_spec("per_layer" if args.trace else "end_to_end")
    build()
    run_dir = os.path.join(RUNS_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        with CpuFillers():
            before = cpu_times()
            metrics, attempted, failed, notes = (traced if args.trace else end_to_end)(
                args.workload, args.seed, args.seconds, run_dir)
            steal = steal_share(before, cpu_times())
    except BenchError as e:
        log("benchmark failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [n for n, _, _ in spec if n not in metrics]
    if missing:
        log("metrics not measured: %s" % ", ".join(missing))
        return 1
    print("workload %s  seed %d  %s run" % (args.workload, args.seed,
                                            "traced" if args.trace else "untraced"))
    for name, unit, better in spec:
        print("  %-42s %14s %-6s (%s is better)" % (name, fmt(metrics[name]), unit,
                                                     better))
    if "samples" in notes:
        line = "  latency samples: %d" % notes["samples"]
        if "windows" in notes:
            line += (" (p50, p90: lower quartile across %d windows)"
                     % len(notes["windows"]["p50"]))
        if "p99_ms" in notes:
            line += ", p99 %s ms" % fmt(notes["p99_ms"])
        if "lag_p99_ms" in notes:
            line += ", generator lag p99 %s ms" % fmt(notes["lag_p99_ms"])
        print(line)
    for q, per_window in notes.get("windows", {}).items():
        print("  %s per window (ms): %s" % (q, " ".join("%.4f" % v for v in per_window)))
    if "sat_windows" in notes:
        print("  saturation tasks/s per %g s window: %s" % (
            SATURATE_WINDOW_S, " ".join("%.0f" % v for v in notes["sat_windows"])))
    for kind, lat in sorted(notes.get("by_kind", {}).items()):
        if len(lat) >= benchlib.min_samples(0.99):
            print("  whole run %-9s n=%-6d p50 %.4f ms  p90 %.4f ms  p99 %.4f ms" % (
                kind, len(lat), percentile(lat, 0.5), percentile(lat, 0.9),
                percentile(lat, 0.99)))
    if "budget" in notes:
        e2e, layers = notes["budget"]
        print("  latency budget of one submit (p50, us): end to end %.1f" % e2e)
        for layer, us in layers.items():
            print("    %-28s %9.2f" % (layer, us))
        print("    %-28s %9.2f  (%.1f%% unexplained)" % (
            "gap", e2e - sum(layers.values()), 100 * metrics["budget.gap_ratio"]))
        print("  client-side spans of the same submits (p50, us):")
        for span, us in notes["spans"].items():
            print("    %-28s %9.2f" % (span, us))
        print("  virtual cores busy in the placement replay: %.0f%%"
              % (100 * notes["virtual_busy"]))
    for kind, (n, p50, p99) in notes.get("decisions", {}).items():
        print("  governor %-10s decisions n=%-8d p50 %d ns  p99 %d ns" % (kind, n, p50, p99))
    if "cost" in notes:
        print("  simulated cost %s (%s), %d runs" % (notes["cost"], notes["cost_hex"],
                                                    notes["runs"]))
    print("  host steal during the run: %.2f%% of CPU time" % (100 * steal))
    print("  attempted %d, failed %d, error ratio %.6f" % (
        attempted, failed, benchlib.error_ratio(failed, attempted)))
    if notes.get("first_error"):
        print("  first failure: %s" % notes["first_error"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
