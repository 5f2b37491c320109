#!/usr/bin/env python3
"""End-to-end campaign benchmark for pas-exp, with a traced per-layer run.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first call builds pas-exp and the
benchmark's traced driver (perfbench_trace) in Release into .bench_build/;
scratch files go to .bench_work/ and are removed on exit.

--trace 0 times the real pas-exp binary, tracing and telemetry off, on a
manifest generated from --seed, and reports the end-to-end metrics.
--trace 1 replays the same campaign in-process under perfbench_trace with
spans around every call into a src/ module, reads the exact kernel,
protocol and net counters, and reports the per-layer metrics.

Either way every launch's artifacts are checked (row count, no duplicate
points, finite metrics, byte identity with the other launches, with the
serial traced replay, and with the committed digests at the default seed);
a point that fails any check counts in `failed`. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the metric glossary.
"""

import argparse
import copy
import csv
import glob
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
PAS_EXP = BUILD / "pas" / "pas-exp"
TRACER = BUILD / "perfbench_trace"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
FAST_QUANTILE = 0.10
MIN_LAUNCHES = 3
LAUNCH_TIMEOUT_S = 120
ALLOWED_BUILD_TYPES = ("Release", "RelWithDebInfo")


class BenchError(Exception):
    """The benchmark could not measure (build, launch or tool failure)."""


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def _run_logged(cmd, log):
    log.write(("$ " + " ".join(cmd) + "\n").encode())
    log.flush()
    rc = subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError(f"{cmd[0]} exited {rc}; see {log.name}")


def _cache_entry(cache, key):
    for line in cache.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Builds both binaries; returns the build description every result
    records. Refuses Debug and sanitizer builds."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "build.log", "wb") as log:
        _run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], log)
        _run_logged(["cmake", "--build", str(BUILD), "-j", "3", "--target",
                     "pas-exp", "perfbench_trace"], log)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = _cache_entry(cache, "CMAKE_BUILD_TYPE")
    flags = _cache_entry(cache, "CMAKE_CXX_FLAGS")
    if (build_type not in ALLOWED_BUILD_TYPES
            or _cache_entry(cache, "PAS_SANITIZE")
            or "-fsanitize" in flags or "-O0" in flags):
        raise BenchError(
            f"refusing to report from a {build_type or 'default'} build "
            f"(flags '{flags}'); the benchmark needs Release or "
            f"RelWithDebInfo without sanitizers")
    compiler = "unknown"
    for path in glob.glob(str(BUILD / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        found = [re.search(rf'set\(CMAKE_CXX_COMPILER_{key} "([^"]*)"\)', text)
                 for key in ("ID", "VERSION")]
        compiler = " ".join(m.group(1) for m in found if m)
    return {"build_type": build_type, "compiler": compiler,
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# Launching pas-exp
# ---------------------------------------------------------------------------

class Launch:
    """One finished process: wall time, CPU and peak RSS of its whole tree
    (wait4 folds in every descendant the process itself waited for, which
    covers --drive workers), and when it printed point lines."""

    def __init__(self, cmd, cwd, watch_points=False, stop_after_first=False):
        cwd.mkdir(parents=True, exist_ok=True)
        self.first_s = None
        self.last_s = None
        with open(cwd / "stderr.log", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=cwd, stderr=err, start_new_session=True,
                stdout=subprocess.PIPE if watch_points else subprocess.DEVNULL)
            timer = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, [proc.pid])
            timer.start()
            try:
                if watch_points:
                    for line in proc.stdout:
                        if not line.startswith(b"["):
                            continue
                        t = time.perf_counter() - t0
                        if self.first_s is None:
                            self.first_s = t
                            if stop_after_first:
                                # pas-exp dies on SIGINT; --drive stops its
                                # workers, waits for them, then exits.
                                # (Popen.send_signal would reap the child
                                # and lose its rusage to wait4.)
                                os.kill(proc.pid, signal.SIGINT)
                        self.last_s = t
                    proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - t0
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.stderr_tail = (cwd / "stderr.log").read_text(errors="replace")[-400:]


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def pas_exp_cmd(manifest_path, spec, launch_flags=None, quiet=True,
                metrics=False):
    cmd = [str(PAS_EXP), "--manifest", str(manifest_path), "--out", "out.csv"]
    cmd += launch_flags if launch_flags is not None else spec["launch"]
    if spec["per_run"]:
        cmd += ["--per-run", "runs.csv"]
    if metrics:
        cmd += ["--metrics", "metrics.jsonl"]
    if quiet:
        cmd.append("--quiet")
    return cmd


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _finite(cells):
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def _point(row, n):
    """A row's point index; -1 (never a valid point) when unparsable."""
    try:
        p = int(row[0])
    except (ValueError, IndexError):
        return -1
    return p if 0 <= p < n else -1


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Artifacts:
    """A finalized campaign's CSV (and per-run CSV): which points are bad
    (missing, duplicated or non-finite), each point's bytes for comparison
    with a reference, and the file digests."""

    def __init__(self, csv_path, runs_path, manifest):
        n = workloads.point_count(manifest)
        reps = manifest["replications"]
        naxes = len(workloads.axis_names(manifest))
        self.points = n
        self.bad = set()
        self.rows = {}
        self.digests = {}
        if not csv_path.exists() or (runs_path and not runs_path.exists()):
            self.bad = set(range(n))
            return
        self.digests["csv"] = _sha256(csv_path)
        seen = set()
        with open(csv_path, newline="") as f:
            reader = csv.reader(f)
            next(reader, None)
            for row in reader:
                p = _point(row, n)
                if p in seen or not _finite(row[2 + naxes:]):
                    self.bad.add(p)
                seen.add(p)
                self.rows[p] = [",".join(row)]
        self.bad |= set(range(n)) - seen
        self.bad.discard(-1)
        if runs_path:
            self.digests["per_run"] = _sha256(runs_path)
            count = {}
            with open(runs_path, newline="") as f:
                reader = csv.reader(f)
                next(reader, None)
                for row in reader:
                    p = _point(row, n)
                    count[p] = count.get(p, 0) + 1
                    if not _finite(row[3 + naxes:]):
                        self.bad.add(p)
                    self.rows.setdefault(p, [""]).append(",".join(row))
            self.bad |= {p for p in range(n) if count.get(p, 0) != reps}
            self.bad.discard(-1)

    def differing(self, reference):
        """Points whose bytes differ from `reference`'s."""
        return {p for p in range(self.points)
                if self.rows.get(p) != reference.rows.get(p)}


def load_digests():
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def digest_failures(name, seed, artifacts):
    """All points fail when a run's artifacts differ from an earlier run's
    of the same workload and seed in this checkout (recorded under
    .bench_work/), or, at the default seed, from the committed digests
    (semantic drift). A digest cannot say which point drifted."""
    seen_path = WORK / "seen_digests.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    key = f"{name}:{seed}"
    wants = [("an earlier run", seen.get(key))]
    if seed == DEFAULT_SEED:
        wants.append(("the committed digests", load_digests().get(name)))
    for what, want in wants:
        if want is not None and artifacts.digests != want:
            print(f"perfbench: {name} seed {seed}: artifact digests "
                  f"{artifacts.digests} differ from {what}: {want}",
                  file=sys.stderr)
            return set(range(artifacts.points))
    if key not in seen and not artifacts.bad:
        seen[key] = artifacts.digests
        tmp = seen_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        tmp.replace(seen_path)
    return set()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, points, bad):
        self.attempted += points
        self.failed += len(bad)


# ---------------------------------------------------------------------------
# Small statistics helpers
# ---------------------------------------------------------------------------

def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def fast(values, higher=False):
    """The FAST_QUANTILE of a run's timings, counted from the fast end.

    Other tenants of the host only ever slow a launch down, and they do so
    in episodes of tens of seconds that slow every launch by up to ~1.6x;
    the median of a run then follows how much of the run such an episode
    covered. The fast end is the program's own cost, and it repeats."""
    return quantile(values, 1 - FAST_QUANTILE if higher else FAST_QUANTILE)


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def first_point_busy(setup_manifest):
    out = subprocess.run([str(TRACER), "--manifest", str(setup_manifest),
                          "--first-point"], capture_output=True,
                         timeout=LAUNCH_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("perfbench_trace --first-point failed: "
                         + out.stderr.decode(errors="replace")[-400:])
    return json.loads(out.stdout)["busy_s"]


class SetUp:
    """setup_s: launch -> first point line, minus that point's busy time.

    The launches run the workload's grid with one replication per point
    and a 1 s horizon, so the busy time subtracted is a sub-millisecond
    cold run rather than a whole point's simulation, whose noise would
    swamp the set-up: what remains is process start, manifest load, grid
    expansion, opening the output and row store, and under --drive worker
    spawn, each worker's re-expansion and the first lease.

    One set-up launch and one busy-time measurement follow every timed
    launch, so they sample the same host states as the timed launches and
    always start from the same warm state."""

    def __init__(self, name, spec, manifest, work):
        setup = copy.deepcopy(manifest)
        setup["replications"] = 1
        setup["base"]["duration_s"] = 1
        self.manifest = work / "setup_manifest.json"
        self.manifest.write_text(json.dumps(setup))
        self.name, self.spec, self.work = name, spec, work
        self.firsts, self.busy = [], []
        # A single-process launch is timed with this launcher and pas-exp
        # on one CPU, so their hand-offs never wait for an idle core to
        # wake: that latency follows the host's power state, not the
        # program. --drive workers must start side by side, so a drive
        # launch keeps every CPU.
        self.pin = "--drive" not in spec["launch"]

    def sample(self, keep=True):
        allowed = os.sched_getaffinity(0)
        if self.pin:
            os.sched_setaffinity(0, {max(allowed)})
        try:
            d = self.work / "setup"
            launch = Launch(pas_exp_cmd(self.manifest, self.spec, quiet=False),
                            d, watch_points=True, stop_after_first=True)
            if launch.first_s is None:
                raise BenchError(f"{self.name}: setup launch printed no point "
                                 "line: " + launch.stderr_tail)
            shutil.rmtree(d)
            busy = first_point_busy(self.manifest)
        finally:
            os.sched_setaffinity(0, allowed)
        if keep:
            self.firsts.append(launch.first_s)
            self.busy.append(busy)

    def result(self):
        setup_s = fast(self.firsts) - fast(self.busy)
        if setup_s <= 0:
            raise BenchError(f"{self.name}: set-up time came out {setup_s}")
        return setup_s, len(self.firsts)


def timed_launch(name, spec, manifest, manifest_path, d):
    """One checked launch of the workload: (launch, artifacts, bad points)."""
    launch = Launch(pas_exp_cmd(manifest_path, spec), d)
    arts = Artifacts(d / "out.csv", spec["per_run"] and d / "runs.csv",
                     manifest)
    bad = set(arts.bad)
    if launch.rc != 0:
        print(f"perfbench: {name}: pas-exp exited {launch.rc}: "
              + launch.stderr_tail, file=sys.stderr)
        bad = set(range(arts.points))
    shutil.rmtree(d)
    return launch, arts, bad


def measure_end_to_end(name, seed, seconds, work, tally):
    spec = workloads.WORKLOADS[name]
    manifest = spec["make"](seed)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    runs = workloads.point_count(manifest) * manifest["replications"]
    setup = SetUp(name, spec, manifest, work)

    # Warm-up round, checked but not timed: the page cache holds the binary
    # and the host has left whatever it did before this run.
    _, reference, bad = timed_launch(name, spec, manifest, manifest_path,
                                     work / "warmup")
    bad |= digest_failures(name, seed, reference)
    tally.add(reference.points, bad)
    setup.sample(keep=False)

    rate, cpu, rss = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_LAUNCHES or time.perf_counter() < deadline:
        launch, arts, bad = timed_launch(name, spec, manifest, manifest_path,
                                         work / f"run{k}")
        tally.add(arts.points, bad | arts.differing(reference))
        rate.append(runs / launch.wall_s)
        cpu.append(launch.cpu_s * 1000.0 / runs)
        rss.append(launch.maxrss_mb)
        setup.sample()
        k += 1
    return {
        "runs_per_s": (fast(rate, higher=True), k),
        "cpu_ms_per_run": (fast(cpu), k),
        "setup_s": setup.result(),
        "peak_rss_mb": (median(rss), k),
    }


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

# Span name -> layer whose self time it is. "run_until" is the simulation
# inside Workspace::run_metrics once the replica calls are subtracted; it is
# split into sim/core/net by their exact counts. "replicas" is the
# benchmark's own duplicate calls; "wait" spans are waiting, not work.
SPAN_LAYER = {
    "campaign": "unattributed",
    "exp.point": "unattributed",
    "exp.setup": "exp",
    "exp.open": "exp",
    "exp.record": "exp",
    "exp.finalize": "exp",
    "metrics.reduce": "metrics",
    "runtime.chunk": "runtime",
    "runtime.pool": "wait",
    "runtime.wait": "wait",
    "world.rep": "replicas",
    "world.run_metrics": "run_until",
    "world.deploy": "world",
    "stimulus.model_build": "stimulus",
    "stimulus.arrivals": "stimulus",
}
# orch has no share: the replay runs no orchestrator (orch.* metrics come
# from a real --drive launch).
SHARE_LAYERS = ("exp", "runtime", "world", "stimulus", "sim", "core", "net",
                "metrics")


def read_spans(path):
    """{name: [(duration_ns, self_ns, start_ns, allocs), ...]}."""
    by_thread = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            by_thread.setdefault(row["thread"], []).append(row)
    spans = {}
    for rows in by_thread.values():
        child_ns = [0] * len(rows)
        durs = []
        for row in rows:
            dur = int(row["end_ns"]) - int(row["start_ns"])
            durs.append(dur)
            parent = int(row["parent"])
            if parent >= 0:
                child_ns[parent] += dur
        for i, row in enumerate(rows):
            spans.setdefault(row["name"], []).append(
                (durs[i], durs[i] - child_ns[i], int(row["start_ns"]),
                 int(row["allocs"])))
    return spans


def sim_core_net_weights(s):
    """Exact counts the run_until self time is split by: every dispatched
    event costs the kernel; protocol wake-ups and received messages are
    core handlers; broadcasts, deliveries, MAC frames and LPL samples are
    net work."""
    sim = s["kernel"]["events_dispatched"]
    core = s["protocol"]["wakeups"] + s["protocol"]["messages_received"]
    net = (s["network"]["broadcasts"] + s["network"]["deliveries"]
           + s["mac"]["data_tx"] + s["mac"]["lpl_samples"])
    return {"sim": sim, "core": core, "net": net}


def layer_shares(spans, summary):
    """Self-time share of each layer over the replay's thread capacity
    (wall x threads), plus the replica and unattributed remainders."""
    wall_ns = summary["wall_s"] * 1e9 * summary["jobs"]
    self_ns = {}
    for name, recs in spans.items():
        layer = SPAN_LAYER[name]
        if layer != "wait":
            self_ns[layer] = self_ns.get(layer, 0) + sum(r[1] for r in recs)
    run_until = self_ns.pop("run_until", 0)
    weights = sim_core_net_weights(summary)
    total_w = sum(weights.values()) or 1
    for layer, w in weights.items():
        self_ns[layer] = run_until * w / total_w
    shares = {layer: self_ns.get(layer, 0) / wall_ns for layer in SHARE_LAYERS}
    shares["replicas"] = self_ns.get("replicas", 0) / wall_ns
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares, run_until


def replay_metrics(spans, summary):
    """Per-layer metrics of one traced replay: {name: (value, samples)}."""
    runs = summary["runs"]
    out = {}

    def dur_stat(name, q, scale):
        recs = spans.get(name, [])
        if not recs:
            return (0.0, 0)
        return (quantile([r[0] for r in recs], q) * scale, len(recs))

    def dur_mean(name, scale):
        recs = spans.get(name, [])
        if not recs:
            return (0.0, 0)
        return (sum(r[0] for r in recs) * scale / len(recs), len(recs))

    out["exp.setup_ms"] = dur_mean("exp.setup", 1e-6)
    out["exp.record_us_p50"] = dur_stat("exp.record", 0.50, 1e-3)
    out["exp.record_us_p99"] = dur_stat("exp.record", 0.99, 1e-3)
    out["exp.finalize_s"] = dur_mean("exp.finalize", 1e-9)
    out["exp.store_bytes_per_point"] = (
        summary["store_bytes"] / summary["points"], summary["points"])

    if "runtime.wait" in spans:
        out["runtime.task_wait_ms_p50"] = dur_stat("runtime.wait", 0.50, 1e-6)
        out["runtime.task_wait_ms_p99"] = dur_stat("runtime.wait", 0.99, 1e-6)
        pool_ns = spans["runtime.pool"][0][0]
        busy_ns = sum(r[0] for r in spans["runtime.chunk"])
        out["runtime.parallel_eff"] = (busy_ns / (summary["jobs"] * pool_ns),
                                       len(spans["runtime.chunk"]))
    else:
        for key in ("runtime.task_wait_ms_p50", "runtime.task_wait_ms_p99",
                    "runtime.parallel_eff"):
            out[key] = (0.0, 0)

    runs_recs = spans["world.run_metrics"]
    out["world.run_us_p50"] = dur_stat("world.run_metrics", 0.50, 1e-3)
    out["world.run_us_p99"] = dur_stat("world.run_metrics", 0.99, 1e-3)
    out["world.first_run_ms"] = (min(runs_recs, key=lambda r: r[2])[0] * 1e-6,
                                 1)
    out["world.deploy_us_per_run"] = dur_mean("world.deploy", 1e-3)
    out["world.deploy_attempts_per_run"] = (summary["deploy_attempts"] / runs,
                                            runs)
    out["world.allocs_per_run"] = (sum(r[3] for r in runs_recs) / runs, runs)

    out["stimulus.model_builds"] = (summary["model_builds"], 1)
    out["stimulus.model_build_ms"] = dur_mean("stimulus.model_build", 1e-6)
    out["stimulus.arrivals_us_per_run"] = dur_mean("stimulus.arrivals", 1e-3)

    k = summary["kernel"]
    shares, run_until_ns = layer_shares(spans, summary)
    out["sim.events_per_run"] = (k["events_dispatched"] / runs, runs)
    out["sim.scheduled_per_run"] = (k["events_scheduled"] / runs, runs)
    out["sim.cancel_frac"] = (
        k["events_cancelled"] / max(1, k["events_scheduled"]), runs)
    out["sim.max_pending"] = (k["max_pending"], runs)
    out["sim.timer_reschedules_per_run"] = (k["timer_reschedules"] / runs, runs)
    out["sim.ns_per_event"] = (run_until_ns / max(1, k["events_dispatched"]),
                               runs)

    p = summary["protocol"]
    out["core.messages_per_run"] = (
        (p["requests_sent"] + p["responses_sent"] + p["responses_pushed"])
        / runs, runs)
    out["core.wakeups_per_run"] = (p["wakeups"] / runs, runs)
    predicted = p["prediction_hits"] + p["prediction_misses"]
    out["core.prediction_hit_frac"] = (p["prediction_hits"] / max(1, predicted),
                                       runs)
    pushes = p["responses_pushed"] + p["pushes_suppressed"]
    out["core.push_suppressed_frac"] = (p["pushes_suppressed"] / max(1, pushes),
                                        runs)

    n, m, c = summary["network"], summary["mac"], summary["collection"]
    out["net.broadcasts_per_run"] = (n["broadcasts"] / runs, runs)
    out["net.deliveries_per_run"] = (n["deliveries"] / runs, runs)
    out["net.drop_frac"] = (n["dropped"] / max(1, n["dropped"]
                                               + n["deliveries"]), runs)
    out["net.mac_data_tx_per_run"] = (m["data_tx"] / runs, runs)
    out["net.mac_retry_frac"] = (m["retries"] / max(1, m["data_tx"]), runs)
    out["net.mac_lpl_samples_per_run"] = (m["lpl_samples"] / runs, runs)
    out["net.collection_delivered_frac"] = (
        c["delivered"] / max(1, c["originated"]), runs)

    out["metrics.reduce_ms"] = dur_mean("metrics.reduce", 1e-6)

    for layer in SHARE_LAYERS:
        out[f"{layer}.self_frac"] = (shares[layer], 1)
    out["obs.replica_frac"] = (shares["replicas"], 1)
    out["obs.unattributed_frac"] = (shares["unattributed"], 1)
    return out


def run_replay(manifest_path, spec, out_dir):
    cmd = [str(TRACER), "--manifest", str(manifest_path), "--out-dir",
           str(out_dir), "--jobs", str(spec["replay_jobs"])]
    if spec["per_run"]:
        cmd.append("--per-run")
    out = subprocess.run(cmd, capture_output=True, timeout=LAUNCH_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("perfbench_trace failed: "
                         + out.stderr.decode(errors="replace")[-400:])
    summary = json.loads((out_dir / "summary.json").read_text())
    return summary, read_spans(out_dir / "spans.csv")


# Counters that must repeat exactly between replays of one manifest.
EXACT_SECTIONS = ("kernel", "protocol", "network", "mac", "collection")


def orch_metrics(name, spec, manifest, manifest_path, work, reference, tally):
    """Drive-only metrics from one --drive --metrics launch; zero (with no
    samples) on workloads that never start the orchestrator."""
    keys = ("orch.lease_latency_ms_p50", "orch.lease_latency_ms_p95",
            "orch.heartbeat_gap_ms_p99", "orch.first_point_s",
            "orch.merge_s", "orch.respawns")
    unmeasured = {key: (0.0, 0) for key in keys}
    if "--drive" not in spec["launch"]:
        return unmeasured, None
    d = work / "drive_metrics"
    launch = Launch(pas_exp_cmd(manifest_path, spec, quiet=False,
                                metrics=True), d, watch_points=True)
    arts = Artifacts(d / "out.csv", spec["per_run"] and d / "runs.csv",
                     manifest)
    bad = arts.bad | arts.differing(reference)
    if launch.rc != 0 or launch.first_s is None:
        print(f"perfbench: {name}: --drive --metrics launch exited "
              f"{launch.rc}: {launch.stderr_tail}", file=sys.stderr)
        tally.add(arts.points, set(range(arts.points)))
        return unmeasured, launch
    tally.add(arts.points, bad)
    trailer = {}
    with open(d / "metrics.jsonl") as f:
        for line in f:
            row = json.loads(line)
            if row.get("scope") == "orchestrator":
                trailer = row["instruments"]
    lease = trailer["orch.lease_latency_s"]
    hb = trailer["orch.heartbeat_gap_s"]
    out = {
        "orch.lease_latency_ms_p50": (lease["p50"] * 1e3, lease["total"]),
        "orch.lease_latency_ms_p95": (lease["p95"] * 1e3, lease["total"]),
        "orch.heartbeat_gap_ms_p99": (hb["p99"] * 1e3, hb["total"]),
        "orch.first_point_s": (launch.first_s, 1),
        "orch.merge_s": (launch.wall_s - launch.last_s, 1),
        "orch.respawns": (trailer.get("orch.respawns", 0), 1),
    }
    shutil.rmtree(d)
    return out, launch


def measure_layers(name, seed, seconds, work, tally):
    spec = workloads.WORKLOADS[name]
    manifest = spec["make"](seed)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    points = workloads.point_count(manifest)
    runs = points * manifest["replications"]
    drive = "--drive" in spec["launch"]
    # The untraced reference runs what the replay runs: the workload's own
    # launch, or a serial one for --drive (the replay is serial there).
    untraced_flags = ["--jobs", "1"] if drive else spec["launch"]

    replays, untraced_rate, untraced_cpu, traced_rate = [], [], [], []
    reference = None
    counters = None
    orch = None
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 1 or time.perf_counter() < deadline:
        rdir = work / f"replay{k}"
        summary, spans = run_replay(manifest_path, spec, rdir)
        arts = Artifacts(rdir / "replay.csv",
                         spec["per_run"] and rdir / "replay_runs.csv",
                         manifest)
        bad = set(arts.bad)
        exact = {s: summary[s] for s in EXACT_SECTIONS}
        if reference is None:
            bad |= digest_failures(name, seed, arts)
            reference, counters = arts, exact
        else:
            bad |= arts.differing(reference)
            if exact != counters:
                print(f"perfbench: {name}: replay counters did not repeat",
                      file=sys.stderr)
                bad = set(range(points))
        tally.add(points, bad)
        replays.append(replay_metrics(spans, summary))
        traced_rate.append(runs / summary["wall_s"])
        shutil.rmtree(rdir)

        if orch is None:
            orch, drive_launch = orch_metrics(name, spec, manifest,
                                              manifest_path, work, reference,
                                              tally)

        udir = work / f"untraced{k}"
        launch = Launch(pas_exp_cmd(manifest_path, spec, untraced_flags), udir)
        arts = Artifacts(udir / "out.csv",
                         spec["per_run"] and udir / "runs.csv", manifest)
        bad = arts.bad | arts.differing(reference)
        if launch.rc != 0:
            bad = set(range(points))
        tally.add(points, bad)
        untraced_rate.append(runs / launch.wall_s)
        untraced_cpu.append(launch.cpu_s)
        shutil.rmtree(udir)
        k += 1

    metrics = {}
    for key in replays[0]:
        metrics[key] = (median(r[key][0] for r in replays),
                        sum(r[key][1] for r in replays))
    metrics.update(orch)
    if drive:
        metrics["orch.cpu_overhead_frac"] = (
            drive_launch.cpu_s / median(untraced_cpu) - 1.0, k)
    else:
        metrics["orch.cpu_overhead_frac"] = (0.0, 0)
    metrics["obs.trace_overhead_frac"] = (
        1.0 - fast(traced_rate, higher=True)
        / fast(untraced_rate, higher=True), k)
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def measure(name, seed, seconds, trace):
    """Builds if needed and measures one workload. Returns
    (result dict for the JSON line, {metric: (value, unit, samples)},
    build description)."""
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         + ", ".join(workloads.WORKLOADS))
    host = build()
    units = declared_metrics(trace)
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        measured = (measure_layers if trace else measure_end_to_end)(
            name, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(measured) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(units))}")
    detailed = {key: (measured[key][0], units[key], measured[key][1])
                for key in units}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": v, "unit": u}
                    for key, (v, u, _) in detailed.items()},
    }
    return result, detailed, host


def record_digests(name):
    """Writes the default seed's artifact digests for `name` into
    digests.json (run after an intended change of simulation output)."""
    spec = workloads.WORKLOADS[name]
    build()
    manifest = spec["make"](DEFAULT_SEED)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
    try:
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        launch = Launch(pas_exp_cmd(manifest_path, spec), work / "run")
        arts = Artifacts(work / "run" / "out.csv",
                         spec["per_run"] and work / "run" / "runs.csv",
                         manifest)
        if launch.rc != 0 or arts.bad:
            raise BenchError(f"{name}: campaign failed; digests not recorded")
        digests = load_digests()
        digests[name] = arts.digests
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the default seed's artifact digests "
                             "for --workload into perfbench/digests.json")
    args = parser.parse_args()
    try:
        if args.record_digests:
            record_digests(args.workload)
            return 0
        result, _, host = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"build_type={host['build_type']} compiler={host['compiler']} "
          f"nproc={host['nproc']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
