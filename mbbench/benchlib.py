"""Benchmark logic that needs no build: seeded inputs, statistics, the output
check, the host record, and the metric tables.

run.py drives the build and the C++ harness; everything here is plain Python
so tests/test_benchlib.py can exercise it directly.
"""

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
from pathlib import Path

WORKLOADS = ("fig8-mcf", "radix-64c", "serve-replay")

# The paper's (nW, nB) axes and the fast slice (sim::sliceInstructions).
AXIS = (1, 2, 4, 8, 16)
FIG8_APP = "429.mcf"
FIG8_INSTRS = 300000
RADIX_INSTRS = 40000
PAPER_MCF_REL_IPC_16X16 = 1.548

# The serve schedule's pool: single points (app x preset) and (nW, nB) grid
# submits that share one warmup snapshot (the warmup key ignores every
# memory-side knob). The apps are six spec-high profiles that span pointer
# chasing, streaming and strided access; the two presets give the cold path
# two memory organisations.
SERVE_APPS = ("429.mcf", "470.lbm", "462.libquantum", "433.milc", "471.omnetpp",
              "450.soplex")
SERVE_PRESETS = ("tsi-baseline", "tsi-ubank(4,4)")
SERVE_INSTRS = 20000
SERVE_WARMUP = 20000
SERVE_GRIDS = (((1, 2), (1, 2)), ((4, 8), (4, 8)), ((16,), (1, 16)))
# Repeats per pool item and session. There is no record of real mbserve
# traffic to copy, so the counts follow from what the metrics need, not from
# a usage model. 12 single points x 17 repeats = 204 hits, the fewest that
# give one session's hit latencies a p95 (tail_percentile needs 200). Each
# grid is repeated once, so a multi-point hit is checked against its cold
# bytes. The serve metrics are taken per class, so these counts do not set
# them; see end_to_end().
SERVE_HITS = {"miss": 17, "grid-miss": 1}

# Warmup records for the ckpt / LRU probes of each workload.
PROBE_WARMUP = {"fig8-mcf": 20000, "radix-64c": 2000, "serve-replay": SERVE_WARMUP}

SETUP_REPS = 9  # per block; a block runs before every round and after the last

# Host speed. On a shared VM every timing drifts together, by more than the
# bounds allow. The harness times a fixed reference kernel in every set-up
# block and after every simulated point (harness/host_ref.hpp), and the
# end-to-end timings are reported at the host speed where that kernel takes
# HOST_REF_NOMINAL_MS: times scaled by nominal/measured, rates by
# measured/nominal. The constant only sets the scale; it is the kernel's
# median on the host the bounds were set on. The unscaled figures stay in
# the result file.
HOST_REF_NOMINAL_MS = 4.1
HOST_SCALED_TIMES = ("setup_s", "sim_cpu_s", "op_ms_p50")
HOST_SCALED_RATES = ("sim_minstr_per_s", "ops_per_s")

# Metric tables: name -> (unit, better). BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_minstr_per_s": ("Minstr/s", "higher"),
    "sim_cpu_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

PER_LAYER = {
    "trace.records": ("count", "higher"),
    "trace.ns_per_record": ("ns", "lower"),
    "trace.self_ms": ("ms", "lower"),
    "mc.requests": ("count", "higher"),
    "mc.ns_per_request": ("ns", "lower"),
    "mc.dram_reads": ("count", "lower"),
    "mc.dram_writes": ("count", "lower"),
    "mc.activations": ("count", "lower"),
    "mc.row_hit_rate": ("ratio", "higher"),
    "mc.queue_occupancy": ("count", "lower"),
    "mc.self_ms": ("ms", "lower"),
    "cpu.accesses": ("count", "higher"),
    "cpu.ns_per_access": ("ns", "lower"),
    "cpu.l1_hit_rate": ("ratio", "higher"),
    "cpu.c2c_transfers": ("count", "lower"),
    "cpu.invalidations": ("count", "lower"),
    "cpu.prefetch_useful_ratio": ("ratio", "higher"),
    "cpu.self_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.self_ms": ("ms", "lower"),
    "ckpt.capture_s": ("s", "lower"),
    "ckpt.snapshot_kib": ("KiB", "lower"),
    "ckpt.self_ms": ("ms", "lower"),
    "serve.plan_us": ("us", "lower"),
    "serve.cache_lookup_us": ("us", "lower"),
    "serve.cache_store_us": ("us", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.lru_hit_ratio": ("ratio", "higher"),
    "serve.admit_ms": ("ms", "lower"),
    "serve.exec_ms": ("ms", "lower"),
    "serve.self_ms": ("ms", "lower"),
    "bench.trace_overhead_ms": ("ms", "lower"),
}


# ----------------------------------------------------------------- inputs

def submit(job_id, **fields):
    """One mbserve submit line (compact, key order fixed)."""
    spec = {"verb": "submit", "id": job_id}
    spec.update(fields)
    return json.dumps(spec, separators=(",", ":"))


def fig8_key(nw, nb, instrs=FIG8_INSTRS):
    return f"{FIG8_APP}/tsi-baseline({nw},{nb})/{instrs}"


def fig8_grid(seed):
    """The 5x5 grid, in the seed's order."""
    grid = [(nw, nb) for nw in AXIS for nb in AXIS]
    random.Random(seed).shuffle(grid)
    return grid


def serve_pool():
    """Distinct serve requests: (key, class-on-first-use, submit fields)."""
    pool = []
    for app in SERVE_APPS:
        for preset in SERVE_PRESETS:
            pool.append((f"{app}/{preset}/{SERVE_INSTRS}", "miss",
                         dict(client="c1", workload=app, preset=preset,
                              instrs=SERVE_INSTRS)))
    for nws, nbs in SERVE_GRIDS:
        key = (f"{FIG8_APP}/grid{list(nws)}x{list(nbs)}/{SERVE_INSTRS}"
               f"/warm{SERVE_WARMUP}").replace(" ", "")
        pool.append((key, "grid-miss",
                     dict(client="c1", workload=FIG8_APP, nw=list(nws), nb=list(nbs),
                          instrs=SERVE_INSTRS, warmup=SERVE_WARMUP)))
    return pool


def serve_schedule(seed):
    """One session: every pool item submitted 1 + SERVE_HITS[class] times,
    in the seed's order. An item's first submission misses the cache and
    the rest hit it, so the mix of classes is the same for every seed.
    Returns (class, key, submit line) tuples."""
    rng = random.Random(seed)
    slots = [item for item in serve_pool() for _ in range(1 + SERVE_HITS[item[1]])]
    rng.shuffle(slots)
    seen, out = set(), []
    for i, (key, cls, fields) in enumerate(slots):
        if key in seen:
            cls = "hit" if cls == "miss" else "grid-hit"
        seen.add(key)
        out.append((cls, key, submit(f"r{i}", **fields)))
    return out


def make_plan(workload, seed, seconds, trace, mbserve, scratch):
    """The plan file mbbench_harness runs, as text."""
    lines = [f"seconds {seconds}", f"trace {int(trace)}",
             f"setup_reps {SETUP_REPS}", f"warmup {PROBE_WARMUP[workload]}",
             f"mbserve {mbserve}", f"scratch {scratch}"]
    if workload == "fig8-mcf":
        for i, (nw, nb) in enumerate(fig8_grid(seed)):
            lines.append(f"point {fig8_key(nw, nb)} " + submit(
                f"p{i}", workload=FIG8_APP, preset="tsi-baseline",
                instrs=FIG8_INSTRS, nw=[nw], nb=[nb]))
        # Traced run: a short daemon session over the grid's corners.
        for i, (nw, nb) in enumerate(((1, 1), (16, 16), (1, 16), (16, 1))):
            for rep, cls in enumerate(("miss", "hit")):
                lines.append(f"probe_request {cls} {fig8_key(nw, nb, 30000)} " + submit(
                    f"q{i}{'ab'[rep]}", workload=FIG8_APP, instrs=30000,
                    nw=[nw], nb=[nb]))
    elif workload == "radix-64c":
        lines.append(f"point RADIX/tsi-baseline/{RADIX_INSTRS} " + submit(
            "radix", workload="RADIX", preset="tsi-baseline", instrs=RADIX_INSTRS))
        for rep, cls in enumerate(("miss", "hit")):
            lines.append(f"probe_request {cls} RADIX/tsi-baseline/2000 " + submit(
                f"q{rep}", workload="RADIX", instrs=2000))
    elif workload == "serve-replay":
        for cls, key, line in serve_schedule(seed):
            lines.append(f"request {cls} {key} {line}")
    else:
        raise ValueError(f"unknown workload {workload}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- statistics

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n):
    """The highest percentile with at least 10 samples beyond it, or None
    (report the median only)."""
    for p in TAIL_CANDIDATES:
        # 1e-6 absorbs the rounding of 100 - 99.9.
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-6:
            return p
    return None


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values):
    """Median, the tail percentile the sample count supports, and n."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


# ------------------------------------------------------------ output check

def load_expected(path):
    with open(path) as f:
        return json.load(f)["digests"]


def check_records(records, expected):
    """Count attempted and failed operations.

    Every simulated point and every served request is one operation. It
    fails when the run reports it failed or trapped an MB_CHECK, when a
    digest is missing from or differs from the pinned one, when a served
    hit's bytes differ from the same session's cold result, or when a
    request meant to hit the cache simulated (or the reverse). A daemon
    session that does not exit cleanly counts as one failed operation.
    Returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    cold = {}  # (round, point key) -> digest of the cold result

    def pinned(key, digest):
        if key not in expected:
            return ["no pinned digest"]
        if expected[key] != digest:
            return [f"digest {digest} != pinned {expected[key]}"]
        return []

    for r in records:
        t = r.get("type")
        if t == "error":
            what, wrong = "error", [r.get("error", "error")]
        elif t == "daemon":
            if r.get("clean_exit"):
                continue
            what, wrong = f"mbserve session {r.get('round')}", ["did not exit cleanly"]
        elif t == "op":
            what = r["key"]
            wrong = pinned(what, r["digest"]) if r.get("ok") else [r.get("error", "failed")]
        elif t == "req":
            cls, key = r["class"], r["key"]
            what = f"{key} ({cls})"
            hit = cls in ("hit", "grid-hit")
            wrong = [] if r.get("ok") else [r.get("error", "failed")]
            if not r.get("points"):
                wrong.append("no points")
            for p in r.get("points", []):
                pkey = f"{key}#{p['index']}"
                wrong += [f"{pkey}: {m}" for m in pinned(pkey, p["digest"])]
                if p.get("cached") != hit:
                    wrong.append(f"{pkey}: cached={p.get('cached')} on a {cls}")
                ck = (r.get("round"), pkey)
                if not hit:
                    cold[ck] = p["digest"]
                elif ck in cold and cold[ck] != p["digest"]:
                    wrong.append(f"{pkey}: hit bytes differ from the cold result")
        else:
            continue
        attempted += 1
        if wrong:
            failed += 1
            problems.append(f"{what}: " + "; ".join(wrong))
    return attempted, failed, problems


def observed_digests(records):
    """Digests seen in a run, for regenerating the pinned file. Raises when
    one key shows two digests (the run itself is not deterministic)."""
    seen = {}

    def put(key, digest):
        if seen.setdefault(key, digest) != digest:
            raise ValueError(f"{key}: two digests in one run")

    for r in records:
        if r.get("type") == "op" and r.get("ok"):
            put(r["key"], r["digest"])
        elif r.get("type") == "req" and r.get("ok"):
            for p in r["points"]:
                put(f"{r['key']}#{p['index']}", p["digest"])
    return seen


# ---------------------------------------------------------------- metrics

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def host_scaled(metrics, ref_ms):
    """The timings at the nominal host speed, given the run's median
    reference-kernel time. Without a reference time the timings are 0, which
    run.py reports as missing."""
    k = ref_ms / HOST_REF_NOMINAL_MS
    out = dict(metrics)
    for m in HOST_SCALED_TIMES:
        out[m] = metrics[m] / k if k > 0 else 0.0
    for m in HOST_SCALED_RATES:
        out[m] = metrics[m] * k
    return out


def end_to_end(workload, records):
    """The end-to-end metrics of an untraced run, plus details for the
    result file."""
    metrics, details = _unscaled(workload, records)
    ref = summarize([r["seconds"] * 1e3 for r in records if r.get("type") == "hostref"])
    details["host_ref_ms"] = ref
    details["unscaled"] = metrics
    return host_scaled(metrics, ref.get("p50", 0.0)), details


def _unscaled(workload, records):
    rounds = [r for r in records if r.get("type") == "round"]
    setup = [r["seconds"] for r in records if r.get("type") == "setup"]
    metrics = {"setup_s": _median(setup)}
    details = {"rounds": len(rounds), "setup_reps": len(setup)}
    if workload == "serve-replay":
        reqs = [r for r in records if r.get("type") == "req" and r.get("ok")]
        by_class = {}
        for r in reqs:
            by_class.setdefault(r["class"], []).append(r["total_ms"])
        misses = [r for r in reqs if r["class"] == "miss"]
        instrs = sum(p["instrs"] for r in misses for p in r["points"])
        miss_s = sum(r["total_ms"] for r in misses) / 1e3
        daemons = [r for r in records if r.get("type") == "daemon"]
        metrics["sim_minstr_per_s"] = instrs / 1e6 / miss_s if miss_s > 0 else 0.0
        metrics["sim_cpu_s"] = _median([r["cpu_s"] for r in rounds])
        hits = by_class.get("hit", [])
        metrics["op_ms_p50"] = _median(hits)
        # Hits over their own submit->done time: the serve path's throughput,
        # whatever share of a session the misses take.
        metrics["ops_per_s"] = len(hits) / (sum(hits) / 1e3) if sum(hits) > 0 else 0.0
        metrics["peak_rss_mib"] = _median([r["rss_kib"] / 1024.0 for r in daemons])
        details["latency_ms"] = {c: summarize(v) for c, v in sorted(by_class.items())}
        per_session = {}
        for r in reqs:
            if r["class"] == "hit":
                per_session.setdefault(r["round"], []).append(r["total_ms"])
        p95s = [percentile(v, 95.0) for v in per_session.values()
                if tail_percentile(len(v)) == 95.0]
        details["serve_hit_ms_p95"] = {"median_over_sessions": _median(p95s),
                                       "sessions": len(p95s)}
        details["admit_ms"] = summarize([r["admit_ms"] for r in reqs])
    else:
        ops = [r for r in records if r.get("type") == "op" and r.get("ok")]
        per_round = {}
        for o in ops:
            per_round.setdefault(o["round"], []).append(o)
        rates = []
        for r in rounds:
            instrs = sum(o["instrs"] for o in per_round.get(r["round"], []))
            if r["wall_s"] > 0:
                rates.append(instrs / 1e6 / r["wall_s"])
        metrics["sim_minstr_per_s"] = _median(rates)
        metrics["sim_cpu_s"] = _median([r["cpu_s"] for r in rounds])
        metrics["op_ms_p50"] = _median([o["wall_s"] * 1e3 for o in ops])
        metrics["ops_per_s"] = _median(
            [len(per_round.get(r["round"], [])) / r["wall_s"] for r in rounds
             if r["wall_s"] > 0])
        peaks = [r["rss_kib"] for r in records if r.get("type") == "peak"]
        metrics["peak_rss_mib"] = max(peaks) / 1024.0 if peaks else 0.0
        details["latency_ms"] = {"op": summarize([o["wall_s"] * 1e3 for o in ops])}
        if workload == "fig8-mcf":
            details["mcf_rel_ipc_16x16"] = mcf_rel_ipc(ops)
            details["paper_mcf_rel_ipc_16x16"] = PAPER_MCF_REL_IPC_16X16
    return metrics, details


def mcf_rel_ipc(ops):
    """IPC of (16,16) over (1,1) on 429.mcf — simulated, deterministic."""
    ipc = {o["key"]: o["ipc"] for o in ops}
    base, top = ipc.get(fig8_key(1, 1)), ipc.get(fig8_key(16, 16))
    return top / base if base and top else None


def per_layer(records):
    layers = [r for r in records if r.get("type") == "layers"]
    return layers[-1]["metrics"] if layers else {}


# ------------------------------------------------------------------- host

def _first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return out.stdout.splitlines()[0].strip() if out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def _cmake_cache(build_dir, name):
    cache = Path(build_dir) / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest(root):
    """SHA-256 over the simulator and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    root = Path(root)
    files = sorted(p for d in ("src", "tools", "mbbench") for p in (root / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def host_record(root, build_dir):
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = _cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    build_type = _cmake_cache(build_dir, "CMAKE_BUILD_TYPE")
    commit = None
    if (Path(root) / ".git").exists():
        commit = _first_line(["git", "-C", str(root), "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "compiler": (_first_line([compiler, "--version"]) if compiler else None)
        or "unknown",
        "build_type": build_type or "unknown",
        "optimised": build_type in OPTIMISED_BUILD_TYPES,
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
    }
