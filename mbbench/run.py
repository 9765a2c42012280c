#!/usr/bin/env python3
"""Microbank benchmark: build, run one workload, check, report.

    python3 mbbench/run.py --workload fig8-mcf --seed 1 --seconds 20 --trace 0
    python3 mbbench/run.py --write-expected     # regenerate pinned digests

Run from the repository root. The first run configures and builds the
simulator library, mbserve and the harness under .bench_build/ (about a
minute on 4 threads); later runs only re-check the build. The last line of
standard output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1). A
full result file with the host record lands in .bench_build/results/.
See mbbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "mbbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "mbbench"
EXPECTED = BENCH_DIR / "expected.json"
HARNESS_TIMEOUT_S = 160


def die(msg, code=2):
    print(f"mbbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build. Output goes to a log."""
    for need in ("src/CMakeLists.txt", "tools/mbserve.cpp"):
        if not (ROOT / need).is_file():
            die(f"{need} not found: run from a full checkout of the repository")
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / "mbbench-build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0
        ok = (BUILD_DIR / "CMakeCache.txt").exists() or step(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        ok = ok and step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    if not ok:
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        die("build failed:\n" + "\n".join(tail))


def run_harness(plan_text, run_dir):
    """Run the harness on a plan; returns its records. The harness and the
    daemons it spawns share a process group, killed as one on timeout."""
    run_dir.mkdir(parents=True, exist_ok=True)
    plan_path = run_dir / "plan.txt"
    plan_path.write_text(plan_text)
    proc = subprocess.Popen([str(BUILD_DIR / "mbbench_harness"), f"--plan={plan_path}"],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        die(f"harness exited with {proc.returncode}", 1)
    records = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            records.append(json.loads(line))
    return records


def plan_for(workload, seed, seconds, trace, run_dir):
    return benchlib.make_plan(workload, seed, seconds, trace,
                              BUILD_DIR / "mbserve", run_dir)


def run_once(args):
    build()
    host = benchlib.host_record(ROOT, BUILD_DIR)
    if not host["optimised"]:
        print("=" * 72 + f"\nWARNING: build type {host['build_type']!r} is not an "
              "optimised build; timings are meaningless\n" + "=" * 72, file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_DIR / "runs" / tag
    start = time.time()
    records = run_harness(plan_for(args.workload, args.seed, args.seconds, args.trace,
                                  run_dir), run_dir)
    attempted, failed, problems = benchlib.check_records(
        records, benchlib.load_expected(EXPECTED))

    details = {}
    if args.trace:
        layers = benchlib.per_layer(records)
        table = benchlib.PER_LAYER
        missing = [m for m in table if m not in layers]
        values = {m: layers[m] for m in table if m in layers}
        if missing:
            problems.append("per-layer metrics missing: " + ", ".join(missing))
        if not any(r.get("type") == "layers" and r.get("ok") for r in records):
            problems.append("a layer probe failed")
        details["spans"] = str((run_dir / "spans.jsonl").relative_to(ROOT))
    else:
        table = benchlib.END_TO_END
        values, details = benchlib.end_to_end(args.workload, records)
        missing = [m for m in table if not values.get(m)]
        if missing:
            problems.append("end-to-end metrics missing or zero: " + ", ".join(missing))
    attempted = max(attempted, 1)
    correct = failed == 0 and not problems

    metrics = {m: {"value": values[m], "unit": table[m][0]} for m in table if m in values}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, elapsed_s=time.time() - start, host=host,
                  details=details, problems=problems[:50])
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for p in problems[:20]:
        print(f"mbbench: FAILED {p}", file=sys.stderr)
    for m, v in metrics.items():
        print(f"{args.workload:13s} {m:28s} {v['value']:14.6g} {v['unit']}")
    if "mcf_rel_ipc_16x16" in details:
        print(f"{args.workload:13s} {'mcf_rel_ipc_16x16':28s} "
              f"{details['mcf_rel_ipc_16x16']:14.6g} (paper: "
              f"{benchlib.PAPER_MCF_REL_IPC_16X16})")
    print(json.dumps(result))


def write_expected():
    """Regenerate the pinned digests from one untraced round and one traced
    run of every workload. Only for a commit that changes simulated output
    on purpose and says why."""
    build()
    digests = {}
    for workload in benchlib.WORKLOADS:
        for trace in (0, 1):
            run_dir = OUT_DIR / "runs" / f"{workload}-expected-trace{trace}"
            records = run_harness(plan_for(workload, 1, 1, trace, run_dir), run_dir)
            for key, digest in benchlib.observed_digests(records).items():
                if digests.setdefault(key, digest) != digest:
                    die(f"{key}: digests differ between runs")
            print(f"mbbench: {workload} trace={trace}: {len(digests)} digests so far",
                  file=sys.stderr)
    doc = {"comment": "FNV-1a 64 of sim::runResultToJson for every simulated point "
                      "of the benchmark (keys: see mbbench/benchlib.py). Regenerate "
                      "with `python3 mbbench/run.py --write-expected` only in a commit "
                      "that changes simulated output on purpose and says why.",
           "digests": dict(sorted(digests.items()))}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"mbbench: wrote {len(digests)} digests to {EXPECTED.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if args.write_expected:
        write_expected()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        run_once(args)


if __name__ == "__main__":
    main()
