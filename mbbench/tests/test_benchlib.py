"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s mbbench/tests

The harness test runs only when the benchmark has been built
(python3 mbbench/run.py builds it under .bench_build/).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402

HARNESS = BENCH.parent / ".bench_build" / "mbbench" / "mbbench_harness"


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(0))
        self.assertIsNone(benchlib.tail_percentile(39))
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertEqual(benchlib.tail_percentile(99), 75.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_summary_reports_median_only_below_the_rule(self):
        self.assertEqual(benchlib.summarize([3.0, 1.0, 2.0]), {"n": 3, "p50": 2.0})

    def test_summary_carries_tail_and_count(self):
        s = benchlib.summarize([float(i) for i in range(1, 201)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["p50"], 100.5)
        self.assertAlmostEqual(s["p95"], 190.05)
        self.assertNotIn("p99", s)


class SeedPlumbing(unittest.TestCase):
    def plan(self, workload, seed):
        return benchlib.make_plan(workload, seed, 10, 0, "mbserve", "scratch")

    def test_same_seed_same_inputs(self):
        for w in benchlib.WORKLOADS:
            self.assertEqual(self.plan(w, 7), self.plan(w, 7), w)
        self.assertEqual(benchlib.fig8_grid(7), benchlib.fig8_grid(7))
        self.assertEqual(benchlib.serve_schedule(7), benchlib.serve_schedule(7))

    def test_other_seed_changes_serve_schedule_and_grid_order(self):
        self.assertNotEqual(benchlib.serve_schedule(7), benchlib.serve_schedule(8))
        self.assertNotEqual(self.plan("serve-replay", 7), self.plan("serve-replay", 8))
        self.assertNotEqual(benchlib.fig8_grid(7), benchlib.fig8_grid(8))
        self.assertEqual(sorted(benchlib.fig8_grid(7)), sorted(benchlib.fig8_grid(8)))

    def test_schedule_shape(self):
        sched = benchlib.serve_schedule(3)
        pool = {key: cls for key, cls, _ in benchlib.serve_pool()}
        seen = set()
        for cls, key, line in sched:
            if cls in ("miss", "grid-miss"):
                self.assertNotIn(key, seen)
                seen.add(key)
            else:
                self.assertIn(key, seen)
        self.assertEqual(seen, set(pool))
        for key, cls in pool.items():
            n = sum(1 for _, k, _ in sched if k == key)
            self.assertEqual(n, 1 + benchlib.SERVE_HITS[cls], key)
        ids = [json.loads(line)["id"] for _, _, line in sched]
        self.assertEqual(len(ids), len(set(ids)))

    def test_one_session_has_enough_hits_for_a_p95(self):
        hits = [c for c, _, _ in benchlib.serve_schedule(3) if c == "hit"]
        self.assertEqual(benchlib.tail_percentile(len(hits)), 95.0)

    def test_every_planned_point_has_a_pinned_digest(self):
        expected = benchlib.load_expected(BENCH / "expected.json")
        keys = [benchlib.fig8_key(nw, nb) for nw, nb in benchlib.fig8_grid(1)]
        keys += [f"{key}#0" for key, cls, _ in benchlib.serve_pool() if cls == "miss"]
        for key in keys:
            self.assertIn(key, expected)


def op(key, digest, ok=True):
    return {"type": "op", "round": 0, "key": key, "ok": ok, "digest": digest,
            "wall_s": 1.0, "cpu_s": 1.0, "instrs": 1, "ipc": 1.0}


def req(cls, key, digest, cached, rnd=0):
    return {"type": "req", "round": rnd, "key": key, "class": cls, "ok": True,
            "total_ms": 1.0, "admit_ms": 0.1, "exec_ms": 0.9,
            "points": [{"index": 0, "ok": True, "cached": cached, "digest": digest,
                        "instrs": 1}]}


class OutputCheck(unittest.TestCase):
    EXPECTED = {"a": "00000000000000aa", "s#0": "00000000000000bb"}

    def test_matching_digests_pass(self):
        records = [op("a", "00000000000000aa"),
                   req("miss", "s", "00000000000000bb", False),
                   req("hit", "s", "00000000000000bb", True)]
        self.assertEqual(benchlib.check_records(records, self.EXPECTED), (3, 0, []))

    def test_corrupted_pinned_digest_counts_as_failure(self):
        corrupt = dict(self.EXPECTED, a="00000000000000ab")
        attempted, failed, problems = benchlib.check_records(
            [op("a", "00000000000000aa")], corrupt)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("pinned", problems[0])

    def test_trapped_check_and_unknown_point_count_as_failures(self):
        records = [op("a", "", ok=False), op("zz", "00000000000000aa")]
        self.assertEqual(benchlib.check_records(records, self.EXPECTED)[:2], (2, 2))

    def test_hit_differing_from_cold_counts_as_failure(self):
        expected = dict(self.EXPECTED)
        records = [req("miss", "s", "00000000000000bb", False),
                   req("hit", "s", "00000000000000cc", True)]
        attempted, failed, problems = benchlib.check_records(records, expected)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("differ from the cold result", problems[0])

    def test_unclean_daemon_exit_counts_as_failure(self):
        records = [{"type": "daemon", "round": 0, "rss_kib": 1, "clean_exit": False}]
        self.assertEqual(benchlib.check_records(records, self.EXPECTED)[:2], (1, 1))

    def test_hit_that_simulated_counts_as_failure(self):
        records = [req("hit", "s", "00000000000000bb", False)]
        self.assertEqual(benchlib.check_records(records, self.EXPECTED)[:2], (1, 1))


class ServeMetrics(unittest.TestCase):
    def session(self, hit_ms, misses):
        records = [{"type": "round", "round": 0, "wall_s": 5.0, "cpu_s": 1.0},
                   {"type": "daemon", "round": 0, "rss_kib": 1024, "clean_exit": True},
                   {"type": "hostref", "seconds": benchlib.HOST_REF_NOMINAL_MS / 1e3}]
        for ms in hit_ms:
            records.append(dict(req("hit", "s", "bb", True), total_ms=ms))
        for _ in range(misses):
            records.append(dict(req("miss", "s", "bb", False), total_ms=60.0))
        return benchlib.end_to_end("serve-replay", records)[0]

    def test_hit_throughput_ignores_the_misses(self):
        few, many = self.session([0.5, 0.5, 1.0], 1), self.session([0.5, 0.5, 1.0], 40)
        self.assertAlmostEqual(few["ops_per_s"], 3 / 2e-3)
        self.assertEqual(few["ops_per_s"], many["ops_per_s"])
        self.assertEqual(few["op_ms_p50"], 0.5)


class HostScaling(unittest.TestCase):
    def run_at(self, slowdown):
        """A fig8-style run whose every host time is `slowdown` times longer."""
        records = [{"type": "setup", "seconds": 0.002 * slowdown},
                   {"type": "hostref", "seconds": benchlib.HOST_REF_NOMINAL_MS / 1e3 * slowdown},
                   {"type": "round", "round": 0, "wall_s": 2.0 * slowdown,
                    "cpu_s": 2.0 * slowdown},
                   {"type": "peak", "rss_kib": 2048}]
        for i in range(4):
            records.append(dict(op(benchlib.fig8_key(1, 1), "aa"), wall_s=0.5 * slowdown,
                                instrs=1000000))
        return benchlib.end_to_end("fig8-mcf", records)

    def test_a_uniformly_slower_host_reads_the_same(self):
        base, _ = self.run_at(1.0)
        slow, details = self.run_at(1.3)
        for m, v in base.items():
            self.assertAlmostEqual(slow[m], v, msg=m)
        self.assertAlmostEqual(details["unscaled"]["sim_minstr_per_s"],
                               base["sim_minstr_per_s"] / 1.3)

    def test_no_reference_time_zeroes_the_timings(self):
        metrics, _ = benchlib.end_to_end(
            "radix-64c", [{"type": "round", "round": 0, "wall_s": 1.0, "cpu_s": 1.0}])
        self.assertEqual(metrics["sim_cpu_s"], 0.0)


@unittest.skipUnless(HARNESS.exists(), "benchmark not built")
class HarnessDigest(unittest.TestCase):
    def test_corrupted_digest_of_a_real_run_is_counted(self):
        key = benchlib.fig8_key(2, 2, 2000)
        line = benchlib.submit("p0", workload=benchlib.FIG8_APP, preset="tsi-baseline",
                               instrs=2000, nw=[2], nb=[2])
        with tempfile.TemporaryDirectory() as tmp:
            plan = Path(tmp) / "plan.txt"
            plan.write_text(f"seconds 0\ntrace 0\nsetup_reps 1\n"
                            f"scratch {tmp}\npoint {key} {line}\n")
            out = subprocess.run([str(HARNESS), f"--plan={plan}"], capture_output=True,
                                 text=True, check=True, timeout=120).stdout
        records = [json.loads(x) for x in out.splitlines() if x.startswith("{")]
        digest = next(r["digest"] for r in records if r["type"] == "op")
        self.assertEqual(benchlib.check_records(records, {key: digest})[1], 0)
        flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        self.assertEqual(benchlib.check_records(records, {key: flipped})[1], 1)


if __name__ == "__main__":
    unittest.main()
