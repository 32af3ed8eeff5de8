"""Tests of the benchmark's own helpers: percentiles, name checks and the
correctness gates.  Run with:  python3 -m unittest discover -s perfbench"""

import copy
import json
import unittest
from pathlib import Path

import benchlib
from benchlib import GateFailure

HERE = Path(__file__).resolve().parent


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, "99.9"), 100)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_unsorted_input(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.summarize([])

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990, exactly 10 beyond -> valid.
        s = benchlib.summarize([float(i) for i in range(1000)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p99"], 989.0)
        self.assertEqual(s["top_pct"], "99")
        # 999 samples: only 9 beyond p99 -> not valid; p95 is the highest.
        s = benchlib.summarize([float(i) for i in range(999)])
        self.assertIsNone(s["p99"])
        self.assertEqual(s["top_pct"], "95")

    def test_highest_percentile_with_enough_samples(self):
        s = benchlib.summarize([float(i) for i in range(100000)])
        self.assertEqual(s["top_pct"], "99.99")  # 10 beyond; 99.999 has 1
        self.assertEqual(s["top"], 99989.0)
        self.assertEqual(s["p50"], 49999.0)

    def test_too_few_samples_for_any_percentile(self):
        s = benchlib.summarize([1.0, 2.0, 3.0])
        self.assertIsNone(s["top_pct"])
        self.assertIsNone(s["top"])
        self.assertEqual(s["p50"], 2.0)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "core.htm.preview_us", "sim-overload", "p99", "9lives"):
            self.assertEqual(benchlib.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", ".hidden", "-x", "has space", "slash/name", "x" * 65, "ü", None):
            with self.assertRaises(ValueError, msg=repr(name)):
                benchlib.check_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "us"):
            self.assertEqual(benchlib.check_unit(unit), unit)
        for unit in ("", "milli seconds", "x" * 17):
            with self.assertRaises(ValueError):
                benchlib.check_unit(unit)

    def test_benchmark_file_is_valid(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e, layers = benchlib.validate_benchmark(bench)
        self.assertIn("setup_s", e2e)
        self.assertIn("core.htm.busy_share", layers)
        spec = json.loads((HERE / "workloads.json").read_text())
        self.assertEqual(sorted(spec["workloads"]), sorted(w["name"] for w in bench["workloads"]))
        # Every layer metric names the user-facing metrics and workloads it
        # moves: the end-to-end set plus the tail, reported without a bound.
        self.assertEqual(sorted(spec["layer_map"]), sorted(layers))
        user_facing = set(e2e) | {"latency_p99_ms"}
        for entry in spec["layer_map"].values():
            self.assertTrue(set(entry["moves"]) <= user_facing)
            self.assertTrue(set(entry["on"] + entry.get("flat_on", [])) <= set(spec["workloads"]))

    def test_duplicate_names_rejected(self):
        bench = {"workloads": [{"name": "a", "why": "x"}],
                 "end_to_end": [{"name": "a", "unit": "s"}], "per_layer": []}
        with self.assertRaises(ValueError):
            benchlib.validate_benchmark(bench)


def sim_raw(**campaign_overrides):
    cpu = 2 * benchlib.MIN_CAMPAIGN_S
    nominal = benchlib.REFERENCE_NOMINAL_S
    campaign = {"wall_s": 1.5 * cpu, "cpu_s": cpu, "attempted": 100, "completed": 100,
                "lost": 0, "sum_flow_s": 1234.5, "events": 999,
                "setup_s": [0.01, 0.02, 0.03],
                "reference_s": [0.9 * nominal, nominal, 1.3 * nominal]}
    # The host ran 5% slower during the second repetition: its campaigns,
    # set-up and reference all took 5% longer.
    second = dict(campaign, cpu_s=1.05 * cpu, setup_s=[1.05 * 0.02],
                  reference_s=[1.05 * nominal])
    second.update(campaign_overrides)
    return {"kind": "sim", "servers": 4,
            "campaigns": [campaign, second],
            "latencies_ms": [float(i) for i in range(2000)],
            "peak_reported_load": 200.0, "peak_rss_kb": 2048}


def live_raw(**window_overrides):
    # Two INTERVAL_S slices of 1000 samples each.
    span = 2 * benchlib.INTERVAL_S
    window = {"requests": 2000, "failed": 0, "missing_terminals": 0,
              "duplicate_terminals": 0, "unknown_ids": 0, "span_s": span,
              "due_s": [span * i / 2000 for i in range(2000)],
              "latencies_ms": [1.0 + i / 1000 for i in range(2000)]}
    window.update(window_overrides)
    return {"kind": "live", "setup_s": [0.001], "servers": 4, "rate": 2000,
            "window": window, "decode_errors": 0, "peak_rss_kb": 4096}


class SimGateTest(unittest.TestCase):
    def test_passing_run(self):
        metrics, attempted, failed, _ = benchlib.end_to_end(sim_raw())
        self.assertEqual((attempted, failed), (200, 0))
        # Wall time (the CPU shared with others) and the host's slow phase
        # are both scaled out.
        cpu = 2 * benchlib.MIN_CAMPAIGN_S
        self.assertAlmostEqual(metrics["tasks_per_s"], 100 / cpu)
        self.assertAlmostEqual(metrics["mean_flow_s"], 12.345)
        self.assertAlmostEqual(metrics["setup_s"], 0.02)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["latency_p50_ms"], 999.0)
        self.assertNotIn("latency_p99_ms", metrics)  # per-layer, unbounded
        p50, p99, _, _ = benchlib.latency_figures(sim_raw())
        self.assertEqual((p50, p99), (999.0, 1979.0))

    def test_lost_task_fails(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(sim_raw(completed=99, lost=1))

    def test_unaccounted_task_fails(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(sim_raw(completed=99))

    def test_flow_must_repeat_exactly(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(sim_raw(sum_flow_s=1234.5000000001))

    def test_short_campaign_refused(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(sim_raw(cpu_s=0.9 * benchlib.MIN_CAMPAIGN_S))

    def test_slow_program_not_scaled_away(self):
        # The campaigns slow down but the reference does not: that is the
        # program's doing and must show.
        nominal = benchlib.REFERENCE_NOMINAL_S
        raw = sim_raw(cpu_s=2 * benchlib.MIN_CAMPAIGN_S * 1.5, reference_s=[nominal])
        metrics, _, _, _ = benchlib.end_to_end(raw)
        cpu = 2 * benchlib.MIN_CAMPAIGN_S
        self.assertAlmostEqual(metrics["tasks_per_s"], (100 / cpu + 100 / (1.5 * cpu)) / 2)

    def test_missing_reference_refused(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(sim_raw(reference_s=[]))

    def test_single_campaign_refused(self):
        raw = sim_raw()
        raw["campaigns"].pop()
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(raw)

    def test_too_few_latency_samples_refused(self):
        raw = sim_raw()
        raw["latencies_ms"] = raw["latencies_ms"][:500]
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(raw)


class LiveGateTest(unittest.TestCase):
    def test_passing_run(self):
        metrics, attempted, failed, _ = benchlib.end_to_end(live_raw())
        self.assertEqual((attempted, failed), (2000, 0))
        self.assertEqual(metrics["tasks_per_s"], 2000.0 / (2 * benchlib.INTERVAL_S))
        # Two slices of 1000 samples: p50s 1.499 and 2.499, p99s 1.989 and
        # 2.989, means 1.4995 and 2.4995; the medians of the two.
        self.assertAlmostEqual(metrics["latency_p50_ms"], 1.999)
        self.assertAlmostEqual(metrics["mean_flow_s"], 0.0019995)
        _, p99, _, _ = benchlib.latency_figures(live_raw())
        self.assertAlmostEqual(p99, 2.489)

    def test_slices_need_a_valid_p99(self):
        # Four slices of 500 samples: a p99 would have only 5 beyond it.
        span = 4 * benchlib.INTERVAL_S
        raw = live_raw(due_s=[span * i / 2000 for i in range(2000)], span_s=span)
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(raw)

    def test_failed_request_fails(self):
        # A denied or failed request is not a success, however fast.
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(live_raw(failed=1))

    def test_missing_terminal_fails(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(live_raw(missing_terminals=1))

    def test_duplicate_terminal_fails(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(live_raw(duplicate_terminals=1))

    def test_unknown_id_fails(self):
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(live_raw(unknown_ids=1))

    def test_decode_error_fails(self):
        raw = live_raw()
        raw["decode_errors"] = 1
        with self.assertRaises(GateFailure):
            benchlib.end_to_end(raw)


class IntervalTest(unittest.TestCase):
    def test_short_trailing_part_joins_last_slice(self):
        due = [benchlib.INTERVAL_S * t for t in (0.1, 0.2, 1.1, 1.2, 1.3, 2.05)]
        slices = benchlib.interval_summaries(due, [1, 2, 3, 4, 5, 6])
        self.assertEqual([s["n"] for s in slices], [2, 4])
        self.assertEqual([s["mean"] for s in slices], [1.5, 4.5])

    def test_short_window_is_one_slice(self):
        due = [benchlib.INTERVAL_S * t for t in (0.1, 0.5)]
        slices = benchlib.interval_summaries(due, [1.0, 3.0])
        self.assertEqual(len(slices), 1)
        self.assertEqual(slices[0]["n"], 2)


def sim_reconcile(unaccounted):
    parts = {"core.htm": 0.6, "simcore": 0.3, "unaccounted_s": unaccounted}
    return {"parent": "exp.campaign_s", "total": 0.9 + unaccounted, "parts": parts}


def live_reconcile(**overrides):
    parts = {"net.stage.ingress": 0.3, "net.stage.decide": 0.001,
             "net.stage.to_server": 0.8, "net.stage.exec": 0.25,
             "net.stage.egress": 0.6, "unaccounted_s": 0.0}
    reconcile = {"parent": "mean latency (s)", "total": sum(parts.values()),
                 "samples": 100, "chains": 100, "unordered_chains": 0,
                 "max_disorder_s": 0.0, "parts": parts}
    reconcile.update(overrides)
    return reconcile


class ReconcileTest(unittest.TestCase):
    def test_sim_remainder_may_be_positive(self):
        benchlib.gate_sim_reconcile(sim_reconcile(0.5))
        benchlib.gate_sim_reconcile(sim_reconcile(-0.05))

    def test_sim_estimates_may_not_exceed_the_campaign(self):
        # Estimates of 0.9 s in a 0.7 s campaign: 29% over.
        with self.assertRaises(GateFailure):
            benchlib.gate_sim_reconcile(sim_reconcile(-0.2))

    def test_parts_that_do_not_add_up_fail(self):
        r = sim_reconcile(0.1)
        r["total"] = 2.0
        with self.assertRaises(GateFailure):
            benchlib.gate_sim_reconcile(r)

    def test_live_breakdown(self):
        benchlib.gate_live_reconcile(live_reconcile())

    def test_live_needs_a_chain_per_completed_request(self):
        with self.assertRaises(GateFailure):
            benchlib.gate_live_reconcile(live_reconcile(chains=99))

    def test_live_chains_must_be_ordered(self):
        # One chain in a hundred may run backwards (a preempted loop turn).
        benchlib.gate_live_reconcile(live_reconcile(unordered_chains=1))
        with self.assertRaises(GateFailure):
            benchlib.gate_live_reconcile(live_reconcile(unordered_chains=2))

    def test_live_decision_longer_than_its_stage_fails(self):
        r = live_reconcile()
        r["parts"]["net.stage.to_server"] = -0.1
        r["parts"]["net.stage.decide"] = 0.901
        with self.assertRaises(GateFailure):
            benchlib.gate_live_reconcile(r)

    def test_live_stages_must_add_up(self):
        r = live_reconcile()
        r["parts"]["unaccounted_s"] = 0.1
        r["total"] += 0.1
        with self.assertRaises(GateFailure):
            benchlib.gate_live_reconcile(r)

    def test_traced_sim_run(self):
        layers = ["core.htm.busy_share", "net.stage.ingress_ms", "latency_p99_ms"]
        raw = {"kind": "sim", "trace_equivalence_mismatches": 0, "traced_attempted": 10,
               "traced_lost": 0, "reconcile": sim_reconcile(0.1),
               "latencies_ms": [float(i) for i in range(1000)],
               "layers": {"core.htm.busy_share": 0.7}}
        values, attempted, failed, _ = benchlib.per_layer(raw, layers)
        self.assertEqual(values, {"core.htm.busy_share": 0.7, "net.stage.ingress_ms": 0.0,
                                  "latency_p99_ms": 989.0})
        self.assertEqual((attempted, failed), (10, 0))
        diverged = copy.deepcopy(raw)
        diverged["trace_equivalence_mismatches"] = 1
        with self.assertRaises(GateFailure):
            benchlib.per_layer(diverged, layers)
        overshoot = copy.deepcopy(raw)
        overshoot["reconcile"] = sim_reconcile(-0.5)
        with self.assertRaises(GateFailure):
            benchlib.per_layer(overshoot, layers)
        unknown = copy.deepcopy(raw)
        unknown["layers"]["not.listed"] = 1.0
        with self.assertRaises(ValueError):
            benchlib.per_layer(unknown, layers)

    def test_traced_live_run(self):
        layers = ["net.stage.ingress_ms", "latency_p99_ms"]
        raw = live_raw()
        raw.update({"traced_window": live_raw()["window"], "reconcile": live_reconcile(),
                    "layers": {"net.stage.ingress_ms": 0.3}})
        values, attempted, failed, _ = benchlib.per_layer(raw, layers)
        self.assertEqual(values["net.stage.ingress_ms"], 0.3)
        self.assertEqual((attempted, failed), (4000, 0))
        raw["traced_window"]["failed"] = 1
        with self.assertRaises(GateFailure):
            benchlib.per_layer(raw, layers)


if __name__ == "__main__":
    unittest.main()
