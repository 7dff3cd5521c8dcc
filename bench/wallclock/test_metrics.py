"""Tests of the benchmark's metric math and correctness gate.

    python3 -m unittest discover -s bench/wallclock -p 'test_*.py'
"""

import unittest

import metrics


def make_cell(name, execs=1000, loop_ns=4_000_000, stop="budget", traced=False):
    t = {"begin": 100, "run_call": 200, "init": 300, "loop_begin": 1_000_000}
    t["end"] = t["loop_begin"] + loop_ns
    cell = {
        "name": name,
        "stop": stop,
        "soft_failures": 0,
        "t": t,
        # Four equal loop windows.
        "marks": [t["loop_begin"] + k * loop_ns // 4 for k in (1, 2, 3)],
        "out": {
            "execs": execs,
            "branches": 50,
            "corpus": 10,
            "steps": 4 * execs + 1,
            "root_restores": execs,
            "incremental_restores": 0,
            "incremental_creates": 0,
            "pages_restored": 2 * execs,
            "pages_captured": 0,
        },
        "layer": {
            "dirty_marks": 2 * execs,
            "protect_calls": 3 * execs,
            "netemu_calls": 20 * execs,
            "packets": 5 * execs,
            "faults": 0,
            "corpus_ops": 80,
            "aux_bytes": 144,
            "codec_ns": 1000,
            "ops_hash_ns": 800,
            "ops_hashed": 80,
        },
    }
    if traced:
        cell["step_spans"] = {"boot_ns": 10, "exec_ns": loop_ns // 2}
        cell["layer"]["codec_ok"] = True
    return cell


def make_doc(reps=3, trace=0, loop_ns=4_000_000):
    phases = {p: [0] * 10 + [2000] + [0] * 53 for p in metrics.PHASES}
    probes = [metrics.PROBE_REF_NS] * 2
    doc_reps = []
    for _ in range(reps):
        doc_reps.append({"traced": False, "probe_ns": list(probes),
                         "cells": [make_cell("a/0", loop_ns=loop_ns),
                                   make_cell("b/0", loop_ns=loop_ns)]})
        if trace:
            doc_reps.append({
                "traced": True,
                "probe_ns": list(probes),
                "cells": [make_cell("a/0", loop_ns=loop_ns * 11 // 10, traced=True),
                          make_cell("b/0", loop_ns=loop_ns * 11 // 10, traced=True)],
                "phases": phases,
            })
    audit = make_cell("a/0", execs=100)
    audit["layer"].update({"pages_audited": 4096, "divergences": 0})
    return {"trace": trace, "peak_rss_kib": 2048, "reps": doc_reps, "audit": audit}


class QuartilesTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(metrics.quartiles(range(1, 11)), (2.75, 5.5, 8.25))
        self.assertEqual(metrics.quartiles([3, 1, 2]), (1, 2, 3))

    def test_single_value(self):
        self.assertEqual(metrics.quartiles([7.5]), (7.5, 7.5, 7.5))


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(metrics.reportable(1000, 99))
        self.assertFalse(metrics.reportable(999, 99))
        self.assertTrue(metrics.reportable(20, 50))
        self.assertFalse(metrics.reportable(19, 50))

    def test_bucket_percentile_interpolates_inside_bucket(self):
        counts = [0] * 64
        counts[11] = 1000  # [1024, 2048)
        self.assertAlmostEqual(metrics.bucket_percentile(counts, 50), 1536.0)
        counts[12] = 1000  # [2048, 4096)
        self.assertAlmostEqual(metrics.bucket_percentile(counts, 50), 2048.0)
        self.assertAlmostEqual(metrics.bucket_percentile(counts, 99), 2048 + 2048 * 0.98)

    def test_bucket_percentile_withheld_without_samples(self):
        counts = [0] * 64
        counts[5] = 999
        self.assertIsNone(metrics.bucket_percentile(counts, 99))
        self.assertIsNotNone(metrics.bucket_percentile(counts, 50))


class NormalisationTest(unittest.TestCase):
    def test_per_exec(self):
        self.assertEqual(metrics.per_exec(5000, 1000), 5.0)
        with self.assertRaises(ValueError):
            metrics.per_exec(5000, 0)

    def test_loop_window_excludes_boot(self):
        # Run() is called at 200, Boot() runs Init at 300 and the first exec
        # begins at 1_000_000: the loop is only what follows.
        spans = metrics.cell_spans(make_cell("a/0", loop_ns=4_000_000)["t"])
        self.assertEqual(spans["loop"], 4_000_000)
        self.assertEqual(spans["boot"], 1_000_000 - 300)
        self.assertEqual(spans["setup"], 1_000_000 - 100)
        self.assertEqual(spans["construct"] + spans["boot"], spans["setup"])

    def test_out_of_order_readings_rejected(self):
        t = make_cell("a/0")["t"]
        t["loop_begin"] = 0  # the first exec's Step never ran
        with self.assertRaises(ValueError):
            metrics.cell_spans(t)

    def test_self_time_is_never_negative(self):
        self.assertEqual(metrics.self_time(100, 40), 60)
        self.assertEqual(metrics.self_time(100, 100), 0)
        with self.assertRaises(ValueError):
            metrics.self_time(100, 101)

    def test_end_to_end_sums_cells(self):
        e2e = metrics.end_to_end(make_doc(reps=3))
        # 2 cells x 1000 execs over 2 x 4 ms of loop.
        self.assertAlmostEqual(e2e["execs_per_s"], 2000 / 0.008)
        self.assertAlmostEqual(e2e["solve_s"], 0.008)
        self.assertEqual(e2e["branches"], 100)
        self.assertAlmostEqual(e2e["setup_s"], 2 * (1_000_000 - 100) / 1e9)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)

    def test_end_to_end_takes_each_cells_fastest_readings(self):
        doc = make_doc(reps=3)
        for rep in (0, 2):
            doc["reps"][rep]["cells"][0]["t"]["begin"] = 0  # a slower set-up
        doc["reps"][1]["cells"][0]["t"]["end"] += 1_000_000  # a slower last window
        doc["reps"][2]["cells"][1] = make_cell("b/0", loop_ns=2_000_000)
        e2e = metrics.end_to_end(doc)
        self.assertAlmostEqual(e2e["solve_s"], 0.006)
        self.assertAlmostEqual(e2e["execs_per_s"], 2000 / 0.006)
        self.assertAlmostEqual(e2e["setup_s"], 2 * (1_000_000 - 100) / 1e9)

    def test_timings_scale_with_the_speed_probe(self):
        doc = make_doc(reps=3)
        for rep in doc["reps"]:
            rep["probe_ns"] = [2 * metrics.PROBE_REF_NS] * 2  # a machine half as fast
        e2e = metrics.end_to_end(doc)
        self.assertAlmostEqual(e2e["solve_s"], 0.004)
        self.assertAlmostEqual(e2e["execs_per_s"], 2000 / 0.004)
        self.assertAlmostEqual(e2e["setup_s"], (1_000_000 - 100) / 1e9)
        self.assertEqual(e2e["branches"], 100)

    def test_speed_scale_takes_the_tenth_percentile_probe(self):
        doc = make_doc(reps=3)
        ref = metrics.PROBE_REF_NS
        # Eleven probes taking 1 to 11 times the reference: not the fastest
        # (scale 1) nor the median (1/6), but the second fastest.
        for rep, probes in zip(doc["reps"], ([10, 1, 9, 2], [8, 3, 7], [4, 6, 5, 11])):
            rep["probe_ns"] = [k * ref for k in probes]
        self.assertAlmostEqual(metrics.speed_scale(doc), 1 / 2)
        for rep in doc["reps"]:
            rep["probe_ns"] = []
        with self.assertRaises(ValueError):
            metrics.speed_scale(doc)

    def test_per_rep_quartiles(self):
        doc = make_doc(reps=3)
        doc["reps"][2]["cells"][1] = make_cell("b/0", loop_ns=2_000_000)
        spread = metrics.per_rep_quartiles(doc)
        self.assertEqual(spread["solve_s"], (0.008, 0.006, 0.008, 3))
        self.assertEqual(spread["branches"][0], 100)

    def test_last_repetition_may_stop_early(self):
        doc = make_doc(reps=2)
        doc["reps"].append({"traced": False, "probe_ns": [metrics.PROBE_REF_NS],
                            "cells": [make_cell("a/0", loop_ns=2_000_000)]})
        self.assertEqual(metrics.cell_failures(doc), {})
        # The partial run counts for its cell, but not as a repetition.
        self.assertAlmostEqual(metrics.end_to_end(doc)["solve_s"], 0.006)
        self.assertEqual(metrics.per_rep_quartiles(doc)["solve_s"], (0.008, 0.008, 0.008, 2))

    def test_step_and_host_time_add_up_to_the_loop(self):
        layers = metrics.per_layer(make_doc(reps=2, trace=1))
        loop_per_exec = 4_400_000 / 1000
        self.assertAlmostEqual(
            layers["targets.step_ns_per_exec"] + layers["fuzz.host_ns_per_exec"], loop_per_exec
        )
        self.assertAlmostEqual(layers["targets.steps_per_exec"], 4.0)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 10.0)
        for name in metrics.LAYER_UNITS:
            self.assertIn(name, layers)


class LoopWindowTest(unittest.TestCase):
    @staticmethod
    def run_with_windows(durations):
        cell = make_cell("a/0")
        edges = [cell["t"]["loop_begin"]]
        for d in durations:
            edges.append(edges[-1] + d)
        cell["marks"], cell["t"]["end"] = edges[1:-1], edges[-1]
        return cell

    def test_windows_split_the_loop(self):
        cell = self.run_with_windows([10, 30, 20])
        self.assertEqual(metrics.loop_windows(cell), [10, 30, 20])
        self.assertEqual(sum(metrics.loop_windows(cell)), metrics.cell_spans(cell["t"])["loop"])

    def test_out_of_order_marks_rejected(self):
        cell = self.run_with_windows([10, 30, 20])
        cell["marks"].reverse()
        with self.assertRaises(ValueError):
            metrics.loop_windows(cell)
        doc = make_doc(reps=2)
        doc["reps"][1]["cells"][0] = cell
        self.assertIn("a/0", metrics.cell_failures(doc))

    def test_best_loop_takes_each_windows_fastest_run(self):
        runs = [self.run_with_windows(w) for w in ([10, 30, 20], [15, 25, 25], [12, 28, 21])]
        # Neither the fastest whole run (60) nor the median run (61).
        self.assertEqual(metrics.best_loop_ns(runs), 10 + 25 + 20)
        self.assertEqual(metrics.best_loop_ns(runs[:1]), 60)

    def test_runs_cut_into_different_windows_rejected(self):
        runs = [self.run_with_windows([10, 30, 20]), self.run_with_windows([10, 50])]
        with self.assertRaises(ValueError):
            metrics.best_loop_ns(runs)


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(metrics.cell_failures(make_doc(reps=2, trace=1)), {})

    def test_identical_outputs_are_deterministic(self):
        self.assertEqual(metrics.nondeterministic_cells(make_doc(reps=3)["reps"]), set())

    def test_differing_outputs_are_flagged(self):
        doc = make_doc(reps=3)
        doc["reps"][2]["cells"][1]["out"]["corpus"] += 1
        self.assertEqual(metrics.nondeterministic_cells(doc["reps"]), {"b/0"})
        self.assertIn("b/0", metrics.cell_failures(doc))

    def test_traced_run_must_match_untraced(self):
        doc = make_doc(reps=1, trace=1)
        doc["reps"][1]["cells"][0]["out"]["execs"] -= 1
        self.assertEqual(metrics.nondeterministic_cells(doc["reps"]), {"a/0"})

    def test_limits_and_soft_failures_fail_the_cell(self):
        doc = make_doc(reps=2)
        doc["reps"][0]["cells"][0]["stop"] = "wall"
        doc["reps"][1]["cells"][1]["soft_failures"] = 2
        self.assertEqual(set(metrics.cell_failures(doc)), {"a/0", "b/0"})
        doc = make_doc(reps=2)
        for rep in doc["reps"]:
            rep["cells"][1]["stop"] = "cap"  # unsolved within the exec cap
        self.assertEqual(set(metrics.cell_failures(doc)), {"b/0"})

    def test_audit_divergence_fails_the_first_cell(self):
        doc = make_doc(reps=2)
        doc["audit"]["layer"]["divergences"] = 1
        self.assertEqual(set(metrics.cell_failures(doc)), {"a/0"})
        doc = make_doc(reps=2)
        doc["audit"]["layer"]["pages_audited"] = 0  # the auditor never ran
        self.assertEqual(set(metrics.cell_failures(doc)), {"a/0"})

    def test_steps_outlasting_the_loop_fail_the_cell(self):
        doc = make_doc(reps=1, trace=1)
        cell = doc["reps"][1]["cells"][0]
        cell["step_spans"]["exec_ns"] = metrics.cell_spans(cell["t"])["loop"] + 1
        self.assertEqual(set(metrics.cell_failures(doc)), {"a/0"})

    def test_codec_round_trip_failure_fails_the_cell(self):
        doc = make_doc(reps=1, trace=1)
        doc["reps"][1]["cells"][1]["layer"]["codec_ok"] = False
        self.assertEqual(set(metrics.cell_failures(doc)), {"b/0"})


if __name__ == "__main__":
    unittest.main()
