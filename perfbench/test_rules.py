"""Unit tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import rules  # noqa: E402
import run  # noqa: E402


def window(**overrides):
    """A window record that conserves packets: 100 offered, 60 delivered."""
    w = {"type": "window", "phase": "measure", "id": 7, "round": 1,
         "scheme": "standard", "role": "", "ms": 12.5, "generated": 100,
         "shaped": 100, "deferred": 0, "fates": 100, "result_offered": 100,
         "result_delivered": 60, "offered": 100, "delivered": 60,
         "loss": {"decoder_intra": 10, "decoder_inter": 5,
                  "channel_intra": 15, "channel_inter": 4, "other": 6},
         "uplinks": 75, "server_delivered": 60, "digest": "0" * 16,
         "resident_rows": 100, "boundary_events": 0}
    w.update(overrides)
    return w


def span(index, parent, ts, dur, name="s"):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"span": index, "parent": parent, "op": -1,
                     "scheme": ""}}


class PercentileRule(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        samples = list(range(1, 101))
        pct, value = rules.tail_percentile(samples)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_is_the_highest_such_percentile(self):
        for n in (11, 12, 27, 36, 250):
            samples = [float(i) for i in range(n)]
            _, value = rules.tail_percentile(samples)
            beyond = sum(1 for s in samples if s > value)
            self.assertEqual(beyond, rules.TAIL_BEYOND, n)

    def test_order_of_input_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0,
                   0.5]
        self.assertEqual(rules.tail_percentile(samples),
                         rules.tail_percentile(sorted(samples)))
        self.assertEqual(rules.tail_percentile(samples)[1], 1.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertEqual(rules.tail_percentile([1.0] * 10), (None, None))
        self.assertEqual(rules.tail_percentile([]), (None, None))


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_their_children(self):
        events = [
            span(0, -1, 0, 100),   # root
            span(1, 0, 10, 30),    # child with a grandchild
            span(2, 1, 20, 10),    # grandchild
            span(3, 0, 50, 10),    # leaf child
        ]
        self.assertEqual(rules.self_times(events),
                         {0: 60, 1: 20, 2: 10, 3: 10})

    def test_self_times_partition_the_root(self):
        events = [span(0, -1, 0, 100), span(1, 0, 5, 40),
                  span(2, 1, 10, 20), span(3, 2, 12, 3),
                  span(4, 0, 60, 30)]
        self.assertAlmostEqual(sum(rules.self_times(events).values()), 100)

    def test_overlap_and_overhang_are_counted_once(self):
        events = [span(0, -1, 0, 50), span(1, 0, 10, 20),
                  span(2, 0, 20, 20), span(3, 0, 45, 20)]
        # Children cover [10, 40) and [45, 50) of the parent: 35 units.
        self.assertEqual(rules.self_times(events)[0], 15)


class Conservation(unittest.TestCase):
    def test_a_conserving_window_passes(self):
        self.assertEqual(rules.window_errors(window()), [])

    def test_injected_mismatches_are_caught(self):
        broken = {
            "lost packet": window(loss={**window()["loss"], "other": 5}),
            "extra delivery": window(delivered=61, result_delivered=61,
                                     server_delivered=61),
            "dropped by shaping": window(shaped=99),
            "fates disagree": window(fates=101),
            "server disagrees": window(server_delivered=59),
        }
        for label, w in broken.items():
            self.assertNotEqual(rules.window_errors(w), [], label)

    def test_a_mismatch_counts_as_a_failed_op(self):
        records = [
            {"type": "start", "workload": "city_coexist", "seed": 99,
             "threads": 4, "rounds": 1},
            window(phase="warmup", id=0, round=0),
            window(id=1),
            window(id=2, delivered=59),
            {"type": "digest", "replay": "ab", "warmup": "ab"},
            {"type": "round", "phase": "measure", "round": 1, "s": 1.0,
             "traced": False, "peak_rss_mib": 1.0},
            {"type": "summary", "wall_s": 1.0, "cpu_s": 1.0,
             "peak_rss_mib": 1.0},
        ]
        attempted, failed, errors = run.check("city_coexist", 99,
                                              run.Run(records))
        self.assertEqual((attempted, failed), (3, 1))
        self.assertEqual(len(errors), 1)

        replay_differs = copy.deepcopy(records)
        replay_differs[4]["replay"] = "cd"
        _, failed, _ = run.check("city_coexist", 99,
                                 run.Run(replay_differs))
        self.assertEqual(failed, 2)  # the warm-up window, and window 2

    def test_epoch_must_not_go_backwards(self):
        ok = {"epoch": 4, "previous_epoch": 4, "accepted_epoch": 4}
        self.assertEqual(rules.upgrade_errors(ok), [])
        self.assertNotEqual(
            rules.upgrade_errors({**ok, "previous_epoch": 5}), [])
        self.assertNotEqual(
            rules.upgrade_errors({**ok, "accepted_epoch": 3}), [])


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_reports(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
