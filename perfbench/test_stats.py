"""Unit tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TailRankTest(unittest.TestCase):
    def test_percentile_leaves_ten_samples_beyond(self):
        for n in (11, 20, 40, 64, 99, 100, 1000, 1800, 12345):
            p = stats.tail_percentile(n)
            rank = -(-p * n // 100)  # ceil(p/100 * n), exact in integers
            self.assertGreaterEqual(n - rank, stats.TAIL_SAMPLES_BEYOND, n)
            # One percent higher would leave fewer than ten beyond.
            if p < 99:
                higher = -(-(p + 1) * n // 100)
                self.assertLess(n - higher, stats.TAIL_SAMPLES_BEYOND, n)

    def test_known_ranks(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(64), 84)
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(20), 50)

    def test_small_samples_use_the_maximum(self):
        self.assertEqual(stats.tail_percentile(10), 100)
        self.assertEqual(stats.tail([3.0, 1.0, 2.0], 100), (3.0, 3, 0))

    def test_design_ranks(self):
        # The harness's design sample counts: kron-solve, road-solve,
        # kron-gsan, then serve-mixed's clean lane solves and completions.
        self.assertEqual([stats.tail_percentile(n)
                          for n in (80, 56, 20, 900, 1400)],
                         [87, 82, 50, 98, 99])

    def test_rank_comes_from_the_design_not_the_run(self):
        raw = {"setup_s": [0.5], "peak_rss_mb": 10.0,
               "tail_design_samples": {"device_ms": 20, "sojourn_ms": 1000},
               "passes": [{"begin": 0, "ops": 30, "wall_ms": 3.0,
                           "traced": False}],
               "ops": {"completed": [1] * 30, "good": [1] * 30,
                       "clean": [1] * 30,
                       "device_ms": [float(v) for v in range(30)],
                       "sojourn_ms": [float(v) for v in range(30)]}}
        metrics, notes = stats.end_to_end(raw)
        # p50 of 30 samples, not the p66 that 30 samples would allow.
        self.assertEqual(notes["device_ms_tail"]["percentile"], 50)
        self.assertEqual(metrics["device_ms_tail"], (14.0, "ms"))
        self.assertEqual(notes["sojourn_ms_tail"]["percentile"], 99)
        self.assertEqual(metrics["sojourn_ms_tail"], (29.0, "ms"))

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertEqual(stats.nearest_rank(values, 0), 1)
        self.assertEqual(stats.nearest_rank(list(reversed(values)), 99), 99)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)

    def test_tail_of_1000_samples_is_p99(self):
        values = [float(v) for v in range(1000)]
        p = stats.tail_percentile(len(values))
        self.assertEqual(p, 99)
        self.assertEqual(stats.tail(values, p), (989.0, 1000, 10))


class GoodputTest(unittest.TestCase):
    def test_share_of_offered(self):
        self.assertEqual(stats.goodput(450, 600), 0.75)
        self.assertEqual(stats.goodput(0, 5), 0.0)
        self.assertEqual(stats.goodput(5, 5), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.goodput(1, 0)
        with self.assertRaises(ValueError):
            stats.goodput(7, 5)

    def test_misses_count_against_goodput(self):
        # Two shed, one missed, one failed: all four are misses.
        ops = {"completed": [1, 1, 1, 1, 0, 0, 0, 1],
               "good": [1, 1, 1, 1, 0, 0, 0, 0]}
        good = sum(ops["good"])
        self.assertEqual(stats.goodput(good, len(ops["completed"])), 0.5)


def raw_run(first_failed, passes):
    """`passes` lists (begin, ops, differing) triples."""
    return {"ops": {"failed": first_failed},
            "passes": [{"begin": b, "ops": n, "differing": d}
                       for b, n, d in passes]}


class FailureShareTest(unittest.TestCase):
    def test_clean_run(self):
        run = raw_run([0] * 8, [(0, 4, 0), (4, 4, 0), (0, 4, 0)])
        self.assertEqual(stats.attempted_and_failed(run), (12, 0))

    def test_first_run_failures_repeat_with_their_operations(self):
        run = raw_run([1, 0, 1, 0], [(0, 2, 0), (2, 2, 0), (0, 2, 0)])
        self.assertEqual(stats.attempted_and_failed(run), (6, 3))

    def test_differing_operations_fail(self):
        run = raw_run([0, 0, 0, 0], [(0, 4, 0), (0, 4, 3)])
        self.assertEqual(stats.attempted_and_failed(run), (8, 3))

    def test_a_pass_fails_at_most_every_operation(self):
        run = raw_run([1, 1, 1, 0], [(0, 4, 0), (0, 4, 4)])
        self.assertEqual(stats.attempted_and_failed(run), (8, 7))


def timed(begin, ops, wall_ms, traced=False):
    return {"begin": begin, "ops": ops, "wall_ms": wall_ms, "traced": traced}


class HostTimeTest(unittest.TestCase):
    def test_median_rate_over_chunks_of_one_kind(self):
        passes = [timed(0, 4, 40.0), timed(4, 4, 44.0),
                  timed(8, 2, 60.0),  # disturbed
                  timed(0, 4, 48.0, traced=True)]
        self.assertEqual(stats.host_ms_per_query(passes, False), 11.0)
        self.assertEqual(stats.host_ms_per_query(passes, True), 12.0)

    def test_repeats_do_not_change_the_mix(self):
        # Chunk 0 is cheap and repeated twice more; chunks 1 and 2 ran once.
        once = [timed(0, 1, 1.0), timed(1, 1, 5.0), timed(2, 1, 6.0)]
        repeated = once + [timed(0, 1, 1.2), timed(0, 1, 0.8)]
        self.assertEqual(stats.host_ms_per_query(once, False), 5.0)
        self.assertEqual(stats.host_ms_per_query(repeated, False), 5.0)

    def test_restricted_to_chunks(self):
        passes = [timed(0, 1, 1.0), timed(1, 1, 5.0), timed(2, 1, 6.0)]
        self.assertEqual(stats.host_ms_per_query(passes, False, {0, 1}), 3.0)

    def test_needs_a_pass(self):
        with self.assertRaises(ValueError):
            stats.host_ms_per_query([], False)


if __name__ == "__main__":
    unittest.main()
