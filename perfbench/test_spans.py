"""Self-test of the span arithmetic: python3 -m unittest discover -s perfbench"""

from __future__ import annotations

import os
import tempfile
import unittest

import spans


def nested_example() -> spans.Spans:
    """cli.main [0, 10]
         verifycases.run_check [1, 9]
           qcore.series_mul [2, 5]            work 6
             qcore.series_mul [3, 4]          work 2, nested in the same name
           qidentities.nested_sum_series [5, 8]
             qcore.series_mul [6, 7]          work 1
    """
    sp = spans.Spans()
    root = sp.add("cli.main", -1, 0.0, 10.0)
    check = sp.add("verifycases.run_check", root, 1.0, 9.0)
    outer = sp.add("qcore.series_mul", check, 2.0, 5.0, work=6)
    sp.add("qcore.series_mul", outer, 3.0, 4.0, work=2, top=False)
    nested = sp.add("qidentities.nested_sum_series", check, 5.0, 8.0)
    sp.add("qcore.series_mul", nested, 6.0, 7.0, work=1)
    return sp


class LayerReportTest(unittest.TestCase):
    def test_self_times_sum_to_root(self):
        r = spans.layer_report(nested_example())
        self.assertEqual(r["cli.self_s"], 2.0)
        self.assertEqual(r["verifycases.self_s"], 2.0)
        self.assertEqual(r["qcore.self_s"], 4.0)
        self.assertEqual(r["qidentities.self_s"], 2.0)
        self.assertEqual(r["networks.self_s"], 0.0)
        self.assertEqual(sum(r[f"{layer}.self_s"] for layer in spans.LAYERS), 10.0)

    def test_inclusive_time_skips_nested_same_name(self):
        r = spans.layer_report(nested_example())
        self.assertEqual(r["qcore.series_mul.calls"], 3)
        self.assertEqual(r["qcore.series_mul.s"], 4.0)
        self.assertEqual(r["qcore.series_mul.coeff_products"], 9)
        self.assertEqual(r["qidentities.nested_sum_series.s"], 3.0)

    def test_box_expansions_and_cases(self):
        sp = spans.Spans()
        root = sp.add("cli.main", -1, 0.0, 6.0)
        case1 = sp.add("cli.run_case", root, 0.0, 4.0)
        br = sp.add("networks.bracket_closed", case1, 0.0, 3.0, work=16)
        sp.add("tl_oracle.jones_wenzl", br, 0.0, 1.0)
        sp.add("tl_oracle.jones_wenzl", br, 1.0, 2.0)
        case2 = sp.add("cli.run_case", root, 4.0, 5.0)
        sp.add("tl_oracle.jones_wenzl", case2, 4.0, 4.5)
        r = spans.layer_report(sp)
        self.assertEqual(r["networks.box_expansions"], 2)
        self.assertEqual(r["tl_oracle.jones_wenzl.calls"], 3)
        self.assertEqual(r["networks.crossing_states"], 16)
        self.assertEqual(r["cli.cases"], 2)
        self.assertEqual(r["cli.max_case_s"], 4.0)
        self.assertEqual(r["networks.self_s"], 1.0)

    def test_save_load_round_trip(self):
        sp = nested_example()
        fd, path = tempfile.mkstemp()
        os.close(fd)
        try:
            sp.save(path)
            self.assertEqual(spans.layer_report(spans.Spans.load(path)), spans.layer_report(sp))
        finally:
            os.unlink(path)


class RecorderTest(unittest.TestCase):
    def test_recursive_wrap_marks_nested_spans(self):
        rec = spans.Recorder()

        def fact(n):
            return 1 if n == 0 else n * wrapped(n - 1)

        wrapped = rec.wrap("qcore.poch", fact, work=lambda n: n)
        self.assertEqual(wrapped(3), 6)
        sp = rec.spans
        self.assertEqual(list(sp.parent), [-1, 0, 1, 2])
        self.assertEqual(list(sp.top), [1, 0, 0, 0])
        self.assertEqual(list(sp.work), [3, 2, 1, 0])
        r = spans.layer_report(sp)
        self.assertAlmostEqual(r["qcore.poch.s"], sp.end[0] - sp.start[0])


if __name__ == "__main__":
    unittest.main()
