"""CLI integration: subcommands, exit codes, report determinism."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

import skeintails
from skeintails.cli import MAX_JONES_N, MAX_JONES_SIZE, main
from skeintails.networks import tet_network, theta_network, torus_knot_network
from skeintails.qcore import MAX_SERIES_ORDER, poch_inf
from skeintails.qidentities import MAX_AG_K, theta_f
from skeintails.tails_engine import MAX_FAMILY_M
from skeintails import networks
from skeintails.verifycases import CHECKS, check_product_laws


def _most(check: str, key: str) -> int:
    return CHECKS[check][1][key][2]


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestSeries:
    def test_text(self):
        code, out = run(["series", "theta_f", "--k", "2", "--order", "14"])
        assert code == 0
        assert out.strip() == "1 - q - q^4 + q^7 + q^13"

    def test_json(self):
        code, out = run(["series", "poch_inf", "--c", "1", "--order", "6", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj == poch_inf(1, 6).to_json_obj()

    def test_csv(self):
        code, out = run(["series", "lambda", "--order", "4", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "exponent,numerator,denominator"
        assert len(lines) == 5

    def test_unknown_series_exit2(self):
        code, _ = run(["series", "nosuch", "--order", "5"])
        assert code == 2

    def test_bad_params_exit2(self):
        code, _ = run(["series", "theta_f", "--order", "5"])
        assert code == 2

    def test_undeclared_flag_exit2(self, capsys):
        # An undeclared flag was dropped: this printed (q;q)_inf and exited 0.
        code, out = run(["series", "poch_inf", "--cc", "3", "--order", "6"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: unknown parameter 'cc' for poch_inf\n"

    def test_non_integer_flag_exit2(self, capsys):
        code, out = run(["series", "theta_f", "--k", "abc", "--order", "5"])
        assert code == 2 and out == ""
        assert "error: flag --k needs an integer, got 'abc'" in capsys.readouterr().err

    def test_zero_exponent_denominator_exit2(self, capsys):
        code, out = run([
            "series", "theta_general", "--a_sign", "1", "--a_num", "1",
            "--a_den", "0", "--b_sign", "1", "--b_num", "1", "--order", "5",
        ])
        assert code == 2 and out == ""
        assert "error: a_den must be nonzero" in capsys.readouterr().err

    def test_order_cap_exit2(self, capsys):
        code, out = run(["series", "theta_f", "--k", "2", "--order", "1000000000"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert MAX_SERIES_ORDER == 5000
        assert "1000000000" in err and "5000" in err

    def test_order_at_cap_runs(self):
        code, out = run(["series", "theta_f", "--k", "2", "--order", str(MAX_SERIES_ORDER)])
        assert code == 0 and out.startswith("1 - q - q^4")

    @pytest.mark.parametrize("name", ["ag_rhs", "false_ag_rhs"])
    def test_k_cap_exit2(self, capsys, name):
        # The multi-sum has depth k - 1: uncapped, this k ran for seconds at
        # order 10 before it printed 1 - q.
        start = time.perf_counter()
        code, out = run(["series", name, "--k", "1000000", "--order", "10"])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: k 1000000 exceeds limit {MAX_AG_K}\n"

    def test_k_at_cap_runs(self):
        code, out = run(["series", "ag_rhs", "--k", str(MAX_AG_K), "--order", "30"])
        assert code == 0
        assert out.strip() == theta_f(MAX_AG_K, 30).format(max_terms=1_000_000)


class TestVerify:
    def test_builtin_pass(self, tmp_path):
        report = tmp_path / "report.json"
        code, out = run(
            ["verify", "builtin:andrews-gordon", "--out", str(report)]
        )
        assert code == 0
        assert "4/4 cases passed" in out
        obj = json.loads(report.read_text())
        assert obj["passed"] is True
        assert [c["id"] for c in obj["cases"]] == [f"ag-k{k}" for k in (2, 3, 4, 5)]

    def test_jobs_deterministic(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["verify", "builtin:jacobi", "--jobs", "1", "--out", str(r1)])
        run(["verify", "builtin:jacobi", "--jobs", "4", "--out", str(r2)])
        assert r1.read_text() == r2.read_text()

    def test_unwritable_report_exit2_before_any_case(self, monkeypatch, capsys):
        import skeintails.cli as cli

        ran = []
        monkeypatch.setattr(cli, "_run_case", lambda *a: ran.append(a))
        code, out = run(["verify", "builtin:jacobi", "--out", "/nonexistent/x.json"])
        assert (code, out, ran) == (2, "", [])
        assert capsys.readouterr().err.startswith("error: cannot write report: ")

    def test_jobs_below_one_exit2(self, capsys):
        for jobs in ("0", "-3"):
            code, out = run(["verify", "builtin:jacobi", "--jobs", jobs])
            assert code == 2 and out == ""
            assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_negative_control_names_exponent(self, tmp_path):
        suite = {
            "suite": "negative",
            "cases": [
                {
                    "id": "wrong",
                    "check": "series_equal",
                    "params": {
                        "a": {"series": "theta_f", "k": 2},
                        "b": {"series": "poch_inf", "c": 1},
                        "order": 12,
                    },
                }
            ],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(suite))
        code, out = run(["verify", str(path)])
        assert code == 1
        # theta_f(2) and (q;q)_inf first differ at q^2
        assert "q^2" in out

    def test_order_cap_exit2(self, capsys):
        code, out = run(["verify", "builtin:jacobi", "--order", "1000000000"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "1000000000" in err and "5000" in err

    def test_suite_file_order_cap_exit2(self, tmp_path):
        suite = {
            "suite": "s",
            "cases": [
                {"id": "big", "check": "andrews_gordon",
                 "params": {"k": 2, "order": 1000000000}},
                {"id": "small", "check": "andrews_gordon",
                 "params": {"k": 2, "order": 10}},
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(suite))
        code, out = run(["verify", str(path)])
        assert code == 2
        assert (
            "[ERROR] big: CapacityError: order 1000000000 exceeds limit 5000" in out
        )
        assert "[PASS ] small:" in out and "1/2 cases passed" in out

    def _malformed_case_reported(self, tmp_path, bad_case, detail):
        """A malformed case is an error case; its neighbours still run."""
        suite = {
            "suite": "s",
            "cases": [
                {"id": "before", "check": "andrews_gordon",
                 "params": {"k": 2, "order": 10}},
                {"id": "bad", **bad_case},
                {"id": "after", "check": "andrews_gordon",
                 "params": {"k": 3, "order": 10}},
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(suite))
        outputs = []
        for jobs in ("1", "2"):
            report = tmp_path / f"r{jobs}.json"
            code, out = run(["verify", str(path), "--jobs", jobs, "--out", str(report)])
            assert code == 2
            lines = out.splitlines()
            assert lines[0].startswith("[PASS ] before:")
            assert lines[1] == f"[ERROR] bad: {detail}"
            assert lines[2].startswith("[PASS ] after:")
            assert lines[3] == "2/3 cases passed"
            obj = json.loads(report.read_text())
            assert [c["status"] for c in obj["cases"]] == ["pass", "error", "pass"]
            outputs.append((out, report.read_text()))
        assert outputs[0] == outputs[1]

    def test_non_integer_order_is_error_case(self, tmp_path):
        self._malformed_case_reported(
            tmp_path,
            {"check": "andrews_gordon", "params": {"k": 2, "order": "abc"}},
            "ValueError: invalid literal for int() with base 10: 'abc'",
        )

    def test_non_integer_k_is_error_case(self, tmp_path):
        self._malformed_case_reported(
            tmp_path,
            {"check": "andrews_gordon", "params": {"k": "two", "order": 10}},
            "ValueError: invalid literal for int() with base 10: 'two'",
        )

    def test_zero_exponent_denominator_is_error_case(self, tmp_path):
        general = {"series": "theta_general", "a_sign": 1, "a_num": 1,
                   "a_den": 0, "b_sign": 1, "b_num": 1}
        self._malformed_case_reported(
            tmp_path,
            {"check": "series_equal",
             "params": {"a": general, "b": {"series": "theta_f", "k": 1},
                        "order": 10}},
            "DomainError: a_den must be nonzero",
        )

    def test_missing_k_is_error_case(self, tmp_path):
        self._malformed_case_reported(
            tmp_path,
            {"check": "andrews_gordon", "params": {"order": 10}},
            "KeyError: 'k'",
        )

    def test_missing_check_is_error_case(self, tmp_path):
        self._malformed_case_reported(
            tmp_path, {"params": {"k": 2, "order": 10}}, "KeyError: 'check'"
        )

    def test_non_object_params_is_error_case(self, tmp_path):
        self._malformed_case_reported(
            tmp_path,
            {"check": "andrews_gordon", "params": 5},
            "TypeError: 'int' object is not iterable",
        )

    def test_non_object_case_exit2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": ["andrews_gordon"]}))
        code, out = run(["verify", str(path)])
        assert code == 2 and out == ""
        assert "cannot load suite" in capsys.readouterr().err

    def test_infinite_number_is_error_case(self, tmp_path):
        # JSON 1e400 parses as inf, and int(inf) raises OverflowError
        path = tmp_path / "s.json"
        path.write_text(
            '{"suite": "s", "cases": ['
            '{"id": "order", "check": "andrews_gordon",'
            ' "params": {"k": 2, "order": 1e400}},'
            '{"id": "n_max", "check": "morrison", "params": {"n_max": 1e400}},'
            '{"id": "after", "check": "andrews_gordon",'
            ' "params": {"k": 2, "order": 10}}]}'
        )
        code, out = run(["verify", str(path)])
        assert code == 2
        lines = out.splitlines()
        detail = "OverflowError: cannot convert float infinity to integer"
        assert lines[0] == f"[ERROR] order: {detail}"
        assert lines[1] == f"[ERROR] n_max: {detail}"
        assert lines[2].startswith("[PASS ] after:")
        assert lines[3] == "1/3 cases passed"

    def test_k_cap_is_error_case(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge-k", "check": "andrews_gordon", "params": {"k": 1000000, "order": 10}},
            {"id": "after", "check": "andrews_gordon", "params": {"k": 2, "order": 10}},
        ]}))
        code, out = run(["verify", str(path)])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == f"[ERROR] huge-k: CapacityError: k 1000000 exceeds limit {MAX_AG_K}"
        assert lines[1].startswith("[PASS ] after:")
        assert lines[2] == "1/2 cases passed"

    @pytest.mark.parametrize("family", ["g_m", "inadequate_chain"])
    def test_family_m_cap_is_error_case(self, tmp_path, family):
        # Each unit of m is one more pass over the series: uncapped, m = 10**9
        # ran for hours even at order 20.
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge-m", "check": "series_equal", "params": {
                "order": 20, "a": {"family": family, "m": 10**9},
                "b": {"series": "poch_inf", "c": 1}}},
        ]}))
        start = time.perf_counter()
        code, out = run(["verify", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out.splitlines() == [
            f"[ERROR] huge-m: CapacityError: m 1000000000 exceeds limit {MAX_FAMILY_M}",
            "0/1 cases passed",
        ]

    def test_n_max_cap_is_error_case(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge", "check": "tail_lemma_fact", "params": {"n_max": 100000}},
            {"id": "after", "check": "tail_lemma_fact", "params": {"n_max": 3}},
        ]}))
        report = tmp_path / "r.json"
        code, out = run(["verify", str(path), "--out", str(report)])
        assert code == 2
        lines = out.splitlines()
        limit = _most("tail_lemma_fact", "n_max")
        assert lines[0] == f"[ERROR] huge: CapacityError: n_max 100000 exceeds limit {limit}"
        assert lines[1].startswith("[PASS ] after:")
        assert lines[2] == "1/2 cases passed"
        statuses = [c["status"] for c in json.loads(report.read_text())["cases"]]
        assert statuses == ["error", "pass"]

    @pytest.mark.parametrize(
        "check,params",
        [
            ("tail_lemma_fact", {"n_max": 0}),
            ("jw_laws", {"n_max": -3}),
            ("bubble_oracle", {"max_param": 0}),
            ("torus_oracle", {"f": 0, "n": 1}),
            ("torus_oracle", {"f": 5, "n": 0}),
            ("tet_oracle", {"n": 0}),
        ],
        ids=["n_max-0", "n_max-negative", "max_param-0", "f-0", "torus-n-0",
             "tet-n-0"],
    )
    def test_parameter_below_one_is_error_case(self, tmp_path, check, params):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "empty", "check": check, "params": params},
        ]}))
        code, out = run(["verify", str(path)])
        assert code == 2
        key, value = next((k, v) for k, v in params.items() if v < 1)
        assert out.splitlines() == [
            f"[ERROR] empty: DomainError: {key} must be >= 1, got {value}",
            "0/1 cases passed",
        ]

    def test_torus_f_cap_is_error_case(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge", "check": "torus_oracle", "params": {"f": 100000, "n": 1}},
        ]}))
        start = time.perf_counter()
        code, out = run(["verify", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        limit = _most("torus_oracle", "f")
        assert out.splitlines()[0] == (
            f"[ERROR] huge: CapacityError: f 100000 exceeds limit {limit}"
        )

    @pytest.mark.parametrize(
        "check,params,builder",
        [
            ("torus_oracle", {"f": 1, "n": 10**6}, "torus_knot_network"),
            ("tet_oracle", {"n": 10**6}, "tet_network"),
        ],
    )
    def test_colour_cap_is_error_case(
        self, tmp_path, monkeypatch, check, params, builder
    ):
        # Uncapped, the network was built whole before bracket_closed
        # refused its boxes: f * n^2 crossings for the torus.
        def refuse(*args):
            raise AssertionError("the network was built")

        monkeypatch.setattr(networks, builder, refuse)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge", "check": check, "params": params},
        ]}))
        start = time.perf_counter()
        code, out = run(["verify", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out.splitlines() == [
            f"[ERROR] huge: CapacityError: n 1000000 exceeds limit {_most(check, 'n')}",
            "0/1 cases passed",
        ]

    def test_max_param_cap_is_error_case(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge", "check": "bubble_oracle", "params": {"max_param": 100}},
            {"id": "after", "check": "bubble_oracle", "params": {"max_param": 1}},
        ]}))
        code, out = run(["verify", str(path)])
        assert code == 2
        lines = out.splitlines()
        limit = _most("bubble_oracle", "max_param")
        assert lines[0] == f"[ERROR] huge: CapacityError: max_param 100 exceeds limit {limit}"
        assert lines[1].startswith("[PASS ] after:")
        assert lines[2] == "1/2 cases passed"

    def test_k_max_cap_is_error_case(self, tmp_path):
        # Uncapped, k_max 1000 ran k = 1..10 and then failed on k 11 inside
        # the chain sums, naming k, not k_max.
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"suite": "s", "cases": [
            {"id": "huge", "check": "torus_stabilization", "params": {"k_max": 1000}},
        ]}))
        start = time.perf_counter()
        code, out = run(["verify", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out.splitlines() == [
            f"[ERROR] huge: CapacityError: k_max 1000 exceeds limit {MAX_AG_K}",
            "0/1 cases passed",
        ]

    def test_unknown_parameter_is_error_case(self, tmp_path):
        # A misspelled key was dropped: theta_tail ran at its default n_max
        # and passed.
        self._malformed_case_reported(
            tmp_path,
            {"check": "theta_tail", "params": {"nmax": 100000}},
            "DomainError: unknown parameter 'nmax' for theta_tail",
        )

    def test_unknown_series_parameter_is_error_case(self, tmp_path):
        # A misspelled sign_fixed was dropped: both sides built the default
        # reading of g_kl and the case passed.
        g_kl = {"family": "g_kl", "k": 1, "l": 0}
        self._malformed_case_reported(
            tmp_path,
            {"check": "series_equal",
             "params": {"order": 20, "a": {**g_kl, "sign_fixd": 1}, "b": g_kl}},
            "DomainError: unknown parameter 'sign_fixd' for g_kl",
        )

    def test_fractional_parameter_is_error_case(self, tmp_path):
        # int() truncated it: theta_tail ran n <= 2 and passed.
        self._malformed_case_reported(
            tmp_path,
            {"check": "theta_tail", "params": {"n_max": 2.9}},
            "DomainError: n_max must be an integer, got 2.9",
        )

    def test_boolean_parameter_is_error_case(self, tmp_path):
        # int() read true as 1: tail_lemma_fact ran n = 1 and passed.
        self._malformed_case_reported(
            tmp_path,
            {"check": "tail_lemma_fact", "params": {"n_max": True}},
            "DomainError: n_max must be an integer, got True",
        )

    def test_fractional_series_parameter_is_error_case(self, tmp_path):
        theta = {"series": "theta_f", "k": 2}
        self._malformed_case_reported(
            tmp_path,
            {"check": "series_equal",
             "params": {"order": 10, "a": {**theta, "k": 2.5}, "b": theta}},
            "DomainError: k must be an integer, got 2.5",
        )

    def test_non_utf8_suite_exit2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe")
        code, out = run(["verify", str(path)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load suite:") and "decode" in err

    def test_missing_suite_exit2(self):
        code, _ = run(["verify", "builtin:nosuch"])
        assert code == 2
        code, _ = run(["verify", "/nonexistent/path.json"])
        assert code == 2

    def test_order_override(self, tmp_path):
        suite = {
            "suite": "s",
            "cases": [
                {
                    "id": "x",
                    "kind": "identity",
                    "check": "andrews_gordon",
                    "params": {"k": 2, "order": 50},
                }
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(suite))
        code, out = run(["verify", str(path), "--order", "10"])
        assert code == 0 and "order 10" in out

    def test_product_laws_at_order_zero(self, tmp_path):
        # Every series is empty at order 0, so the check would compare
        # nothing: verify refuses the order as an error case.  The check
        # itself still runs through at order 0 (it used to end in an
        # IndexError traceback inside series_div).
        suite = {
            "suite": "s",
            "cases": [{"id": "p0", "check": "product_laws", "params": {"order": 0}}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(suite))
        code, out = run(["verify", str(path)])
        assert code == 2
        assert out.splitlines() == [
            "[ERROR] p0: DomainError: order must be >= 1, got 0",
            "0/1 cases passed",
        ]
        assert check_product_laws(order=0) == (
            True, "unit laws and the four-triangle wheel hold at order 0"
        )

    def test_slow_key_is_ignored(self, tmp_path):
        # A "slow" key selects nothing: the case runs, like one with "kind".
        suite = {
            "suite": "s",
            "cases": [{"id": "t", "check": "tet_oracle", "params": {"n": 1},
                       "slow": True}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(suite))
        code, out = run(["verify", str(path)])
        assert code == 0
        assert out.splitlines() == [
            "[PASS ] t: tet_2n(1) matches the tetrahedron bracket",
            "1/1 cases passed",
        ]

    def test_tail85_at_order_zero_is_error_case(self):
        # --order 0 is refused in every case that reads an order; the
        # order-0 series would have no q^0 coefficient to compare.
        code, out = run(["verify", "builtin:products", "--order", "0"])
        assert code == 2
        assert out.splitlines() == [
            "[ERROR] product-laws: DomainError: order must be >= 1, got 0",
            "[ERROR] tail-85: DomainError: order must be >= 1, got 0",
            "0/2 cases passed",
        ]

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_verify_order_below_one_is_error_case(self, order):
        # builtin:jacobi used to print "3/3 cases passed" at --order 0.
        code, out = run(["verify", "builtin:jacobi", "--order", order])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 4 and lines[-1] == "0/3 cases passed"
        for line in lines[:3]:
            assert line.endswith(f"DomainError: order must be >= 1, got {order}")

    def test_series_at_order_zero_still_prints(self):
        # series prints a value, not a check, so order 0 stays allowed.
        code, _ = run(["series", "theta_f", "--k", "2", "--order", "0"])
        assert code == 0


class TestJones:
    def test_trivial(self):
        code, out = run(["jones", "--f", "3", "--n", "0"])
        assert code == 0 and out.strip() == "1"

    def test_normalized_prefix(self):
        code, out = run(
            ["jones", "--f", "3", "--n", "4", "--normalized", "--order", "4"]
        )
        assert code == 0
        assert out.strip() == "1 - q - q^2"

    def test_exact_json(self):
        code, out = run(["jones", "--f", "2", "--n", "1", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["variable"] == "v"

    def test_usage_error(self):
        code, _ = run(["jones", "--f", "0", "--n", "1"])
        assert code == 2

    def test_order_cap_exit2(self, capsys):
        code, out = run(
            ["jones", "--f", "3", "--n", "2", "--normalized", "--order", "1000000000"]
        )
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "1000000000" in err and "5000" in err

    def test_order_without_normalized_exit2(self, capsys):
        # --order was ignored: the whole -v^5 - v^-3 + v^-7 was printed.
        code, out = run(["jones", "--f", "3", "--n", "1", "--order", "2"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: --order needs --normalized\n"

    def test_colour_cap_exit2(self, capsys):
        code, out = run(["jones", "--f", "1", "--n", str(MAX_JONES_N + 1)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "n 101 exceeds limit 100" in err

    def test_size_cap_exit2(self, capsys):
        code, out = run(["jones", "--f", "1000000", "--n", "3"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "f*n^2 = 9000000 exceeds limit 100000" in err

    def test_at_caps_runs(self):
        assert (MAX_JONES_N, MAX_JONES_SIZE) == (100, 100_000)
        # n at its cap; then f * n**2 exactly at its cap.
        code, out = run(["jones", "--f", "2", "--n", str(MAX_JONES_N)])
        assert code == 0 and out.strip()
        code, out = run(["jones", "--f", "1000", "--n", "10"])
        assert code == 0 and out.startswith("v^")


# Output of `skeintails oracle` frozen before the integer-only VLaurent
# kernel, so that the canonical (num, den) form stays pinned: the network
# text, then the text output, then the numerator and denominator terms of
# the JSON output.
_ORACLE_GOLDEN = [
    (  # the three examples of docs/network-format.md
        "box p color 2\narc p.a0 p.b0\narc p.a1 p.b1\n",
        "v^4 + 1 + v^-4",
        "[[-4, 1, 1], [0, 1, 1], [4, 1, 1]]",
        "[[0, 1, 1]]",
    ),
    (
        "cross x over nesw\narc x.ne x.se\narc x.nw x.sw\n",
        "v^5 + v",
        "[[1, 1, 1], [5, 1, 1]]",
        "[[0, 1, 1]]",
    ),
    (
        "box p color 1\nbox r color 1\narc p.a0 r.b0\narc r.a0 p.b0\n",
        "-v^2 - v^-2",
        "[[-2, -1, 1], [2, -1, 1]]",
        "[[0, 1, 1]]",
    ),
    (
        theta_network(1, 1, 2).serialize(),
        "v^4 + 1 + v^-4",
        "[[-4, 1, 1], [0, 1, 1], [4, 1, 1]]",
        "[[0, 1, 1]]",
    ),
    (
        theta_network(2, 2, 2).serialize(),
        "(-v^10 - v^6 - 2*v^2 - v^-2 - v^-6) / (v^4 + 1)",
        "[[-6, -1, 1], [-2, -1, 1], [2, -2, 1], [6, -1, 1], [10, -1, 1]]",
        "[[0, 1, 1], [4, 1, 1]]",
    ),
    (
        theta_network(2, 3, 3).serialize(),
        "(v^16 + v^12 + 2*v^8 + 2*v^4 + 2 + v^-4 + v^-8) / (v^8 + v^4 + 1)",
        "[[-8, 1, 1], [-4, 1, 1], [0, 2, 1], [4, 2, 1], [8, 2, 1], [12, 1, 1], "
        "[16, 1, 1]]",
        "[[0, 1, 1], [4, 1, 1], [8, 1, 1]]",
    ),
    (  # the tetrahedron with n = 1 (every edge coloured 2n = 2)
        tet_network(2).serialize(),
        "(v^16 + 2*v^8 + 2 + v^-8) / (v^8 + 2*v^4 + 1)",
        "[[-8, 1, 1], [0, 2, 1], [8, 2, 1], [16, 1, 1]]",
        "[[0, 1, 1], [4, 2, 1], [8, 1, 1]]",
    ),
    (
        torus_knot_network(3, 2).serialize(),
        "v^20 + v^16 + v^12 + v^8 + v^4 - v^-8 - v^-12 - v^-16 + v^-24",
        "[[-24, 1, 1], [-16, -1, 1], [-12, -1, 1], [-8, -1, 1], [4, 1, 1], "
        "[8, 1, 1], [12, 1, 1], [16, 1, 1], [20, 1, 1]]",
        "[[0, 1, 1]]",
    ),
]


class TestOracle:
    @pytest.mark.parametrize(
        "net, text, num, den",
        _ORACLE_GOLDEN,
        ids=[
            "closed-f2",
            "kinked-loop",
            "colour-1-ring",
            "theta-1-1-2",
            "theta-2-2-2",
            "theta-2-3-3",
            "tet-n1",
            "torus-3-2",
        ],
    )
    def test_golden_output(self, tmp_path, net, text, num, den):
        path = tmp_path / "golden.net"
        path.write_text(net)
        assert run(["oracle", str(path)]) == (0, text + "\n")
        want = (
            f'{{"denominator": {{"terms": {den}, "variable": "v"}}, '
            f'"numerator": {{"terms": {num}, "variable": "v"}}}}\n'
        )
        assert run(["oracle", str(path), "--format", "json"]) == (0, want)

    def test_theta_file(self, tmp_path):
        path = tmp_path / "theta.net"
        path.write_text(theta_network(2, 2, 2).serialize())
        code, out = run(["oracle", str(path)])
        assert code == 0
        assert "/" in out  # theta(2,2,2) is a genuine rational function

    def test_loop_file(self, tmp_path):
        path = tmp_path / "loop.net"
        path.write_text("loops 1\n")
        code, out = run(["oracle", str(path)])
        assert code == 0
        assert out.strip() == "-v^2 - v^-2"

    def test_loops_cap_exit2(self, tmp_path, capsys):
        from skeintails.networks import MAX_FREE_LOOPS

        assert MAX_FREE_LOOPS == 100
        path = tmp_path / "loops.net"
        path.write_text(f"loops {MAX_FREE_LOOPS}\n")
        code, out = run(["oracle", str(path)])
        assert code == 0 and out.startswith("v^200 + ")
        # The box has no arcs, so validation would fail too; the loop cap
        # is checked first and names both the count and the limit.
        path.write_text("box p color 1\nloops 2000\nloops 1000\n")
        code, out = run(["oracle", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "3000 free loops exceed limit 100" in err

    def test_capacity_exit2(self, tmp_path, capsys):
        path = tmp_path / "big.net"
        path.write_text(tet_network(8).serialize())  # tet n=4
        code, out = run(["oracle", str(path)])
        assert code == 2 and out == ""
        assert (
            "error: contraction work 122980 (states x terms) exceeds limit 100000"
            in capsys.readouterr().err
        )

    def test_non_utf8_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_bytes(b"\xff\xfe")
        code, out = run(["oracle", str(path)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decode" in err

    def test_parse_error_exit2(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("frob 1\n")
        code, _ = run(["oracle", str(path)])
        assert code == 2


# Runs one verify in a fresh interpreter and prints what it imported.
_FOOTPRINT = """
import io, json, sys
from skeintails import cli
code = cli.main(["verify", sys.argv[1]], out=io.StringIO())
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_ORACLE_MODULES = {"skeintails.networks", "skeintails.tl_oracle"}


def _fresh_python(*args: str) -> str:
    """Stdout of a new interpreter that imports this checkout's skeintails."""
    src = os.path.dirname(os.path.dirname(skeintails.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.stdout
_HEAVY_STDLIB = {"dataclasses", "fractions"}


def _footprint(tmp_path, cases: list[dict]) -> set[str]:
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"suite": "s", "cases": cases}))
    result = json.loads(_fresh_python("-c", _FOOTPRINT, str(path)))
    assert result["code"] == 0
    return set(result["modules"])


class TestFootprint:
    """A verify process imports only the modules its cases call."""

    def test_empty_suite(self, tmp_path):
        loaded = _footprint(tmp_path, [])
        assert "skeintails.cli" in loaded
        unused = _ORACLE_MODULES | _HEAVY_STDLIB | {
            "skeintails.qcore",
            "skeintails.skein_formulas",
            "skeintails.tails_engine",
            "skeintails.qidentities",
        }
        assert not loaded & unused

    def test_identities_suite_skips_the_oracle(self, tmp_path):
        case = {"id": "ag", "check": "andrews_gordon", "params": {"k": 2, "order": 10}}
        loaded = _footprint(tmp_path, [case])
        assert "skeintails.qidentities" in loaded
        assert not loaded & (_ORACLE_MODULES | _HEAVY_STDLIB)

    def test_package_import_loads_no_module(self):
        out = _fresh_python(
            "-c", "import sys, skeintails; "
            "print(sorted(m for m in sys.modules if m.startswith('skeintails')))"
        )
        assert out.strip() == "['skeintails']"

    def test_every_public_name_resolves(self):
        for name in skeintails.__all__:
            assert getattr(skeintails, name) is not None, name
        with pytest.raises(AttributeError):
            skeintails.no_such_name
