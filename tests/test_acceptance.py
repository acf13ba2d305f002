"""Acceptance gate: every criterion runs exactly, tolerance zero.

One test per criterion; each prints a single pass/fail line.  The same
checks back the builtin:acceptance CLI suite, so CI and the command line
exercise identical code.
"""

import importlib.util
import inspect
import json
import re
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeintails.errors import CapacityError, DomainError
from skeintails.qcore import MAX_SERIES_ORDER, QSeries
from skeintails.qidentities import MAX_AG_K, SERIES_REGISTRY
from skeintails.skein_formulas import CHAIN_PARAMS
from skeintails.tails_engine import GRAPH_FAMILIES
from skeintails.tl_oracle import MAX_BOX_COLOR
from skeintails.verifycases import CHECKS, run_check


def _criterion(number: int, label: str, check: str, params: dict) -> None:
    ok, detail = run_check(check, params)
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_c01_andrews_gordon_identities():
    for k in (2, 3, 4, 5):
        _criterion(1, f"Andrews-Gordon k={k}", "andrews_gordon", {"k": k, "order": 50})


def test_c02_false_theta_identities():
    for k in (2, 3, 4, 5):
        _criterion(
            2, f"false theta k={k}", "false_theta_identity", {"k": k, "order": 50}
        )


def test_c03_jacobi_triple_product():
    _criterion(3, "f(-q^2,-q) = (q;q)_inf", "jacobi_triple", {"order": 40})


def test_c04_morrison_coefficients():
    _criterion(4, "nested hook coefficients", "morrison", {"n_max": 3})


def test_c05_jones_wenzl_laws():
    _criterion(5, "projector laws to n=6", "jw_laws", {"n_max": 6})


def test_c06_bubble_expansion_oracle():
    _criterion(6, "bubble expansion vs oracle", "bubble_oracle", {"max_param": 2})


def test_c07_tail_lemmas():
    _criterion(7, "([n]!)^2/[2n]! tail", "tail_lemma_fact", {"n_max": 20})
    _criterion(7, "bubble_0 tail", "tail_lemma_bubble0", {"n_max": 20})
    _criterion(7, "sum P(n,i) tail", "tail_lemma_psum", {"n_max": 12})
    _criterion(7, "sum P(n,i) ceil_0 tail", "tail_lemma_psum_nn0", {"n_max": 12})


@pytest.mark.parametrize(
    "f,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (1, 3)]
)
def test_c08_torus_formula_vs_oracle(f, n):
    _criterion(8, f"(2,{f}) color {n}", "torus_oracle", {"f": f, "n": n})


def test_c09_stabilization_and_chains():
    _criterion(
        9, "torus tails & chains k<=3", "torus_stabilization", {"k_max": 3, "n_max": 12}
    )


def test_c10_lambda_theorem():
    _criterion(10, "tet/theta vs Lambda n<=6", "lambda_theorem", {"n_max": 6})
    _criterion(10, "tet_2n(1) vs oracle", "tet_oracle", {"n": 1})


def test_c11_theta_tail():
    _criterion(11, "theta_2n vs (q^2;q)_n n<=15", "theta_tail", {"n_max": 15})


def test_c12_product_combinators():
    _criterion(12, "unit laws & 4-wheel", "product_laws", {"order": 30})


def test_c13_85_tail():
    _criterion(13, "8_5 series checks", "tail85", {"order": 30})


# -- the parameter table -------------------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]

# A value for each required parameter, so that a test can vary one other.
# At n = 2 one step past torus_oracle's f cap already runs for seconds.
_GIVEN = {
    "order": 10, "k": 2, "f": 1, "n": 2,
    "a": {"series": "lambda"}, "b": {"series": "lambda"},
}


def _required(name: str) -> dict:
    return {
        key: _GIVEN[key]
        for key, (default, _, _) in CHECKS[name][1].items()
        if default is None
    }


def _least(name: str, key: str) -> int | None:
    return CHECKS[name][1][key][1]


def _most(name: str, key: str) -> int | None:
    return CHECKS[name][1][key][2]


def _limited_by(limit) -> list[tuple[str, str]]:
    """(check, parameter) for every parameter with a ``_least`` or ``_most``."""
    return [
        (name, key)
        for name, (_, spec) in CHECKS.items()
        for key in spec
        if limit(name, key) is not None
    ]


def _shipped_cases():
    """Every case of the builtin suites, and of each perfbench workload with
    its window offsets at both extremes."""
    for path in sorted((_ROOT / "src" / "skeintails" / "suites").glob("*.json")):
        yield from json.loads(path.read_text())["cases"]
    spec = importlib.util.spec_from_file_location(
        "perfbench_suites", _ROOT / "perfbench" / "suites.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for cases in mod.WORKLOADS.values():
        for _id, check, params, window in cases:
            for d in (-1, 0, 1) if window else (0,):
                p = dict(params)
                if window:
                    p[window[0]] += d
                yield {"check": check, "params": p}


def test_each_row_declares_its_check_signature():
    # run_check calls each check with exactly the keys of its row, and every
    # integer parameter (annotated int) has a limit; only series_equal's
    # series specs pass unread.
    for name, (fn, spec) in CHECKS.items():
        assert list(inspect.signature(fn).parameters) == list(spec), name
        for key, (default, least, most) in spec.items():
            assert (most is not None) == (fn.__annotations__[key] == "int"), key
            if default is not None:
                assert least is None or least <= default, (name, key)
                assert default <= most, (name, key)


def _admitted(key: str) -> int:
    """How many shipped cases set ``key``; each holds its value to its row."""
    seen = 0
    for case in _shipped_cases():
        spec = CHECKS[case["check"]][1]
        value = case.get("params", {}).get(key)
        if value is not None:
            _, least, most = spec[key]
            assert least is None or least <= value, case
            assert most is None or value <= most, case
            seen += 1
    return seen


def _capped_checks(key: str) -> set[str]:
    return {name for name, k in _limited_by(_most) if k == key}


def _takes(key: str) -> set[str]:
    return {
        name
        for name, (fn, _) in CHECKS.items()
        if key in inspect.signature(fn).parameters
    }


def test_every_shipped_case_is_admitted():
    for case in _shipped_cases():
        spec = CHECKS[case["check"]][1]
        for key, value in case.get("params", {}).items():
            assert key in spec, case
            _, least, most = spec[key]
            assert least is None or least <= value, case
            assert most is None or value <= most, case


def test_n_max_caps_cover_every_n_max_check():
    assert _takes("n_max") == _capped_checks("n_max") != set()


def test_n_max_caps_admit_every_shipped_suite():
    assert _admitted("n_max") >= 20


def test_max_param_caps_cover_every_max_param_check():
    assert _takes("max_param") == _capped_checks("max_param") != set()


def test_max_param_caps_admit_every_shipped_suite():
    assert _admitted("max_param") >= 3


def test_f_caps_admit_every_shipped_suite():
    assert _admitted("f") >= 10


def test_colour_caps_admit_every_shipped_suite():
    assert _admitted("n") >= 10


@pytest.mark.parametrize("name,key", _limited_by(_most))
def test_over_cap_is_refused_before_building(name, key):
    # One above the cap (a box of colour 9 after seconds of contraction for
    # bubble_oracle, seconds of crossings for torus_oracle's f) and far
    # above it are both refused at once.
    most = _most(name, key)
    for value in (most + 1, 10**9):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^{key} {value} exceeds limit {most}$"):
            run_check(name, {**_required(name), key: value})
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name,key", _limited_by(_least))
@pytest.mark.parametrize("value", [0, -1])
def test_capped_parameter_below_one_is_refused(name, key, value):
    # Below 1 a check loops over nothing and would pass vacuously.
    assert _least(name, key) == 1
    with pytest.raises(DomainError, match=f"^{key} must be >= 1, got {value}$"):
        run_check(name, {**_required(name), key: value})


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("series_equal",
         {"a": {"series": "lambda"}, "b": {"series": "poch_inf", "c": 1}},
         "order"),
        ("andrews_gordon", {"k": 2}, "order"),
        ("jacobi_triple", {}, "order"),
        ("product_laws", {}, "order"),
        ("torus_stabilization", {"n_max": 12}, "k_max"),
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_uncapped_parameter_below_one_is_refused(name, params, key, value):
    # At order 0 a series comparison compares no coefficients ("equal (0
    # coefficients)"), and at k_max 0 torus_stabilization checks no k.
    with pytest.raises(DomainError, match=f"^{key} must be >= 1, got {value}$"):
        run_check(name, {**params, key: value})


@pytest.mark.parametrize("name", list(CHECKS))
def test_undeclared_parameter_is_refused(name):
    # A misspelled key used to be dropped, so the check ran at its default.
    with pytest.raises(
        DomainError, match=f"^unknown parameter 'nmax' for {name}$"
    ):
        run_check(name, {**_required(name), "nmax": 100000})


def test_colour_caps_are_the_largest_box_colour():
    # torus_oracle draws boxes of colour n, tet_oracle of colour 2n.
    assert _most("torus_oracle", "n") == MAX_BOX_COLOR
    assert _most("tet_oracle", "n") == MAX_BOX_COLOR // 2


def test_k_caps_are_the_largest_multi_sum_depth():
    # The andrews_gordon and false-theta sums, and torus_stabilization's
    # chains, call ag_rhs(k) and false_ag_rhs(k), which refuse k above
    # MAX_AG_K.
    assert _most("andrews_gordon", "k") == MAX_AG_K
    assert _most("false_theta_identity", "k") == MAX_AG_K
    assert _most("torus_stabilization", "k_max") == MAX_AG_K
    # So do the named series, and the chains: the odd chain of k is
    # false_ag_rhs(k + 1).
    assert SERIES_REGISTRY["ag_rhs"][1]["k"][2] == MAX_AG_K
    assert SERIES_REGISTRY["false_ag_rhs"][1]["k"][2] == MAX_AG_K
    assert CHAIN_PARAMS["even"]["k"][2] == MAX_AG_K
    assert CHAIN_PARAMS["odd"]["k"][2] == MAX_AG_K - 1


def test_order_caps_are_the_series_order_cap():
    # So test_over_cap_is_refused_before_building refuses MAX_SERIES_ORDER + 1
    # in every check that takes an order.  Only the CLI capped a suite's
    # order before, and a library call reached [0] * order.
    assert {
        _most(name, "order") for name, (_, spec) in CHECKS.items() if "order" in spec
    } == {MAX_SERIES_ORDER}


# -- the series rows ----------------------------------------------------------

# Every named series, graph family and chain parity, by the name its
# refusals give: the head of its series_equal spec, and its row.
_SERIES_ROWS = {
    **{name: ({"series": name}, row) for name, (_, row) in SERIES_REGISTRY.items()},
    **{family: ({"family": family}, row) for family, row in GRAPH_FAMILIES.items()},
    **{f"{p} chain": ({"chain": p}, row) for p, row in CHAIN_PARAMS.items()},
}

# A value for each series parameter without a default.
_GIVEN_SERIES = {
    "k": 2, "m": 1, "c": 1, "step": 1,
    "a_sign": 1, "a_num": 1, "b_sign": 1, "b_num": 1,
}


def _spec(name: str, **params) -> dict:
    head, row = _SERIES_ROWS[name]
    given = {key: _GIVEN_SERIES[key] for key, (default, _, _) in row.items()
             if default is None}
    return {**head, **given, **params}


def _compare_unbuilt(spec: dict):
    """Run series_equal on ``spec`` with every QSeries construction refused."""
    with mock.patch.object(QSeries, "__init__", side_effect=AssertionError):
        return run_check(
            "series_equal", {"order": 10, "a": spec, "b": {"series": "lambda"}}
        )


def _series_limited(slot: int) -> list[tuple[str, str]]:
    """(name, parameter) for every series parameter with a least (slot 1)
    or a most (slot 2)."""
    return [
        (name, key)
        for name, (_, row) in _SERIES_ROWS.items()
        for key, limits in row.items()
        if limits[slot] is not None
    ]


def test_every_series_row_declares_what_it_builds():
    # named_series calls each function with exactly its row's keys and the
    # order, and every row's given spec builds.
    for fn, row in SERIES_REGISTRY.values():
        assert list(inspect.signature(fn).parameters) == [*row, "order"], fn
    for name in _SERIES_ROWS:
        ok, detail = run_check(
            "series_equal", {"order": 10, "a": _spec(name), "b": _spec(name)}
        )
        assert ok, detail


@pytest.mark.parametrize("name,key", _series_limited(2))
def test_series_over_cap_is_refused_before_building(name, key):
    most = _SERIES_ROWS[name][1][key][2]
    for value in (most + 1, 10**9):
        with pytest.raises(CapacityError, match=f"^{key} {value} exceeds limit {most}$"):
            _compare_unbuilt(_spec(name, **{key: value}))


@pytest.mark.parametrize("name,key", _series_limited(1))
def test_series_below_least_is_refused_before_building(name, key):
    least = _SERIES_ROWS[name][1][key][1]
    with pytest.raises(
        DomainError, match=f"^{key} must be >= {least}, got {least - 1}$"
    ):
        _compare_unbuilt(_spec(name, **{key: least - 1}))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_SERIES_ROWS)),
    key=st.text(min_size=1, max_size=12),
    value=st.integers(),
)
def test_undeclared_series_parameter_is_refused(name, key, value):
    # An undeclared key used to be dropped: a misspelled g_kl sign_fixed
    # compared the default reading and passed.
    assume(key not in _SERIES_ROWS[name][1] and key not in ("series", "family", "chain"))
    with pytest.raises(
        DomainError, match=f"^unknown parameter {re.escape(repr(key))} for {name}$"
    ):
        _compare_unbuilt(_spec(name, **{key: value}))
