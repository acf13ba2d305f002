"""Acceptance gate: every criterion runs exactly, tolerance zero.

One test per criterion; each prints a single pass/fail line.  The same
checks back the builtin:acceptance CLI suite, so CI and the command line
exercise identical code.
"""

import importlib.util
import inspect
import json
import time
from pathlib import Path

import pytest

from skeintails.errors import CapacityError, DomainError
from skeintails.tl_oracle import MAX_BOX_COLOR
from skeintails.verifycases import (
    CHECKS,
    MAX_F,
    MAX_MAX_PARAM,
    MAX_N,
    MAX_N_MAX,
    run_check,
)


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


# -- the per-check n_max caps --------------------------------------------------

_ROOT = Path(__file__).resolve().parents[1]


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


def test_n_max_caps_cover_every_n_max_check():
    reads_n_max = {
        name for name, fn in CHECKS.items() if '"n_max"' in inspect.getsource(fn)
    }
    assert reads_n_max == set(MAX_N_MAX)


def test_n_max_caps_admit_every_shipped_suite():
    seen = 0
    for case in _shipped_cases():
        n_max = case.get("params", {}).get("n_max")
        if n_max is not None:
            assert n_max <= MAX_N_MAX[case["check"]], case
            seen += 1
    assert seen >= 20


def test_n_max_over_cap_is_refused_before_building():
    for name, limit in MAX_N_MAX.items():
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"n_max {10**9} exceeds limit {limit}"):
            run_check(name, {"n_max": 10**9})
        assert time.perf_counter() - start < 1


def test_max_param_caps_cover_every_max_param_check():
    reads = {
        name for name, fn in CHECKS.items() if '"max_param"' in inspect.getsource(fn)
    }
    assert reads == set(MAX_MAX_PARAM)


def test_max_param_caps_admit_every_shipped_suite():
    seen = 0
    for case in _shipped_cases():
        value = case.get("params", {}).get("max_param")
        if value is not None:
            assert value <= MAX_MAX_PARAM[case["check"]], case
            seen += 1
    assert seen >= 3


def test_max_param_over_cap_is_refused_before_building():
    # One above the cap (a box of colour 9 after seconds of contraction
    # without it) and far above it are both refused at once.
    for name, limit in MAX_MAX_PARAM.items():
        for value in (limit + 1, 100):
            start = time.perf_counter()
            with pytest.raises(
                CapacityError, match=f"^max_param {value} exceeds limit {limit}$"
            ):
                run_check(name, {"max_param": value})
            assert time.perf_counter() - start < 1


def test_f_over_cap_is_refused_before_building():
    # At n = 2 one step past the cap already runs for seconds.
    for name, limit in MAX_F.items():
        for f in (limit + 1, 100000):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=f"^f {f} exceeds limit {limit}$"):
                run_check(name, {"f": f, "n": 2})
            assert time.perf_counter() - start < 1


def test_f_caps_admit_every_shipped_suite():
    seen = 0
    for case in _shipped_cases():
        if case["check"] in MAX_F:
            assert case["params"]["f"] <= MAX_F[case["check"]], case
            seen += 1
    assert seen >= 10


def test_colour_caps_are_the_largest_box_colour():
    # torus_oracle draws boxes of colour n, tet_oracle of colour 2n.
    assert MAX_N == {"torus_oracle": MAX_BOX_COLOR, "tet_oracle": MAX_BOX_COLOR // 2}
    reads = {name for name, fn in CHECKS.items() if '"n"' in inspect.getsource(fn)}
    assert reads == set(MAX_N)


def test_colour_over_cap_is_refused_before_building():
    for name, limit in MAX_N.items():
        for n in (limit + 1, 10**6):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=f"^n {n} exceeds limit {limit}$"):
                run_check(name, {"f": 1, "n": n})
            assert time.perf_counter() - start < 1


def test_colour_caps_admit_every_shipped_suite():
    seen = 0
    for case in _shipped_cases():
        if case["check"] in MAX_N:
            assert case["params"]["n"] <= MAX_N[case["check"]], case
            seen += 1
    assert seen >= 10


@pytest.mark.parametrize(
    "name,key",
    [*((name, "n_max") for name in MAX_N_MAX),
     *((name, "max_param") for name in MAX_MAX_PARAM),
     *((name, "f") for name in MAX_F),
     *((name, "n") for name in MAX_N)],
)
@pytest.mark.parametrize("value", [0, -1])
def test_capped_parameter_below_one_is_refused(name, key, value):
    # Below 1 a check loops over nothing and would pass vacuously.
    params = {"f": 3, "n": 1, key: value}
    with pytest.raises(DomainError, match=f"^{key} must be >= 1, got {value}$"):
        run_check(name, params)


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
