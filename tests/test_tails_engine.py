"""Normalization, the agreement predicate, stabilization, tail products."""

from fractions import Fraction
from unittest import mock

import pytest

from skeintails import qcore, tails_engine
from skeintails.errors import CapacityError, DomainError, PrecisionError
from skeintails.qcore import (
    QSeries,
    VFraction,
    VLaurent,
    poch_finite,
    poch_inf,
    poch_sum,
    quantum_int,
    series_div,
    series_mul,
    to_q_series,
)
from skeintails.qidentities import false_theta, lambda_series, theta_f
from skeintails.skein_formulas import colored_jones_torus, tet_theta_ratio, theta_2n
from skeintails.tails_engine import (
    MAX_FAMILY_M,
    agree_to_order,
    graph_family_tail,
    normalize,
    stabilization_report,
    tail_product_1,
    tail_product_23,
)


def torus_jones(f: int):
    """n -> the (2, f) torus value read to the n coefficients compared."""
    return lambda n: colored_jones_torus(f, n, order=n)


class TestNormalize:
    def test_example(self):
        got = normalize(VLaurent.from_q_dict({2: -1, 3: 1}))
        assert got.coeffs == (1, -1)

    def test_leading_zeros_are_dropped_before_the_order(self):
        # A series keeps its leading zeros; normalize drops them with the
        # power of q, then cuts to the order.
        s = QSeries([0, 0, 1])
        assert s.order == 3
        assert normalize(s) == QSeries([1])
        assert normalize(QSeries([0, -2, 3, 5]), 2) == QSeries([2, -3])
        with pytest.raises(PrecisionError, match="known to order 3, requested 4"):
            normalize(QSeries([0, -2, 3, 5]), 4)

    def test_idempotent(self):
        s = normalize(VLaurent.from_q_dict({2: -1, 3: 1}))
        assert normalize(s) == s

    def test_orbit_invariance(self):
        # The normalized representative is a complete invariant of the
        # +-q^s orbit (leading magnitude is preserved, so general scalars
        # are deliberately outside the orbit).
        p = VLaurent.from_q_dict({0: 2, 1: -3, 4: 1})
        base = normalize(p)
        for c in (1, -1):
            for s in (-3, 0, 11):
                scaled = p.scale(c) * VLaurent.q_power(s)
                assert normalize(scaled) == base
        assert normalize(p.scale(-3)) != base
        # A rational scalar has no series in Z[[q]].
        three_sevenths = VFraction(p.scale(3), VLaurent({0: 7}))
        with pytest.raises(DomainError):
            normalize(three_sevenths, order=8)

    def test_order_pads_a_polynomial_past_its_span(self):
        # -2 A^-6 + A^-2 normalizes to 2 - q.  Without an order it keeps its
        # span; an order cuts it or pads it with zeros, and a series is only
        # ever cut.
        p = VLaurent({-6: -2, -2: 1})
        assert normalize(p) == QSeries([2, -1])
        assert normalize(p, 5) == QSeries([2, -1, 0, 0, 0])
        assert normalize(p, 1) == QSeries([2])
        assert normalize(p, 0) == QSeries([])
        assert normalize(normalize(p, 5), 3) == QSeries([2, -1, 0])
        with pytest.raises(PrecisionError):
            normalize(normalize(p), 5)
        # A value shorter than n is padded to the n coefficients that
        # stabilization_report compares.
        verdicts, tail = stabilization_report(lambda n: VLaurent.one(), 4)
        assert verdicts == (True,) * 4
        assert tail == QSeries([1, 0, 0, 0])

    def test_magnitude_preserved(self):
        got = normalize(VLaurent.from_q_dict({1: -3, 2: 6}))
        assert list(got.coeffs) == [3, -6]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            normalize(VLaurent.zero())
        with pytest.raises(DomainError):
            normalize(QSeries.zero(5))

    def test_fraction_needs_order(self):
        f = VFraction(VLaurent.one(), quantum_int(2))
        with pytest.raises(DomainError):
            normalize(f)
        s = normalize(f, order=5)
        assert s.order == 5 and s.coeffs[0] == 1

    def test_framing_power_discarded(self):
        # A global factor +-A^r is framing and must not affect the result,
        # for a polynomial and a rational function, at every residue of r.
        p = VLaurent.from_q_dict({0: 1, 1: -1})
        f = VFraction(VLaurent.from_q_dict({0: 2, 2: 1}), quantum_int(3))
        for value, order in ((p, None), (f, 6)):
            base = normalize(value, order)
            for sign in (1, -1):
                for r in range(-7, 8):
                    framed = value * VLaurent.monomial(sign, r)
                    assert normalize(framed, order) == base

    def test_no_gcd_on_the_normal_path(self):
        # A stored denominator that starts with +-1 is expanded as stored.
        with mock.patch.object(qcore, "_poly_gcd", side_effect=AssertionError):
            assert normalize(theta_2n(3).exact(), 4) == poch_inf(2, 4)
            ratio = poch_sum(tet_theta_ratio(2))
            assert agree_to_order(normalize(ratio, 4), lambda_series(4), 2)

    def test_torus_jones_prefix(self):
        s = normalize(colored_jones_torus(3, 3))
        assert list(map(int, s.coeffs[:3])) == list(map(int, poch_inf(1, 3).coeffs))


class TestAgreeToOrder:
    def test_reflexive_symmetric(self):
        a = theta_f(2, 20)
        b = false_theta(2, 20)
        assert agree_to_order(a, a, 20)
        assert agree_to_order(a, b, 1) == agree_to_order(b, a, 1)

    def test_monotone(self):
        a = theta_f(2, 20)
        b = false_theta(2, 20)  # they differ at q^3
        hit = [n for n in range(1, 10) if agree_to_order(a, b, n)]
        assert hit == [1, 2, 3]

    def test_simple_disagreement(self):
        assert not agree_to_order(QSeries([1, 1]), QSeries([1, -1]), 2)

    def test_poch_prefix(self):
        for n in range(1, 21):
            fin = to_q_series(poch_finite(1, 1, n), n + 2)
            inf = poch_inf(1, n + 2)
            assert agree_to_order(fin, inf, n + 1)
            assert not agree_to_order(fin, inf, n + 2)

    def test_precision_error(self):
        a = QSeries([1, 2, 3])
        with pytest.raises(PrecisionError):
            agree_to_order(a, a, 4)


class TestStabilization:
    def test_constant_generator(self):
        verdicts, tail = stabilization_report(
            lambda n: VLaurent.from_q_dict({0: 1, 1: -1}), 8
        )
        assert verdicts == (True,) * 8
        assert tail == QSeries([1, -1] + [0] * 6)

    def test_alternating_generator_fails(self):
        verdicts, _ = stabilization_report(
            lambda n: VLaurent.from_q_dict({0: 1, 1: (-1) ** n}), 6
        )
        assert not any(verdicts[1:])

    def test_torus_f5(self):
        verdicts, tail = stabilization_report(torus_jones(5), 12)
        assert all(verdicts)
        assert tail == theta_f(2, 12)

    def test_strict_offset_for_torus_chains(self):
        # (2, f) torus knots agree on n + 1 coefficients, one past the tail
        values = [normalize(colored_jones_torus(3, n)) for n in range(1, 10)]
        for n in range(1, 9):
            assert agree_to_order(values[n - 1], values[n], n + 1)

    def test_theta_generator_tail(self):
        # the theta family stabilizes onto (q^2; q)_inf
        verdicts, tail = stabilization_report(
            lambda n: normalize(theta_2n(n).exact(), max(2 * n + 4, 8)), 8
        )
        assert all(verdicts)
        assert tail == poch_inf(2, 8)

    def test_n_max_below_one_raises(self):
        with pytest.raises(DomainError):
            stabilization_report(torus_jones(3), 0)


class TestTailProducts:
    def test_unit_law_product1(self):
        t = lambda_series(25)
        assert tail_product_1(t, poch_inf(2, 25), 25) == t.with_order(25)

    def test_theta_glued_to_theta(self):
        t = poch_inf(2, 25)
        assert tail_product_1(t, t, 25) == t.with_order(25)

    def test_unit_law_product23(self):
        t = theta_f(2, 25)
        inv = series_div(QSeries.one(25), to_q_series(poch_finite(1, 1, 1), 25))
        assert tail_product_23(t, inv, 25) == t.with_order(25)

    def test_connect_sum_of_trefoils(self):
        # (1-q) (q;q)_inf^2, checked against the stabilized product generator
        order = 8
        pp = poch_inf(1, order)
        want = tail_product_23(pp, pp, order)

        def trefoil_pair(n: int) -> QSeries:
            t = normalize(colored_jones_torus(3, n), n)
            return t * t * to_q_series(poch_finite(1, 1, 1), n)

        verdicts, tail = stabilization_report(trefoil_pair, order)
        assert all(verdicts)
        assert tail == want.with_order(order)

    def test_wheel_reproduction(self):
        order = 30
        tet = graph_family_tail("tet2n", {}, order)
        glued = tet
        for _ in range(3):
            glued = tail_product_1(glued, tet, order)
        wheel = tail_product_23(glued, QSeries.one(order), order)
        lam = lambda_series(order)
        want = poch_inf(1, order)
        for _ in range(4):
            want = series_mul(want, lam).with_order(order)
        assert wheel == want
        assert graph_family_tail("g_m", {"m": 4}, order) == want


class TestGraphFamilies:
    def test_inadequate_chain(self):
        order = 25
        pp = poch_inf(1, order)
        want = series_mul(series_mul(poch_inf(2, order), pp), pp).with_order(order)
        assert graph_family_tail("inadequate_chain", {"m": 2}, order) == want

    def test_m_cap(self):
        order = 10
        want = poch_inf(1, order)
        for _ in range(MAX_FAMILY_M):
            want = series_mul(want, lambda_series(order))
        assert graph_family_tail("g_m", {"m": MAX_FAMILY_M}, order) == want
        # Refused before any series is built, whatever the order.
        with mock.patch.object(tails_engine, "lambda_series", side_effect=AssertionError), \
                mock.patch.object(tails_engine, "poch_inf", side_effect=AssertionError):
            for family in ("g_m", "inadequate_chain"):
                for m in (MAX_FAMILY_M + 1, 10**9):
                    with pytest.raises(
                        CapacityError, match=f"^m {m} exceeds limit {MAX_FAMILY_M}$"
                    ):
                        graph_family_tail(family, {"m": m}, 10)

    def test_g_m_squares_lambda(self):
        # Lambda^m by repeated squaring: at m = 5, Lambda^2, Lambda^4 and
        # their product with Lambda, where one product per unit of m made
        # five; m = 4 needs two squarings and the product with the unit.
        for m, products in ((4, 3), (MAX_FAMILY_M, 4)):
            with mock.patch.object(
                tails_engine, "series_mul", wraps=series_mul
            ) as counted:
                graph_family_tail("g_m", {"m": m}, 10)
            assert counted.call_count == products

    @pytest.mark.parametrize(
        "family,params,message",
        [
            ("g_m", {"m": -1}, "m must be >= 0, got -1"),
            ("inadequate_chain", {"m": -1}, "m must be >= 0, got -1"),
            ("g_kl", {"k": 0}, "k must be >= 1, got 0"),
            ("g_kl", {"k": 1, "l": -1}, "l must be >= 0, got -1"),
        ],
        ids=["g_m", "inadequate_chain", "g_kl-k", "g_kl-l"],
    )
    def test_parameter_below_its_least_is_refused(self, family, params, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            graph_family_tail(family, params, 10)

    def test_theta_family(self):
        assert graph_family_tail("theta", {}, 20) == poch_inf(2, 20)

    def test_g_kl_sign_conventions(self):
        # default keeps the verbatim mixed-sign factor f(-q^(2l+2), +q);
        # sign_fixed switches to f(-q^(2l+2), -q)
        a = graph_family_tail("g_kl", {"k": 1, "l": 0}, 20)
        b = graph_family_tail("g_kl", {"k": 1, "l": 0, "sign_fixed": 1}, 20)
        assert a != b
        from skeintails.qidentities import MonomialArg, psi_general, theta_general

        psi = psi_general(MonomialArg(1, Fraction(3)), MonomialArg(1, Fraction(1)), 20)
        f_plus = theta_general(
            MonomialArg(-1, Fraction(2)), MonomialArg(1, Fraction(1)), 20
        )
        assert a == series_mul(psi, f_plus).with_order(20)

    def test_unknown_family(self):
        # chains are reached through a suite's "chain" key, not as a family
        for family in ("nosuch", "chain_even", "chain_odd"):
            with pytest.raises(DomainError, match="unknown graph family"):
                graph_family_tail(family, {"k": 1}, 5)
