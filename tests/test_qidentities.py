"""Theta/false-theta series, Andrews-Gordon sums, Lambda, and the 8_5 tail."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintails import qidentities
from skeintails.errors import CapacityError, DomainError, RepresentationError
from skeintails.qcore import (
    QSeries,
    mul_poch_inf,
    poch_inf,
    poch_inf_step,
    series_div,
    series_mul,
)
from skeintails.qidentities import (
    MAX_AG_K,
    MonomialArg,
    ag_rhs,
    false_ag_rhs,
    false_theta,
    lambda_series,
    named_series,
    nested_sum_series,
    psi_general,
    tail_85,
    theta_f,
    theta_general,
)
from skeintails.skein_formulas import chain_tail
from skeintails.tails_engine import graph_family_tail, tail_product_1, tail_product_23


def mq(sign: int, e) -> MonomialArg:
    return MonomialArg(sign, Fraction(e))


def dict_series(d: dict, order: int) -> QSeries:
    return QSeries(0, [d.get(j, 0) for j in range(order)])


def assert_integer_coefficients(s: QSeries) -> None:
    assert all(type(c) is int for c in s.coeffs)


def dict_mul(a: dict, b: dict, order: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 < order:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _raw_tail_85(order: int, k_last: int) -> QSeries:
    """The 8_5 series summed over k <= k_last with raw dict arithmetic."""
    from skeintails.qcore import poch_finite, qbinom

    total = {}
    for k in range(k_last + 1):
        inner = {}
        for i in range(k + 1):
            qb = {e // 4: int(c) for e, c in qbinom(k, i).terms.items()}
            sq = dict_mul(qb, qb, 10**6)
            for e, c in sq.items():
                key = e - 2 * i * (k - i) + k + k * k
                inner[key] = inner.get(key, 0) + c
        # divide by (q;q)_k: geometric long division on dicts
        den = {e // 4: int(c) for e, c in poch_finite(1, 1, k).terms.items()}
        lo = min(inner) if inner else 0
        quot = {}
        work = dict(inner)
        for e in range(lo, order):
            c = work.get(e, 0)
            if c:
                quot[e] = c
                for de, dc in den.items():
                    if de:
                        work[e + de] = work.get(e + de, 0) - c * dc
        for e, c in quot.items():
            if e < order:
                total[e] = total.get(e, 0) + c
    pp = {j: int(c) for j, c in enumerate(poch_inf(1, order).coeffs)}
    p2 = {j: int(c) for j, c in enumerate(poch_inf(2, order).coeffs)}
    return dict_series(dict_mul(dict_mul(pp, p2, order), total, order), order)


class TestMonomialArg:
    def test_validation(self):
        with pytest.raises(DomainError):
            MonomialArg(2, Fraction(1))
        with pytest.raises(DomainError):
            MonomialArg(1, Fraction(0))
        with pytest.raises(DomainError):
            MonomialArg(1, Fraction(1, 3))
        assert MonomialArg(1, Fraction(3, 2)).half_exponent == 3


class TestThetaGeneral:
    def test_symmetry(self):
        assert theta_general(mq(-1, 4), mq(-1, 1), 30) == theta_general(
            mq(-1, 1), mq(-1, 4), 30
        )

    def test_euler_specialization(self):
        assert theta_general(mq(-1, 2), mq(-1, 1), 40) == poch_inf(1, 40)

    def test_jacobi_step5(self):
        lhs = theta_general(mq(-1, 3), mq(-1, 2), 25)
        rhs = series_mul(
            series_mul(poch_inf_step(3, 5, 25), poch_inf_step(2, 5, 25)),
            poch_inf_step(5, 5, 25),
        ).with_order(25)
        assert lhs == rhs

    def test_half_integer_exponents_can_combine(self):
        # f(-q^(3/2), -q^(1/2)) = (q^(1/2); q^(1/2))_inf lands in Z[[q^(1/2)]]
        # only when the support is integral; that combination is not, so the
        # engine must refuse it.
        with pytest.raises(RepresentationError):
            theta_general(mq(-1, Fraction(3, 2)), mq(-1, 1), 20)


def _one_sided_sums(a: MonomialArg, b: MonomialArg, order: int, second_sign: int) -> QSeries:
    """f(a, b) (second_sign +1) or Psi(a, b) (-1) as the two one-sided sums

        sum_{i>=0} a^(i(i+1)/2) b^(i(i-1)/2) + second_sign * sum_{i>=1} a^(i(i-1)/2) b^(i(i+1)/2),

    each term summed in half-exponent units.  The i-th term has degree at
    least i, so i <= 2 * order + 1 covers every term below q^order."""
    acc: dict[int, int] = {}
    terms = [(i * (i + 1) // 2, i * (i - 1) // 2, 1) for i in range(2 * order + 2)]
    terms += [(i * (i - 1) // 2, i * (i + 1) // 2, second_sign) for i in range(1, 2 * order + 2)]
    for ta, tb, sign in terms:
        deg = a.half_exponent * ta + b.half_exponent * tb
        if deg <= 2 * order:
            acc[deg] = acc.get(deg, 0) + sign * a.sign**ta * b.sign**tb
    if any(c and deg % 2 for deg, c in acc.items()):
        raise RepresentationError("half-integer exponent")
    return QSeries(0, [acc.get(2 * j, 0) for j in range(order)])


_half_args = st.builds(
    lambda sign, num, den: MonomialArg(sign, Fraction(num, den)),
    st.sampled_from([1, -1]),
    st.integers(1, 8),
    st.sampled_from([1, 2]),
)


@settings(max_examples=300, deadline=None)
@given(a=_half_args, b=_half_args, order=st.integers(0, 40), second_sign=st.sampled_from([1, -1]))
def test_bilateral_sum_matches_one_sided_sums(a, b, order, second_sign):
    # The engine walks one sum over i in Z; the reference adds the two
    # one-sided sums of the definition.  Both refuse the same arguments.
    fn = theta_general if second_sign == 1 else psi_general
    try:
        want = _one_sided_sums(a, b, order, second_sign)
    except RepresentationError:
        with pytest.raises(RepresentationError):
            fn(a, b, order)
        return
    assert fn(a, b, order) == want


@settings(max_examples=200, deadline=None)
@given(alpha=st.integers(1, 8), beta=st.integers(1, 8), order=st.integers(0, 60))
def test_jacobi_triple_product(alpha, beta, order):
    # f(-q^alpha, -q^beta) = (q^alpha; q^s)_inf (q^beta; q^s)_inf (q^s; q^s)_inf
    # with s = alpha + beta; the product side is built step by step, not
    # from the theta sum.
    s = alpha + beta
    rhs = QSeries.one(order)
    for c in (alpha, beta, s):
        rhs = mul_poch_inf(rhs, c, order, step=s)
    assert theta_general(mq(-1, alpha), mq(-1, beta), order) == rhs


class TestSpecializations:
    def test_theta_f_examples(self):
        assert theta_f(1, 20) == poch_inf(1, 20)
        got = theta_f(2, 14)
        assert [int(c) for c in got.coeffs] == [
            1, -1, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1,
        ]

    def test_theta_f_is_specialized_theta_general(self):
        for k in range(1, 5):
            assert theta_f(k, 30) == theta_general(mq(-1, 2 * k), mq(-1, 1), 30)

    def test_false_theta_examples(self):
        assert false_theta(1, 12) == QSeries.one(12)
        got = false_theta(2, 11)
        assert [int(c) for c in got.coeffs] == [1, -1, 0, 1, 0, 0, -1, 0, 0, 0, 1]

    def test_false_theta_is_specialized_psi(self):
        for k in range(1, 5):
            assert false_theta(k, 30) == psi_general(mq(1, 2 * k - 1), mq(1, 1), 30)

    # The nonzero coefficients of theta_f(k, 30) and false_theta(k, 30),
    # frozen from the hand-written direct sums that preceded the two-variable
    # engine.  Now that both functions are theta_general / psi_general, the
    # two tests above compare each with its own definition; these do not.
    FROZEN_30 = {
        ("theta_f", 1): {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1},
        ("theta_f", 2): {0: 1, 1: -1, 4: -1, 7: 1, 13: 1, 18: -1, 27: -1},
        ("theta_f", 3): {0: 1, 1: -1, 6: -1, 9: 1, 19: 1, 24: -1},
        ("theta_f", 4): {0: 1, 1: -1, 8: -1, 11: 1, 25: 1},
        ("false_theta", 1): {0: 1},
        ("false_theta", 2): {0: 1, 1: -1, 3: 1, 6: -1, 10: 1, 15: -1, 21: 1, 28: -1},
        ("false_theta", 3): {0: 1, 1: -1, 5: 1, 8: -1, 16: 1, 21: -1},
        ("false_theta", 4): {0: 1, 1: -1, 7: 1, 10: -1, 22: 1, 27: -1},
    }

    @pytest.mark.parametrize("name, k", sorted(FROZEN_30))
    def test_frozen_coefficients(self, name, k):
        got = {"theta_f": theta_f, "false_theta": false_theta}[name](k, 30)
        want = self.FROZEN_30[name, k]
        assert got.shift == 0
        assert got.coeffs == tuple(want.get(j, 0) for j in range(30))
        assert all(type(c) is int for c in got.coeffs)


class TestAndrewsGordon:
    def test_k1_empty_sum(self):
        assert ag_rhs(1, 30) == poch_inf(1, 30)

    def test_k_cap(self):
        assert ag_rhs(MAX_AG_K, 30) == theta_f(MAX_AG_K, 30)
        assert false_ag_rhs(MAX_AG_K, 30) == false_theta(MAX_AG_K, 30)
        # Refused before any multi-sum level is built, whatever the order.
        with mock.patch.object(
            qidentities, "nested_sum_series", side_effect=AssertionError
        ):
            for fn in (ag_rhs, false_ag_rhs):
                for k in (MAX_AG_K + 1, 10**9):
                    with pytest.raises(CapacityError, match=f"^k {k} exceeds limit {MAX_AG_K}$"):
                        fn(k, 10)
            with pytest.raises(CapacityError):
                chain_tail("even", MAX_AG_K + 1, 10)
            with pytest.raises(CapacityError):
                chain_tail("odd", MAX_AG_K, 10)

    def test_identities(self):
        for k in range(2, 6):
            assert theta_f(k, 50) == ag_rhs(k, 50)
            assert false_theta(k, 50) == false_ag_rhs(k, 50)

    def test_entry9_shape(self):
        # k = 2: (q;q)_inf sum q^(i^2+i)/(q;q)_i^2 directly
        order = 30
        inv = QSeries.one(order)
        total = QSeries.zero(order)
        i = 0
        while i * (i + 1) < order:
            if i:
                f = [0] * order
                f[0], f[i] = 1, -1
                inv = series_div(inv, QSeries(0, f))
            total = total + series_mul(inv, inv).with_order(order).q_shifted(
                i * (i + 1)
            )
            i += 1
        want = series_mul(poch_inf(1, order), total).with_order(order)
        assert false_ag_rhs(2, order) == want

    def test_nested_sum_depth0(self):
        assert nested_sum_series(0, 10, square_last=False) == QSeries.one(10)

    def test_prefix_stability(self):
        for k in (2, 3):
            assert ag_rhs(k, 25) == ag_rhs(k, 60).with_order(25)
            assert false_ag_rhs(k, 25) == false_ag_rhs(k, 60).with_order(25)
            assert theta_f(k, 25) == theta_f(k, 60).with_order(25)
            assert false_theta(k, 25) == false_theta(k, 60).with_order(25)

    def test_integrality(self):
        for k in range(1, 6):
            assert_integer_coefficients(theta_f(k, 40))
            assert_integer_coefficients(ag_rhs(k, 40))
            assert_integer_coefficients(false_theta(k, 40))
            if k >= 2:
                assert_integer_coefficients(false_ag_rhs(k, 40))


class TestLambda:
    def test_order_one(self):
        assert lambda_series(1) == QSeries.one(1)

    def test_order_six_independent_expansion(self):
        # (q;q)_inf^2 * (1 - q^2/(1-q)^3) through q^6, via raw dicts
        order = 7
        pp = {j: int(c) for j, c in enumerate(poch_inf(1, order).coeffs)}
        pp2 = dict_mul(pp, pp, order)
        inv1mq3 = {j: (j + 2) * (j + 1) // 2 for j in range(order)}  # 1/(1-q)^3
        term1 = {j + 2: -c for j, c in inv1mq3.items() if j + 2 < order}
        series = {0: 1}
        for e, c in term1.items():
            series[e] = series.get(e, 0) + c
        want = dict_mul(pp2, series, order)
        got = lambda_series(order)
        assert got == dict_series(want, order)

    def test_integrality(self):
        assert_integer_coefficients(lambda_series(40))

    def test_prefix_stability(self):
        assert lambda_series(15) == lambda_series(45).with_order(15)


class Test85Tail:
    def test_order_one(self):
        assert tail_85(1) == QSeries.one(1)

    def test_inner_symmetry(self):
        # the inner sum is invariant under i <-> k-i; spot-check via qbinom
        from skeintails.qcore import qbinom

        for k in range(6):
            for i in range(k + 1):
                assert qbinom(k, i) == qbinom(k, k - i)
                assert -2 * i * (k - i) == -2 * (k - i) * (k - (k - i))

    def test_order10_two_bounds(self):
        # The proved bound stops at k = 3 (order 10) and k = 6 (order 30); a
        # raw sum to k = 12 must not change a retained coefficient.
        for order in (10, 30):
            assert tail_85(order) == _raw_tail_85(order, 12)

    def test_order10_independent_expansion(self):
        # the k <= 3 terms alone, with raw dict arithmetic
        assert tail_85(10) == _raw_tail_85(10, 3)

    def test_leading_and_integrality(self):
        s = tail_85(30)
        assert s.shift == 0 and s.coeffs[0] == 1
        assert_integer_coefficients(s)


class TestRegistry:
    def test_named_series(self):
        assert named_series("theta_f", {"k": 2}, 14) == theta_f(2, 14)
        assert named_series("poch_inf", {"c": 2}, 10) == poch_inf(2, 10)
        g = named_series(
            "theta_general",
            {"a_sign": -1, "a_num": 2, "b_sign": -1, "b_num": 1},
            20,
        )
        assert g == poch_inf(1, 20)
        with pytest.raises(DomainError):
            named_series("nosuch", {}, 5)
        with pytest.raises(DomainError):
            named_series("theta_f", {}, 5)


class TestIntegerKernelEdges:
    ORDER_EDGE_CASES = {
        "nested_sum_series(0)": lambda n: nested_sum_series(0, n, square_last=False),
        "nested_sum_series(1)": lambda n: nested_sum_series(1, n, square_last=False),
        "nested_sum_series(2, squared)": lambda n: nested_sum_series(2, n, square_last=True),
        "lambda_series": lambda_series,
        "ag_rhs(1)": lambda n: ag_rhs(1, n),
        "ag_rhs(3)": lambda n: ag_rhs(3, n),
        "false_ag_rhs(2)": lambda n: false_ag_rhs(2, n),
        "tail_85": tail_85,
        "tail_product_1": lambda n: tail_product_1(theta_f(2, n), poch_inf(2, n), n),
        "tail_product_23": lambda n: tail_product_23(theta_f(2, n), QSeries.one(n), n),
        "g_m(2)": lambda n: graph_family_tail("g_m", {"m": 2}, n),
        "inadequate_chain(2)": lambda n: graph_family_tail("inadequate_chain", {"m": 2}, n),
        "tet2n": lambda n: graph_family_tail("tet2n", {}, n),
    }

    @pytest.mark.parametrize("name", sorted(ORDER_EDGE_CASES))
    def test_orders_zero_and_one(self, name):
        fn = self.ORDER_EDGE_CASES[name]
        empty, one = fn(0), fn(1)
        assert (empty.shift, empty.coeffs) == (0, ())
        assert (one.shift, one.coeffs) == (0, (1,))

    INT_CASES = {
        "poch_inf(1)": lambda: poch_inf(1, 60),
        "poch_inf(3)": lambda: poch_inf(3, 60),
        "ag_rhs(3)": lambda: ag_rhs(3, 60),
        "false_ag_rhs(3)": lambda: false_ag_rhs(3, 60),
        "lambda_series": lambda: lambda_series(40),
        "tail_85": lambda: tail_85(25),
        "tail_product_1": lambda: tail_product_1(lambda_series(40), theta_f(2, 40), 40),
        "tail_product_23": lambda: tail_product_23(lambda_series(40), theta_f(2, 40), 40),
        "g_m(2)": lambda: graph_family_tail("g_m", {"m": 2}, 40),
        "inadequate_chain(3)": lambda: graph_family_tail("inadequate_chain", {"m": 3}, 60),
        "tet2n": lambda: graph_family_tail("tet2n", {}, 40),
    }

    @pytest.mark.parametrize("name", sorted(INT_CASES))
    def test_coefficients_are_int(self, name):
        # A silent fallback to Fraction arithmetic must fail here.
        series = self.INT_CASES[name]()
        assert series.coeffs and all(type(c) is int for c in series.coeffs)
