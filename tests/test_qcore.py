"""Core arithmetic: Laurent polynomials, fractions, q-series, primitives."""

from fractions import Fraction
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintails import qcore
from skeintails.errors import (
    ConsistencyError,
    DivergentProductError,
    DomainError,
    PrecisionError,
    RepresentationError,
)
from skeintails.qcore import (
    KRONECKER_MIN_PAIRS,
    QSeries,
    VFraction,
    VLaurent,
    delta_n,
    div_one_minus_qk,
    fraction_to_q_series,
    fraction_to_x_series,
    kronecker_pack,
    kronecker_unpack,
    kronecker_width,
    mul_one_minus_qk,
    mul_poch_inf,
    poch_finite,
    poch_inf,
    poch_inf_step,
    qbinom,
    quantum_fact,
    quantum_int,
    series_div,
    series_mul,
    to_q_series,
    to_x_series,
    _kronecker_mul,
)


def q_dict_mul(a: dict, b: dict) -> dict:
    """Independent dict-convolution oracle used to freeze expected values."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class TestVLaurent:
    def test_zero_is_empty(self):
        assert VLaurent({0: 0, 3: 0}).terms == {}
        assert VLaurent.zero().is_zero()

    def test_arithmetic_exact(self):
        p = VLaurent({2: 1, -2: 1})
        q = VLaurent({2: 1, -2: -1})
        assert (p + q) == VLaurent({2: 2})
        assert (p * q) == VLaurent({4: 1, -4: -1})
        assert (p - p).is_zero()

    def test_pow_and_shift(self):
        p = VLaurent({0: 1, 4: -1})
        assert p**0 == VLaurent.one()
        assert p**3 == p * p * p
        assert p.shift(4) == VLaurent({4: 1, 8: -1})

    def test_div_exact_and_remainder(self):
        a = quantum_int(6) * quantum_int(5)
        assert a.div_exact(quantum_int(5)) == quantum_int(6)
        with pytest.raises(ConsistencyError):
            (quantum_int(5) + VLaurent.one()).div_exact(quantum_int(2))
        # Long division stays exact beyond float precision.
        big = VLaurent({4: 2**60 + 1, 0: 2**60 + 1})
        assert big.div_exact(VLaurent({4: 1, 0: 1})) == VLaurent({0: 2**60 + 1})
        # A non-monic divisor divides in Z when the quotient is integral...
        two_v_plus_two = VLaurent({1: 2, 0: 2})
        product = two_v_plus_two * VLaurent({1: 3, 0: -1})
        assert product.div_exact(two_v_plus_two) == VLaurent({1: 3, 0: -1})
        # ...and stops with an integral remainder when it is not.
        q, r = VLaurent({2: 3, 0: 1}).divmod_by(two_v_plus_two)
        assert q.is_zero() and r == VLaurent({2: 3, 0: 1})
        q, r = VLaurent({2: 4, 0: 1}).divmod_by(two_v_plus_two)
        assert q == VLaurent({1: 2, 0: -2}) and r == VLaurent({0: 5})
        assert q * two_v_plus_two + r == VLaurent({2: 4, 0: 1})
        with pytest.raises(ConsistencyError):
            VLaurent({2: 3, 0: 3}).div_exact(two_v_plus_two)

    def test_coefficients_are_integers(self):
        with pytest.raises(DomainError):
            VLaurent({0: Fraction(1, 3)})
        with pytest.raises(DomainError):  # not even an integral Fraction
            VLaurent({0: Fraction(4, 2)})
        with pytest.raises(DomainError):
            VLaurent({0: 1}).scale(Fraction(1, 2))
        p = VLaurent({2: 5})
        assert p.coeff(2) == 5 and type(p.coeff(2)) is int
        assert p.coeff(0) == 0 and type(p.coeff(0)) is int

    def test_json_round_trip(self):
        p = VLaurent({-3: 7, 5: -2})
        obj = p.to_json_obj()
        assert obj["terms"] == [[-3, 7, 1], [5, -2, 1]]


class TestVFraction:
    def test_cross_equality(self):
        a = VFraction(quantum_int(4), quantum_int(2))
        # [4]/[2] = q + 1/q as a polynomial identity
        assert a == VFraction.from_poly(VLaurent({4: 1, -4: 1}))

    def test_to_vlaurent_checks_exactness(self):
        good = VFraction(quantum_int(2) * quantum_int(3), quantum_int(3))
        assert good.to_vlaurent() == quantum_int(2)
        # Stored with the factor [3]; only the reduced form has den 1.
        assert not good.is_poly() and good.reduced().is_poly()
        with pytest.raises(ConsistencyError):
            VFraction(VLaurent.one(), quantum_int(2)).to_vlaurent()

    def test_field_ops(self):
        a = VFraction(VLaurent.one(), quantum_int(2))
        b = VFraction(quantum_int(3), quantum_int(2))
        assert a + b == VFraction(VLaurent.one() + quantum_int(3), quantum_int(2))
        assert (a / a) == VFraction.one()
        assert a * quantum_int(2) == VFraction.one()
        assert (a - a).is_zero()
        assert a**-1 == VFraction.from_poly(quantum_int(2))

    # A VLaurent on the left of a VFraction defers to the VFraction.
    def test_laurent_times_fraction(self):
        a = VFraction(VLaurent.one(), quantum_int(2))
        assert quantum_int(2) * a == VFraction.one()
        assert VLaurent.one() * VFraction.one() == VFraction.one()
        assert isinstance(VLaurent.one() * a, VFraction)

    def test_laurent_plus_fraction(self):
        a = VFraction(VLaurent.one(), quantum_int(2))
        got = quantum_int(3) + a
        assert isinstance(got, VFraction)
        want = quantum_int(3) * quantum_int(2) + VLaurent.one()
        assert got == VFraction(want, quantum_int(2))

    def test_laurent_minus_fraction(self):
        a = VFraction(VLaurent.one(), quantum_int(2))
        got = quantum_int(3) - a
        assert isinstance(got, VFraction)
        want = quantum_int(3) * quantum_int(2) - VLaurent.one()
        assert got == VFraction(want, quantum_int(2))
        assert (VLaurent.one() - VFraction.one()).is_zero()

    def test_equal_values_hash_equal(self):
        q = VLaurent({4: 1})
        one = VLaurent.one()
        a = VFraction(one + q, one - q * q)
        b = VFraction(one, one - q)
        assert a == b
        assert len({a, b}) == 1
        assert VLaurent({0: 3}) == 3 and hash(VLaurent({0: 3})) == hash(3)
        assert hash(VLaurent.zero()) == hash(0)
        assert hash(VFraction(quantum_int(4), quantum_int(2))) == hash(
            VLaurent({4: 1, -4: 1})
        )


_laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-3, 3), max_size=4
).map(VLaurent)
_nonzero_laurents = _laurents.filter(bool)


def _span(p: VLaurent) -> int:
    return p.max_exp() - p.min_exp()


@settings(max_examples=150, deadline=None)
@given(num=_laurents, den=_nonzero_laurents, factor=_nonzero_laurents)
def test_equal_fractions_hash_equal(num, den, factor):
    # No gcd runs when a value is built, so b keeps the common factor in
    # num and den; equality and hashing see through it.
    with mock.patch.object(qcore, "_poly_gcd", side_effect=AssertionError):
        a = VFraction(num, den)
        b = VFraction(num * factor, den * factor)
    if num:
        assert _span(b.den) == _span(den) + _span(factor)
    assert a == b
    assert hash(a) == hash(b)
    if a.is_poly():
        assert b == a.num and hash(b) == hash(a.num)


# Stored denominators as VFraction keeps them: valuation 0, a unit
# coefficient, a positive leading coefficient.
_stored_dens = st.dictionaries(st.integers(1, 7), st.integers(-3, 3), max_size=3).map(
    lambda d: VLaurent({0: 1, **d, 8: 1})
)


@settings(max_examples=200, deadline=None)
@given(
    a=_nonzero_laurents,
    b=_nonzero_laurents,
    den=_stored_dens,
    other=_nonzero_laurents,
    same=st.booleans(),
)
def test_equality_matches_cross_multiplication(a, b, den, other, same):
    """With equal stored denominators equality compares numerators; it
    agrees with cross-multiplication there, for different numerators too,
    and across other denominators, also for a over a multiple of den."""
    x = VFraction(a, den)
    y = VFraction(b, den if same else den * other)
    assert x.den == den and (y.den == den or not same)
    for u, w in ((x, y), (y, x), (x, VFraction(a * other, den * other))):
        assert (u == w) == (u.num * w.den == w.num * u.den)
    if same:
        assert (x == y) == (a == b)


def test_canonical_form_has_no_common_integer_content():
    two = VLaurent({0: 2})
    v = VLaurent({1: 1})
    half = VFraction(VLaurent.one(), two)
    assert (half.num, half.den) == (VLaurent.one(), two)
    assert not half.is_poly() and half + half == 1
    f = VFraction(VLaurent({3: 6, 1: 4}), VLaurent({2: -4, 1: -8}))
    # (6v^3 + 4v) / (-4v^2 - 8v) = -(3v^2 + 2) / (2v + 4)
    assert (f.num.terms, f.den.terms) == ({2: -3, 0: -2}, {1: 2, 0: 4})
    assert VFraction(v * two, two) == v and VFraction(v * two, two).is_poly()


_wide_laurents = st.dictionaries(
    st.integers(-30, 30), st.integers(-(10**6), 10**6), max_size=36
).map(VLaurent)


@settings(max_examples=100, deadline=None)
@given(a=_wide_laurents, b=_wide_laurents, c=_wide_laurents)
def test_laurent_ring_laws(a, b, c):
    # Up to 36 terms: the products run on both sides of the Kronecker cutoff.
    zero, one = VLaurent.zero(), VLaurent.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()
    assert a * zero == zero and a * 3 == a + a + a


_fractions = st.builds(VFraction, _laurents, _nonzero_laurents)


@settings(max_examples=100, deadline=None)
@given(a=_fractions, b=_fractions, c=_fractions)
def test_fraction_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero() and a * VFraction.one() == a
    if b:
        assert (a / b) * b == a


@settings(max_examples=150, deadline=None)
@given(
    num=_laurents,
    den=_nonzero_laurents,
    factor=_nonzero_laurents,
    shift=st.integers(-5, 5),
    unit=st.sampled_from([1, -1, 2, -6]),
)
def test_canonical_form_is_unique(num, den, factor, shift, unit):
    # Equal values reduce to the same (num, den): den has valuation 0, a
    # positive lead, and no integer content in common with num.
    a = VFraction(num, den).reduced()
    b = VFraction(
        (num * factor).shift(shift).scale(unit),
        (den * factor).shift(shift).scale(unit),
    ).reduced()
    assert (a.num.terms, a.den.terms) == (b.num.terms, b.den.terms)
    assert a.den.min_exp() == 0 and a.den.terms[a.den.max_exp()] > 0
    if a:
        assert gcd(*a.num.terms.values(), *a.den.terms.values()) == 1


def _gcd_at_stride_one(a: VLaurent, b: VLaurent) -> VLaurent:
    """Reference for _poly_gcd: the same primitive pseudo-remainder
    sequence on every coefficient, with no exponent stride."""
    x, y = (
        qcore._strip_valuation_and_content(
            [p.terms.get(e, 0) for e in range(p.min_exp(), p.max_exp() + 1)]
        )
        for p in (a, b)
    )
    if len(y) > len(x):
        x, y = y, x
    while y:
        if len(y) == 1:
            x = [1]
            break
        x, y = y, qcore._strip_valuation_and_content(qcore._pseudo_mod(x, y))
    sign = 1 if x[-1] > 0 else -1
    return VLaurent({e: sign * c for e, c in enumerate(x)})


def _in_v_power(p: VLaurent, g: int) -> VLaurent:
    return VLaurent({g * e: c for e, c in p.terms.items()})


@settings(max_examples=150, deadline=None)
@given(
    a=_nonzero_laurents,
    b=_nonzero_laurents,
    factor=_nonzero_laurents,
    strides=st.sampled_from([(1, 1), (2, 2), (4, 4), (3, 3), (2, 4), (2, 3)]),
    shifts=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_poly_gcd_at_exponent_stride(a, b, factor, strides, shifts):
    # Polynomials in v^g (for g the gcd of both strides) have their gcd in
    # v^g; the PRS at stride g must give what it gives on every coefficient.
    g = gcd(*strides)
    a, b = (
        (_in_v_power(p, s) * _in_v_power(factor, g)).shift(t)
        for p, s, t in zip((a, b), strides, shifts)
    )
    assert qcore._poly_gcd(a, b).terms == _gcd_at_stride_one(a, b).terms


class TestQuantumPrimitives:
    def test_quantum_int_examples(self):
        assert quantum_int(0).is_zero()
        assert quantum_int(2) == VLaurent({2: 1, -2: 1})
        assert quantum_int(3) == VLaurent({4: 1, 0: 1, -4: 1})

    def test_quantum_int_defining_identity(self):
        # [n] (q^(1/2) - q^(-1/2)) = q^(n/2) - q^(-n/2), for n <= 30
        step = VLaurent({2: 1, -2: -1})
        for n in range(31):
            want = VLaurent({2 * n: 1}) - VLaurent({-2 * n: 1})
            assert quantum_int(n) * step == want

    def test_delta_examples(self):
        assert delta_n(0) == VLaurent.one()
        assert delta_n(1) == VLaurent({2: -1, -2: -1})
        assert delta_n(2) == VLaurent({4: 1, 0: 1, -4: 1})
        for n in range(31):
            sign = -1 if n % 2 else 1
            assert delta_n(n) == quantum_int(n + 1).scale(sign)

    def test_quantum_fact(self):
        assert quantum_fact(0) == VLaurent.one()
        assert quantum_fact(2) == quantum_int(2)
        # independent term-by-term product for [3]!
        expect = q_dict_mul(dict(quantum_int(2).terms), dict(quantum_int(3).terms))
        assert quantum_fact(3) == VLaurent(expect)

    def test_poch_finite_examples(self):
        assert poch_finite(1, 1, 0) == VLaurent.one()
        assert poch_finite(1, 1, 2) == VLaurent.from_q_dict({0: 1, 1: -1, 2: -1, 3: 1})
        assert poch_finite(-1, 1, 1) == VLaurent.from_q_dict({0: 1, 1: 1})

    def test_poch_split_property(self):
        for m in range(13):
            for n in range(13 - m):
                lhs = poch_finite(1, 1, m + n)
                rhs = poch_finite(1, 1, m) * poch_finite(1, m + 1, n)
                assert lhs == rhs

    def test_factorization_identity(self):
        # [n]! (1-q)^n q^((n^2-n)/4) = (q;q)_n for n <= 15
        one_minus_q = VLaurent.from_q_dict({0: 1, 1: -1})
        for n in range(16):
            lhs = quantum_fact(n) * one_minus_q**n * VLaurent.monomial(1, n * n - n)
            assert lhs == poch_finite(1, 1, n)

    def test_qbinom(self):
        for n in range(6):
            assert qbinom(n, 0) == VLaurent.one()
        assert qbinom(2, 1) == VLaurent.from_q_dict({0: 1, 1: 1})
        # derived independently: (q;q)_4 / ((q;q)_2 (q;q)_2)
        assert qbinom(4, 2) == VLaurent.from_q_dict({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        with pytest.raises(DomainError):
            qbinom(3, 4)
        with pytest.raises(DomainError):
            qbinom(3, -1)

    def test_qbinom_symmetry_and_pascal(self):
        for n in range(1, 21):
            for i in range(n + 1):
                assert qbinom(n, i) == qbinom(n, n - i)
                if 1 <= i <= n:
                    pascal = qbinom(n - 1, i - 1) if i >= 1 else VLaurent.zero()
                    if i <= n - 1:
                        pascal = pascal + VLaurent.q_power(i) * qbinom(n - 1, i)
                    assert qbinom(n, i) == pascal

    def test_qbinom_nonneg_integers(self):
        for n in range(10):
            for i in range(n + 1):
                for c in qbinom(n, i).terms.values():
                    assert c == int(c) and c > 0


class TestPochInf:
    def test_small(self):
        s = poch_inf(1, 2)
        assert s.shift == 0 and list(s.coeffs) == [1, -1]

    def test_pentagonal_prefix(self):
        # independent oracle: multiply factors (1-q)...(1-q^7) with dicts
        prod = {0: 1}
        for j in range(1, 8):
            prod = q_dict_mul(prod, {0: 1, j: -1})
        want = [prod.get(e, 0) for e in range(7)]
        assert [int(c) for c in poch_inf(1, 7).coeffs] == want

    def test_step_two(self):
        s = poch_inf(2, 4)
        assert list(map(int, s.coeffs)) == [1, 0, -1, -1]

    def test_divergent(self):
        with pytest.raises(DivergentProductError):
            poch_inf(0, 5)
        with pytest.raises(DivergentProductError):
            poch_inf_step(1, 0, 5)

    def test_truncation_stability(self):
        a = poch_inf(1, 12)
        b = poch_inf(1, 40)
        assert a == b.with_order(12)


class TestQSeries:
    def test_format(self):
        # VLaurent and QSeries share one term formatter; "+ ..." follows the
        # max_terms-th term shown, whether or not another term follows.
        s = QSeries(-1, [-2, 0, 1, -3, 5])
        assert s.format() == "-2*q^-1 + q - 3*q^2 + 5*q^3"
        assert s.format(max_terms=2) == "-2*q^-1 + q + ..."
        assert s.format(max_terms=4) == "-2*q^-1 + q - 3*q^2 + 5*q^3 + ..."
        assert QSeries(0, [1, -1]).format() == "1 - q"
        assert QSeries.zero(3).format() == "0"
        assert VLaurent({0: 3, 1: -1, -4: 1}).format() == "-v + 3 + v^-4"
        assert VLaurent({2: -1, -2: -1}).format("A") == "-A^2 - A^-2"
        assert VLaurent.zero().format() == "0"

    def test_to_q_series_examples(self):
        s = to_q_series(VLaurent({4: 1, 8: 1}), 2)
        assert s.shift == 1 and list(map(int, s.coeffs)) == [1, 1]
        p = VLaurent({-4: 1, 0: 2, 4: 1})
        s = to_q_series(p, 3)
        assert s.shift == -1 and list(map(int, s.coeffs)) == [1, 2, 1]
        # The order is counted from the lowest term: the polynomial is cut
        # below it or zero-padded past its highest term.
        assert to_q_series(p, 2) == QSeries(-1, [1, 2])
        assert to_q_series(p, 5) == QSeries(-1, [1, 2, 1, 0, 0])
        assert to_q_series(p, 0) == QSeries(-1, [])
        not_q = r"v-exponent 2 is not a multiple of 4 \(q = v\^4\)"
        with pytest.raises(RepresentationError, match=not_q):
            to_q_series(VLaurent({2: 1, 4: 1}), 2)
        with pytest.raises(DomainError):
            to_q_series(VLaurent.zero(), 2)
        with pytest.raises(DomainError, match="order must be non-negative"):
            to_q_series(p, -1)

    def test_fractional_q_power_is_refused(self):
        # v^2 + v^6 = A^2 (1 + q): no series in q stores it.  Only normalize,
        # which drops the framing power of A, expands it.  The refusal names
        # the lowest offending exponent and the step.
        p = VLaurent({2: 1, 6: 1})
        with pytest.raises(RepresentationError, match=r"^v-exponent 2 .* \(q = v\^4\)$"):
            to_q_series(p, 2)
        # The denominator's normal form moves v^-4 into the numerator.
        f = VFraction(p, VLaurent({4: 1, 8: -1}))
        with pytest.raises(RepresentationError, match="v-exponent -2 is not a multiple of 4"):
            fraction_to_q_series(f, 4)
        with pytest.raises(RepresentationError, match=r"^v-exponent -3 .* 2 \(x = v\^2\)$"):
            to_x_series(VLaurent({5: 1, -3: 1, 2: 1}), 5)
        from skeintails.tails_engine import normalize

        assert normalize(p) == QSeries(0, [1, 1])
        assert normalize(p).format() == "1 + q"

    def test_series_mul_examples(self):
        a = QSeries(0, [1, -1, 0, 0])
        b = QSeries(0, [1, 1, 1, 1])
        assert list(map(int, series_mul(a, b).coeffs)) == [1, 0, 0, 0]
        one = QSeries.one(4)
        assert series_mul(a, one) == a

    def test_series_mul_poch_concatenation(self):
        a = to_q_series(poch_finite(1, 1, 2), 12)
        b = to_q_series(poch_finite(1, 3, 2), 12)
        c = to_q_series(poch_finite(1, 1, 4), 12)
        assert series_mul(a, b) == c

    def test_series_div(self):
        geo = series_div(QSeries.one(6), QSeries(0, [1, -1, 0, 0, 0, 0]))
        assert list(map(int, geo.coeffs)) == [1] * 6
        a = QSeries(2, [-1, 1, 4, 1])
        assert series_div(a, a) == QSeries.one(4)
        with pytest.raises(DomainError, match="division by zero series"):
            series_div(a, QSeries.zero(4))

    def test_every_series_has_an_order(self):
        # No series stands for a polynomial of unbounded order: the
        # constructors and the division take no "exact" mode and no order
        # of their own, and a series is never extended past its order.
        with pytest.raises(TypeError):
            QSeries(0, [1], exact=True)
        with pytest.raises(TypeError):
            QSeries.one()
        with pytest.raises(TypeError):
            series_div(QSeries.one(3), QSeries.one(3), order=3)
        assert not hasattr(QSeries.one(3), "exact")
        with pytest.raises(PrecisionError):
            QSeries.one(3).with_order(4)

    def test_series_div_round_trip(self):
        a = to_q_series(poch_finite(1, 1, 4), 10)
        b = to_q_series(poch_finite(1, 1, 2), 10)
        q = series_div(a, b)
        assert q == to_q_series(poch_finite(1, 3, 2), 10)
        assert series_mul(q, b) == a

    def test_mul_associative_commutative(self):
        a = QSeries(0, [1, 2, 3, 4, 5])
        b = QSeries(1, [1, -1, 1, -1, 1])
        c = QSeries(-2, [2, 0, 1, 0, 2])
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    def test_div_inverts_mul(self):
        a = QSeries(0, [1, 2, 3, 4, 5])
        b = QSeries(1, [-1, 2, 1, -1, 1])
        assert series_div(series_mul(a, b), b) == a

    def test_order_propagation_min(self):
        a = QSeries(0, [1, 1, 1])
        b = QSeries(0, [1, -1, 0, 0, 0, 7])
        assert series_mul(a, b).order == 3
        assert (a + b).order == 3

    def test_precision_error_on_extension(self):
        with pytest.raises(PrecisionError):
            QSeries(0, [1, 2]).with_order(5)

    def test_json_round_trip(self):
        s = QSeries(-2, [1, -3, 0, 5])
        obj = s.to_json_obj()
        assert obj["variable"] == "q" and obj["order"] == s.order
        assert obj["coefficients"] == [[1, 1], [-3, 1], [0, 1], [5, 1]]

    def test_coeff_is_stored_value_or_int_zero(self):
        s = QSeries(2, [3, -7, 0, 5])
        assert s.coeff(2) == 3 and type(s.coeff(2)) is int
        assert s.coeff(3) == -7
        for e in (0, 4):  # below the support, and a stored zero
            assert s.coeff(e) == 0 and type(s.coeff(e)) is int
        with pytest.raises(PrecisionError):
            s.coeff(6)
        # A polynomial has no coefficient past the order it was given.
        padded = to_q_series(VLaurent.one(), 10)
        assert padded.coeff(9) == 0 and type(padded.coeff(9)) is int
        with pytest.raises(PrecisionError):
            padded.coeff(10)


class TestIntegerKernel:
    @settings(max_examples=100, deadline=None)
    @given(
        cs=st.lists(st.integers(-9, 9), max_size=8),
        bad=st.one_of(
            st.fractions(-3, 3, max_denominator=4), st.floats(-3, 3), st.just(None)
        ),
        at=st.integers(0, 8),
    )
    def test_non_int_coefficients_are_rejected(self, cs, bad, at):
        # Integral values too: QSeries holds int only, as VLaurent does.
        cs.insert(min(at, len(cs)), bad)
        with pytest.raises(DomainError):
            QSeries(0, cs)
        s = QSeries(0, [c for c in cs if c is not bad])
        with pytest.raises(TypeError):
            s * Fraction(1, 2)
        assert all(type(c) is int for c in (s * 3).coeffs)

    def test_non_unit_division_is_rejected(self):
        one_minus_q = QSeries(0, [1, -1, 0, 0, 0])
        geo = series_div(QSeries.one(5), one_minus_q)
        assert all(type(c) is int for c in geo.coeffs)
        # Checked before the loop, so at order 0 too, and on the lowest
        # stored coefficient, whatever the shift.
        for a, b in (
            (QSeries.one(3), QSeries(0, [2])),
            (QSeries.one(3), QSeries(4, [-3, 1])),
            (QSeries.one(0), QSeries(4, [-3, 1])),
        ):
            with pytest.raises(DomainError, match="not \\+-1"):
                series_div(a, b)
        # The expansion of 1/2 keeps the refusal at order 0, where the
        # quotient would store no coefficient.
        for order in (3, 1, 0):
            with pytest.raises(DomainError, match="series divisor starts with 2"):
                fraction_to_q_series(VFraction(VLaurent.one(), VLaurent({0: 2})), order)

    def test_expansion_does_not_depend_on_the_stored_form(self):
        # (2 + q) / ((2 + q)(1 - q)) is 1/(1 - q), but its stored denominator
        # starts with -2; the expansion reduces it rather than refusing.
        two_plus_q = VLaurent.from_q_dict({0: 2, 1: 1})
        f = VFraction(two_plus_q, two_plus_q * VLaurent.from_q_dict({0: 1, 1: -1}))
        assert f.den.coeff(0) == -2
        assert fraction_to_q_series(f, 6) == QSeries(0, [1] * 6)
        assert fraction_to_x_series(f, 6) == QSeries(0, [1, 0, 1, 0, 1, 0])
        from skeintails.tails_engine import normalize

        for framed in (f, -f * VLaurent({-7: 1}), f * VLaurent({6: 1})):
            assert normalize(framed, 6) == QSeries(0, [1] * 6)

    def test_orders_zero_and_one(self):
        for c, step in ((1, 1), (3, 1), (2, 3)):
            empty = poch_inf_step(c, step, 0)
            assert (empty.shift, empty.coeffs) == (0, ())
            one = poch_inf_step(c, step, 1)
            assert (one.shift, one.coeffs) == (0, (1,))
        for c in (1, 3):
            assert poch_inf(c, 0).coeffs == ()
            assert poch_inf(c, 1).coeffs == (1,)
            # Order 0 knows no coefficient, so it cannot be extended.
            with pytest.raises(PrecisionError):
                poch_inf(c, 0).with_order(5)

    def test_division_step_needs_positive_k(self):
        with pytest.raises(DomainError):
            div_one_minus_qk([1, 2, 3], 0)

    def test_division_to_order_zero_is_empty(self):
        # Each of these used to raise IndexError (no SkeinError) in series_div.
        # A divisor that stores no coefficient is the only one not checked.
        one_minus_q = QSeries(0, [1, -1])
        for got in (
            series_div(QSeries.one(5), to_q_series(poch_finite(1, 1, 1), 0)),
            series_div(QSeries(0, []), one_minus_q),
            fraction_to_q_series(VFraction(VLaurent.one(), VLaurent({0: 1, 4: -1})), 0),
        ):
            assert (got.shift, got.coeffs) == (0, ())
        for a, b in ((QSeries(3, []), QSeries(1, [1, 1])), (QSeries(3, [2, 1]), QSeries(1, []))):
            got = series_div(a, b)
            assert (got.shift, got.coeffs) == (2, ())


_int_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=14)


def _one_minus_qk(k: int, order: int) -> QSeries:
    """(1 - q^k) to the given order."""
    return to_q_series(VLaurent.from_q_dict({0: 1, k: -1}), order)


@settings(max_examples=150, deadline=None)
@given(
    a=_int_lists,
    b0=st.sampled_from([1, -1, 2, -3]),
    b_tail=st.lists(st.integers(-5, 5), max_size=13),
    b_long=st.booleans(),
)
def test_div_inverts_mul_property(a, b0, b_tail, b_long):
    # series_div divides by b0 = +-1 and refuses 2 and -3.  A divisor known
    # past the order of a leaves the quotient at the order of a.
    b = QSeries(0, [b0] + b_tail + [0] * len(a))
    if not b_long:
        b = b.with_order(len(a))
    sa = QSeries(0, a)
    if b0 not in (1, -1):
        with pytest.raises(DomainError):
            series_div(series_mul(sa, b), b)
        return
    quotient = series_div(series_mul(sa, b), b)
    assert quotient == sa
    assert all(type(c) is int for c in quotient.coeffs)


@settings(max_examples=150, deadline=None)
@given(cs=_int_lists, k=st.integers(1, 16))
def test_mul_step_matches_dense_factor(cs, k):
    got = list(cs)
    mul_one_minus_qk(got, k)
    assert QSeries(0, got) == series_mul(QSeries(0, cs), _one_minus_qk(k, len(cs)))


@settings(max_examples=150, deadline=None)
@given(cs=_int_lists, k=st.integers(1, 16))
def test_mul_then_div_step_is_identity(cs, k):
    got = list(cs)
    mul_one_minus_qk(got, k)
    div_one_minus_qk(got, k)
    assert got == cs


@settings(max_examples=100, deadline=None)
@given(c=st.integers(1, 6), step=st.integers(1, 4), order=st.integers(0, 25))
def test_poch_inf_step_matches_dense_product(c, step, order):
    want = QSeries.one(order)
    for k in range(c, order, step):
        want = series_mul(want, _one_minus_qk(k, order))
    got = poch_inf_step(c, step, order)
    assert got == want and got.order == order


@settings(max_examples=150, deadline=None)
@given(
    cs=st.lists(st.integers(-9, 9), max_size=24),
    shift=st.integers(-6, 6),
    c=st.integers(1, 6),
    step=st.integers(1, 4),
    power=st.integers(-3, 3),
    order=st.integers(0, 24),
)
def test_mul_poch_inf_matches_dense_factors(cs, shift, c, step, power, order):
    # The reference multiplies or divides by each explicit factor (1 - q^k),
    # k = c, c + step, ... below the order, with the dense kernels.
    s = QSeries(shift, cs)
    want = s.with_order(min(order, s.order))
    for k in range(c, order, step):
        for _ in range(abs(power)):
            if power > 0:
                want = series_mul(want, _one_minus_qk(k, want.order))
            else:
                want = series_div(want, _one_minus_qk(k, want.order))
    got = mul_poch_inf(s, c, order, step=step, power=power)
    assert got == want
    assert got.order == min(order, len(s.coeffs))
    assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]


def test_mul_poch_inf_rejects_bad_arguments():
    with pytest.raises(DivergentProductError):
        mul_poch_inf(QSeries.one(5), 0, 5)
    with pytest.raises(DivergentProductError):
        mul_poch_inf(QSeries.one(5), 1, 5, step=0)
    with pytest.raises(DomainError):
        mul_poch_inf(QSeries.one(5), 1, -1)


# -- Kronecker-substitution products -----------------------------------------


def _dense(e0: int, step: int, coeffs: list) -> VLaurent:
    return VLaurent({e0 + step * i: c for i, c in enumerate(coeffs)})


@st.composite
def _int_laurent(draw, step: int) -> VLaurent:
    """Integer Laurent polynomial on e0 + step*i, coefficients up to 400 bits."""
    top = 2 ** draw(st.integers(1, 400)) - 1
    coeff = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    slots = draw(st.lists(st.integers(0, 70), min_size=1, max_size=45, unique=True))
    e0 = draw(st.integers(-90, 40))
    p = VLaurent({e0 + step * i: draw(coeff) for i in slots})
    return p if p.terms else VLaurent({e0: top})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), step=st.sampled_from([1, 2, 3, 4, 5, 7]))
def test_kronecker_product_matches_dict_loop(data, step):
    # Up to 45 terms per operand: products on both sides of both cutoffs
    # (KRONECKER_MIN_PAIRS and KRONECKER_MIN_TERMS).  The second operand may
    # use twice the step and an odd shift, so the exponent gcd runs over
    # both operands.
    a = data.draw(_int_laurent(step))
    b = data.draw(_int_laurent(data.draw(st.sampled_from([step, 2 * step]))))
    b = b.shift(data.draw(st.sampled_from([0, 1, -3])))
    want = q_dict_mul(a.terms, b.terms)
    assert (a * b).terms == want
    assert _kronecker_mul(a.terms, b.terms) == want


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 3),
    g=st.sampled_from([1, 2, 4]),
    e0=st.integers(-9, 9),
    data=st.data(),
)
def test_kronecker_pack_round_trip(width, g, e0, data):
    # Every digit in the open slot range, extremes drawn often: a top slot
    # of 1 above lower slots of -(2**(W-1) - 1) is the smallest packed
    # value with that top slot, and unpacking must still find it.
    top = 2 ** (8 * width - 1) - 1
    assert kronecker_width(top) == width and kronecker_width(top + 1) == width + 1
    coeff = st.one_of(st.sampled_from([top, -top, 1, -1]), st.integers(-top, top))
    slots = data.draw(st.dictionaries(st.integers(0, 12), coeff, max_size=13))
    terms = {e0 + g * k: c for k, c in slots.items() if c}
    packed = kronecker_pack(terms, e0, g, width) if terms else 0
    assert packed == sum(c << (8 * width * ((e - e0) // g)) for e, c in terms.items())
    assert kronecker_unpack(packed, e0, g, width) == terms
    assert kronecker_unpack(-packed, e0, g, width) == {e: -c for e, c in terms.items()}


class TestKronecker:
    @pytest.mark.parametrize(
        "k, j", [(2, 4), (6, 4), (198, 4), (4, 8), (2, 3), (5, 5), (197, 5)]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_bound_is_reached(self, k, j, sign):
        # All coefficients +-(2^k - 1) and 2^j - 1 terms in the shorter
        # operand: the middle coefficients (2^j - 1)(2^k - 1)^2 need 2k + j
        # bits plus a sign.  With 2k + j = 0 mod 8, one bit less would round
        # down to a byte too few; with 2k + j = 7 mod 8, the slot has no
        # spare bit for a smaller bias.
        m, top = 2**j - 1, 2**k - 1
        a = _dense(-7, 4, [top] * m)
        b = _dense(3, 4, [sign * top] * max(m, KRONECKER_MIN_PAIRS // m + 1))
        assert len(a.terms) * len(b.terms) >= KRONECKER_MIN_PAIRS
        prod = a * b
        assert prod.terms == q_dict_mul(a.terms, b.terms)
        assert prod.terms[-4 + 4 * (m - 1)] == sign * m * top * top

    @pytest.mark.parametrize("n", [8, 40, 300])
    @pytest.mark.parametrize("step", [1, 4, 7])
    def test_telescoping_products_cancel(self, n, step):
        # (c + c v^s + ... + c v^(s(n-1))) (v^s - 1) = c v^(sn) - c: every
        # middle slot cancels to zero and must not be stored.
        c = -(2**400) + 17
        geometric = _dense(-50, step, [c] * n)
        got = geometric * VLaurent({step: 1, 0: -1})
        assert got.terms == {-50 + step * n: c, -50: -c}

    def test_quantum_factorial_square_at_v_equals_one(self):
        # [k] at v = 1 is k, so the coefficients of ([40]!)^2 sum to (40!)^2.
        assert sum((quantum_fact(40) ** 2).terms.values()) == factorial(40) ** 2
