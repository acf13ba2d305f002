"""The dense Pochhammer-ratio kernel and the closed forms built on it.

``qcore.mul_poch_ratio`` (and ``poch_ratio``, its case p = 1) builds every
product of quantum integers and factors (1 - q^a) in the package.  It is
checked against a reference made of plain VLaurent products and
``div_exact``.  ``quantum_fact``, ``poch_finite``, ``qbinom`` and
``colored_jones_torus`` are checked against test-local copies of their
VLaurent product loops, term for term in what they store.  The closed
forms store one cancelled fraction (a ``PochTerm``'s ``exact()``, or
``poch_sum`` of several terms), smaller than the product loops' (num,
den): they are checked term for term in the gcd-reduced canonical form,
which is unique, so the check is still exact equality.  This reference is
independent of the kernel, so checks that use the kernel's forms on both
sides (``nn_i_sweep``) stay honest.  ``hook_coeff``
and ``tet_theta_ratio`` are compared in the same way with the values they
replace in the tail checks, ([n]!)^2 / [2n]! from ``quantum_fact`` and
``tet_2n / theta_2n``, both checked above against the product loops
(``tet_theta_ratio`` returns terms: their ``poch_sum`` is compared).  The
single-term closed forms read to an order (``PochTerm.series``, the value
divided by v^e as a q-series) are checked against the q-series expansion of
their exact values, at every order up to past their first factors,
``PochTerm`` equality against the equality of the exact values, and a sum
of terms read as a normalized q-series (``sum_fraction_products_x``)
against the normalized expansion of its exact sum.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeintails import qcore, tails_engine
from skeintails import skein_formulas as sf
from skeintails.errors import (
    ConsistencyError,
    DomainError,
    PrecisionError,
    RepresentationError,
)
from skeintails.qcore import (
    PochTerm,
    QSeries,
    VFraction,
    VLaurent,
    delta_n,
    fraction_to_q_series,
    mul_poch_ratio,
    poch_finite,
    poch_sum,
    poch_ratio,
    qbinom,
    quantum_fact,
    quantum_int,
    quantum_product,
)
from skeintails.tails_engine import normalize, sum_fraction_products_x
from skeintails.verifycases import MAX_N_MAX, run_check


def _one_minus_q(a: int) -> VLaurent:
    return VLaurent({0: 1, 4 * a: -1})


def _product(polys) -> VLaurent:
    out = VLaurent.one()
    for p in polys:
        out = out * p
    return out


def _reference_ratio(ups, downs) -> VLaurent:
    num = _product(_one_minus_q(a) for a in ups)
    return num.div_exact(_product(_one_minus_q(b) for b in downs))


# -- test-local copies of the VLaurent product loops --------------------------


def _ref_quantum_fact(n):
    return _product(quantum_int(i) for i in range(1, n + 1))


def _ref_poch_finite(sign, c, n):
    return _product(VLaurent({0: 1, 4 * (c + j): -sign}) for j in range(n))


def _ref_qbinom(n, i):
    den = _ref_poch_finite(1, 1, i) * _ref_poch_finite(1, 1, n - i)
    return _ref_poch_finite(1, 1, n).div_exact(den)


def _ref_bubble_coeff(m, n, k, l, i):
    sign = -1 if (i + l) % 2 else 1
    out = VFraction.from_poly(VLaurent.monomial(sign, 2 * i * (i - l)))
    num = _product(quantum_int(k - j) for j in range(l - i))
    for s in range(i):
        num = num * quantum_int(n - s) * quantum_int(m - s)
    den = VLaurent.one()
    for t in range(l):
        den = den * quantum_int(n + k - t) * quantum_int(m + k - t)
    out = out * VFraction(num, den)
    out = out * VFraction.from_poly(_ref_qbinom(l, i))
    tail = _product(quantum_int(m + n + k - i - j + 1) for j in range(l - i))
    return out * VFraction.from_poly(tail)


def _ref_theta_2n(n):
    if n == 0:
        return VFraction.one()
    return _ref_bubble_coeff(n, n, n, n, 0) * VFraction.from_poly(delta_n(2 * n))


def _ref_tet_2n(n):
    qf = _ref_quantum_fact
    acc = VFraction.zero()
    for i in range(3 * n, 4 * n + 1):
        num = qf(i + 1)
        if i % 2:
            num = -num
        acc = acc + VFraction(num, qf(4 * n - i) ** 3 * qf(i - 3 * n) ** 4)
    return VFraction(qf(n) ** 12, qf(2 * n) ** 6) * acc


def _ref_p_coeff(n, i):
    ratio = VFraction(delta_n(2 * n), delta_n(n + i))
    return _ref_bubble_coeff(n, n, n, n, i) * ratio


def _ref_hook_coeff(n):
    return VFraction(quantum_fact(n) ** 2, quantum_fact(2 * n))


def _ref_tet_theta_ratio(n):
    return sf.tet_2n(n) / sf.theta_2n(n).exact()


def _tet_theta_value(n):
    return poch_sum(sf.tet_theta_ratio(n))


def _ref_nn_i_coeff(n, i, j):
    sign = -1 if (j + n) % 2 else 1
    out = VFraction.from_poly(VLaurent.monomial(sign, 4 * j * j + 2 * j - 2 * n))
    pq = lambda t: _ref_poch_finite(1, 1, t)
    num = pq(i) ** 2 * pq(n) ** 4 * pq(2 * n + i - j + 1)
    den = pq(i - j) * pq(j) ** 2 * pq(2 * n) * pq(n + i) * pq(n + i + 1) * pq(n - j) ** 2
    return out * VFraction(num, den)


def _ref_colored_jones_torus(f, n):
    acc = VLaurent.zero()
    for i in range(n + 1):
        sign = -1 if (f * (n - i)) % 2 else 1
        mono = VLaurent.monomial(sign, f * (2 * i + 2 * i * i - 2 * n - n * n))
        acc = acc + mono * delta_n(2 * i)
    return acc.div_exact(delta_n(n))


def _stored(x):
    if isinstance(x, VFraction):
        return x.num.terms, x.den.terms
    return x.terms


def _exact(x):
    return x.exact() if isinstance(x, PochTerm) else x


def _canonical(x):
    x = _exact(x)
    if isinstance(x, VFraction):
        return _stored(x.reduced())
    return _stored(x)


_CLOSED_FORMS = (
    sf.bubble_coeff,
    sf.theta_2n,
    sf.tet_2n,
    sf.p_coeff,
    sf.nn_i_coeff,
    sf.hook_coeff,
    _tet_theta_value,
)


def _grid():
    for n in range(30):
        yield quantum_fact, _ref_quantum_fact, (n,)
    for sign in (1, -1):
        for c in range(1, 8):
            for n in range(12):
                yield poch_finite, _ref_poch_finite, (sign, c, n)
    for n in range(16):
        for i in range(n + 1):
            yield qbinom, _ref_qbinom, (n, i)
    for f in range(1, 13):
        for n in range(16):
            yield sf.colored_jones_torus, _ref_colored_jones_torus, (f, n)
    for m in range(5):
        for n in range(5):
            for k in range(1, 5):
                for l in range(1, k + 1):
                    for i in range(min(m, n, l) + 1):
                        yield sf.bubble_coeff, _ref_bubble_coeff, (m, n, k, l, i)
    for n in range(9):
        yield sf.theta_2n, _ref_theta_2n, (n,)
    for n in range(5):
        yield sf.tet_2n, _ref_tet_2n, (n,)
    for n in range(1, 7):
        for i in range(n + 1):
            yield sf.p_coeff, _ref_p_coeff, (n, i)
            for j in range(i + 1):
                yield sf.nn_i_coeff, _ref_nn_i_coeff, (n, i, j)
    for n in range(21):
        yield sf.hook_coeff, _ref_hook_coeff, (n,)
    for n in range(9):
        yield _tet_theta_value, _ref_tet_theta_ratio, (n,)


def test_stored_forms_match_the_product_loops():
    count = 0
    for fn, ref, args in _grid():
        key = _canonical if fn in _CLOSED_FORMS else _stored
        assert key(fn(*args)) == key(ref(*args)), (fn.__name__, args)
        count += 1
    assert count == 1157


# -- evaluation to an order ------------------------------------------------------

_ORDERED_FORMS = (
    sf.bubble_coeff,
    sf.theta_2n,
    sf.p_coeff,
    sf.nn_i_coeff,
    sf.hook_coeff,
)


def test_order_gives_the_exact_series_prefix():
    """f(*args).series(k) is the q-series of the exact value divided by
    v^e to order k, term for term, at every order up to past the value's
    first few factors."""
    count = 0
    for fn, _, args in _grid():
        if fn not in _ORDERED_FORMS:
            continue
        term = fn(*args)
        exact = term.exact()
        unshifted = VFraction(exact.num.shift(-term.e), exact.den)
        for k in range(2 * max(args) + 7):
            got = term.series(k)
            assert got == fraction_to_q_series(unshifted, k), (fn.__name__, args, k)
        count += 1
    assert count == 617


def test_order_below_zero_raises():
    for fn, args in (
        (sf.bubble_coeff, (2, 2, 2, 1, 1)),
        (sf.theta_2n, (0,)),
        (sf.theta_2n, (2,)),
        (sf.p_coeff, (2, 1)),
        (sf.nn_i_coeff, (2, 1, 0)),
        (sf.hook_coeff, (2,)),
    ):
        with pytest.raises(DomainError):
            fn(*args).series(-1)
    with pytest.raises(DomainError):
        PochTerm(1, 0, [2], [1]).series(-1)
    with pytest.raises(DomainError):
        PochTerm(1, 0, [0], [])


def test_series_drops_the_power_of_v():
    # (1 - q^2) / (1 - q) = 1 + q, whatever the power of v before it.
    for e in (-5, 0, 2, 3):
        assert PochTerm(2, e, [2], [1]).series(4) == QSeries(0, [2, 2, 0, 0])


_factors = st.lists(st.integers(1, 6), max_size=4)


@st.composite
def _term_lists(draw):
    """One to four terms on one v-residue mod 4, each maybe followed by a
    term with the same lowest term negated, so that the sum's lowest terms
    cancel."""
    r = draw(st.sampled_from((0, 2)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.integers(-3, 3).filter(bool))
        e = r + 4 * draw(st.integers(-3, 3))
        terms.append(PochTerm(c, e, draw(_factors), draw(_factors)))
        if draw(st.booleans()):
            terms.append(PochTerm(-c, e, draw(_factors), draw(_factors)))
    return terms


@settings(max_examples=300, deadline=None)
@given(_term_lists(), st.integers(0, 8))
def test_term_factors_sum_like_their_exact_values(terms, q_order):
    """``sum_fraction_products_x`` reads a nonzero sum of terms as the
    normalized expansion of its exact sum, to exactly q_order coefficients
    past its first nonzero one, however far its lowest terms cancel; a sum
    that is exactly zero raises PrecisionError."""
    exact = poch_sum(terms)
    if exact.is_zero():
        with pytest.raises(PrecisionError):
            sum_fraction_products_x(terms, q_order)
        return
    s = sum_fraction_products_x(terms, q_order)
    assert s.order == q_order
    assert s == normalize(exact, q_order)


def test_window_that_cancels_reads_the_exact_prefix():
    # 1 - 1 / (1 - q^5) = -q^5 - q^10 - ...: zero on the first window of
    # q_order + 2 coefficients for q_order <= 3, read past it all the same.
    terms = [PochTerm(1, 0), PochTerm(-1, 0, [], [5])]
    assert sum_fraction_products_x(terms, 0) == QSeries(0, [])
    assert sum_fraction_products_x(terms, 3) == QSeries(0, [1, 0, 0])
    assert sum_fraction_products_x(terms, 4) == QSeries(0, [1, 0, 0, 0])
    assert sum_fraction_products_x(terms, 7) == QSeries(0, [1, 0, 0, 0, 0, 1, 0])


def test_sum_that_cancels_forty_steps_reads_exactly():
    # 1 / (1 - q^40) - 1 = q^40 + q^80 + ...: the window doubles from 5 to 80.
    terms = [PochTerm(1, 0, [], [40]), PochTerm(-1, 0)]
    assert sum_fraction_products_x(terms, 3) == QSeries(0, [1, 0, 0])
    assert sum_fraction_products_x(terms, 41) == QSeries(0, [1] + [0] * 39 + [1])


def test_zero_and_empty_sums_raise():
    # 1 / (1 - q) - q / (1 - q) - 1 is zero: every window cancels, up to
    # MAX_SERIES_ORDER.  An empty sum is zero too.
    zero = [PochTerm(1, 0, [], [1]), PochTerm(-1, 4, [], [1]), PochTerm(-1, 0)]
    for q_order in (0, 3):
        with pytest.raises(PrecisionError):
            sum_fraction_products_x(zero, q_order)
        with pytest.raises(DomainError):
            sum_fraction_products_x([], q_order)


def test_terms_on_two_v_residues_raise():
    # Their sum is no power of v times a series in q.
    for es in ((0, 2), (0, 4, 6), (1, 3), (-1, 0)):
        terms = [PochTerm(1, e, [1]) for e in es]
        with pytest.raises(RepresentationError):
            sum_fraction_products_x(terms, 6)
    assert sum_fraction_products_x([PochTerm(1, 1), PochTerm(1, 5)], 3) == QSeries(
        0, [1, 1, 0]
    )


_TAIL_CHECKS = {
    "tail_lemma_fact": ("hook_coeff", "([n]!)^2/[2n]! tail fails"),
    "tail_lemma_bubble0": ("bubble_coeff", "bubble coefficient tail fails"),
    "theta_tail": ("theta_2n", "theta_2n tail fails"),
    "tail_lemma_psum": ("p_coeff", "sum of P(n,i) tail fails"),
    "tail_lemma_psum_nn0": ("p_coeff", "sum of P(n,i) ceil[n i; n n]_0 tail fails"),
    "lambda_theorem": ("tet_theta_ratio", "tet/theta ratio differs from Lambda"),
}


@pytest.mark.parametrize("check", list(_TAIL_CHECKS))
def test_tail_checks_name_the_first_failing_n(monkeypatch, check):
    """A closed form made wrong at n = 3 alone, by a factor (1 - q) that
    moves its normalized q^1 coefficient, fails its tail check at n = 3."""
    name, detail = _TAIL_CHECKS[check]
    real = getattr(sf, name)
    one_minus_q = PochTerm(1, 0, [1])

    def wrong(n, *rest):
        value = real(n, *rest)
        if n != 3:
            return value
        if isinstance(value, list):
            return [t * one_minus_q for t in value]
        return value * one_minus_q

    monkeypatch.setattr(sf, name, wrong)
    assert run_check(check, {"n_max": 5}) == (False, f"{detail} at n=3")


@pytest.mark.parametrize("check", [*_TAIL_CHECKS, "torus_stabilization"])
def test_tail_checks_build_no_exact_fraction(monkeypatch, check):
    """The tail checks of the closed forms read them only to the order
    they compare: no exact closed form is built (the kernel
    ``mul_poch_ratio``, where ``PochTerm.exact``, ``poch_sum`` and the
    exact torus sum call it), no series is divided, and no target
    (q^c; q)_n is built whole (``poch_finite``)."""

    def refuse(*args):
        raise AssertionError("an exact closed form was expanded")

    monkeypatch.setattr(qcore, "mul_poch_ratio", refuse)
    monkeypatch.setattr(sf, "mul_poch_ratio", refuse)
    monkeypatch.setattr(qcore, "series_div", refuse)
    monkeypatch.setattr(qcore, "poch_finite", refuse)
    ok, detail = run_check(check, {"n_max": 6})
    assert ok, detail


@pytest.mark.parametrize("check", list(_TAIL_CHECKS))
def test_tail_checks_read_each_sum_in_one_pass(monkeypatch, check):
    """At its n_max cap, each tail check reads every sum in one pass: for
    each n, ``PochTerm.series`` is called once per term in the reader's
    first window of n + 3 coefficients, and the window never doubles."""
    real_series = PochTerm.series
    real_read = tails_engine.sum_fraction_products_x
    read: list[PochTerm] = []

    def series(self, order):
        read.append(self)
        return real_series(self, order)

    def one_pass(terms, q_order):
        read.clear()
        s = real_read(terms, q_order)
        lo = min(t.e for t in terms)
        window = [t for t in terms if (t.e - lo) // 4 < q_order + 2]
        assert sorted(map(id, read)) == sorted(map(id, window))
        sizes.append(q_order)
        return s

    sizes: list[int] = []
    monkeypatch.setattr(PochTerm, "series", series)
    monkeypatch.setattr(tails_engine, "sum_fraction_products_x", one_pass)
    n_max = MAX_N_MAX[check]
    ok, detail = run_check(check, {"n_max": n_max})
    assert ok, detail
    assert sizes == list(range(2, n_max + 2))


def _den_degree(x: VFraction) -> int:
    return max(x.den.terms) - min(x.den.terms)


def test_cancelled_denominators_are_smaller():
    """The cancelled fractions of nn_i_coeff and tet_2n store, summed over
    the grid, a denominator of lower degree than the product loops."""
    for fn in (sf.nn_i_coeff, sf.tet_2n):
        cases = [(args, ref) for f, ref, args in _grid() if f is fn]
        ours = sum(_den_degree(_exact(fn(*args))) for args, _ in cases)
        theirs = sum(_den_degree(ref(*args)) for args, ref in cases)
        assert ours < theirs, (fn.__name__, ours, theirs)


# -- the kernel itself ---------------------------------------------------------

_FACTORS = st.lists(st.integers(1, 12), max_size=8)


@st.composite
def _ratios(draw):
    """Factor multisets whose ratio is a polynomial when ``extra`` is empty:
    each down divides a distinct up, as (1 - q^d) divides (1 - q^a) for d | a."""
    ups = draw(_FACTORS)
    downs = []
    for a in ups:
        divisors = [d for d in range(1, a + 1) if a % d == 0]
        d = draw(st.sampled_from([None, *divisors]))
        if d is not None:
            downs.append(d)
    extra = draw(st.lists(st.integers(1, 12), max_size=2))
    return ups, draw(st.permutations(downs + extra))


@settings(max_examples=200, deadline=None)
@given(_ratios())
def test_poch_ratio_matches_reference(ratio):
    ups, downs = ratio
    try:
        want = _reference_ratio(ups, downs)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            poch_ratio(ups, downs)
        return
    assert poch_ratio(ups, downs).terms == want.terms


_LAURENT = st.dictionaries(
    st.integers(-40, 40), st.integers(-9, 9).filter(bool), max_size=6
).map(VLaurent)


@settings(max_examples=200, deadline=None)
@given(_LAURENT, _ratios())
def test_mul_poch_ratio_matches_reference(p, ratio):
    """p mixes v-exponent residues mod 4 and negative exponents, or is zero;
    ``_ratios`` may add downs that leave a remainder."""
    ups, downs = ratio
    num = p * _product(_one_minus_q(a) for a in ups)
    try:
        want = num.div_exact(_product(_one_minus_q(b) for b in downs))
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            mul_poch_ratio(p, ups, downs)
        return
    assert mul_poch_ratio(p, ups, downs).terms == want.terms


def test_mul_poch_ratio_divides_each_residue_class():
    # v + v^2 (1 - q^2) is divisible by (1 - q) only in its v^2 class.
    p = VLaurent({1: 1, 2: 1, 10: -1})
    with pytest.raises(ConsistencyError):
        mul_poch_ratio(p, [], [1])
    assert mul_poch_ratio(p, [1], [1]) == p
    q = VLaurent({-3: 1, 1: -1, 2: 1, 10: -1})  # v^-3 (1 - q) + v^2 (1 - q^2)
    assert mul_poch_ratio(q, [], [1]) == VLaurent({-3: 1, 2: 1, 6: 1})
    assert mul_poch_ratio(VLaurent(), [2], [3]).is_zero()


@settings(max_examples=100, deadline=None)
@given(_FACTORS)
def test_quantum_product_matches_reference(args):
    assert quantum_product(args).terms == _product(map(quantum_int, args)).terms


def test_inexact_ratio_raises():
    with pytest.raises(ConsistencyError):
        poch_ratio([2], [3])
    with pytest.raises(ConsistencyError):
        poch_ratio([], [1])
    with pytest.raises(ConsistencyError):
        poch_ratio([2, 3], [5])


def _counter_cancelled(ups, downs):
    """Reference: the two factor multisets less their common part."""
    ups, downs = Counter(ups), Counter(downs)
    common = ups & downs
    return sorted((ups - common).elements()), sorted((downs - common).elements())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-2, 12), max_size=12),
    st.lists(st.integers(-2, 12), max_size=12),
)
def test_cancelled_matches_counter_reference(ups, downs):
    """The one canceller, ``qcore._net``, keeps the factors left above as
    positive counts and those left below as negative ones, with no zero
    count.  Any exponent below 1 raises DomainError, also one that
    cancels."""
    if min(ups + downs, default=1) < 1:
        with pytest.raises(DomainError):
            qcore._net(ups, downs)
        return
    net = qcore._net(ups, downs)
    assert 0 not in net.values()
    left_up = [a for a in sorted(net) for _ in range(net[a])]
    left_down = [b for b in sorted(net) for _ in range(-net[b])]
    assert (left_up, left_down) == _counter_cancelled(ups, downs)


def test_cancelled_factor_below_one_still_raises():
    for ups, downs in (([0, 3], [0]), ([2, -1], [-1, 2]), ([-3], [-3, 1])):
        # the factor below 1 is on both sides, so it cancels
        left_up, left_down = _counter_cancelled(ups, downs)
        assert min(left_up + left_down, default=1) >= 1
        with pytest.raises(DomainError):
            qcore._net(ups, downs)
        with pytest.raises(DomainError):
            PochTerm(1, 0, ups, downs).series(6)


def test_factor_below_one_past_the_order_still_raises():
    # At order 0 every factor is past the order and none is applied, yet a
    # factor (1 - q^a) with a < 1 is still refused, as at any other order:
    # the term refuses it when it is built.
    for ups, downs in (([0], []), ([], [0]), ([7, 0], [7]), ([-1], [-1])):
        with pytest.raises(DomainError):
            PochTerm(1, 0, ups, downs).series(0)
    # Factors past the order are 1 there and drop out, cancelled or not.
    assert PochTerm(3, 2, [9], [9, 10]).series(4) == QSeries(0, [3, 0, 0, 0])


def test_factor_below_one_raises():
    for ups, downs in (([0], []), ([], [0]), ([0], [0]), ([3, -1], [1])):
        with pytest.raises(DomainError):
            poch_ratio(ups, downs)
    with pytest.raises(DomainError):
        quantum_product([2, 0])


def test_poch_finite_refuses_c_below_one():
    for sign in (1, -1):
        for c in (0, -2):
            for n in range(4):
                with pytest.raises(DomainError):
                    poch_finite(sign, c, n)


# -- PochTerm as a value ----------------------------------------------------------

_COEFFS = st.integers(-3, 3).filter(bool)
_SMALL_FACTORS = st.lists(st.integers(1, 8), max_size=5)
_TERMS = st.builds(
    PochTerm, _COEFFS, st.integers(-6, 6), _SMALL_FACTORS, _SMALL_FACTORS
)


@st.composite
def _term_pairs(draw):
    """Two terms that are equal by construction from different factor
    lists, or differ only in sign or in v-exponent, or are drawn apart."""
    c, e = draw(_COEFFS), draw(st.integers(-6, 6))
    ups, downs = draw(_SMALL_FACTORS), draw(_SMALL_FACTORS)
    a = PochTerm(c, e, ups, downs)
    kind = draw(st.sampled_from(["padded", "sign", "shift", "drawn"]))
    if kind == "padded":
        # the same value, with factors on both sides and in another order
        extra = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        up = draw(st.permutations(ups + extra))
        b = PochTerm(c, e, up, draw(st.permutations(extra + downs)))
    elif kind == "sign":
        b = PochTerm(-c, e, ups, downs)
    elif kind == "shift":
        b = PochTerm(c, e + draw(st.sampled_from([-4, -2, 2, 4])), ups, downs)
    else:
        b = draw(_TERMS)
    return a, b


@settings(max_examples=300, deadline=None)
@given(_term_pairs())
def test_term_equality_is_value_equality(pair):
    a, b = pair
    assert (a == b) == (a.exact() == b.exact())
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(_TERMS, _TERMS)
def test_term_products_match_their_fractions(a, b):
    assert (a * b).exact() == a.exact() * b.exact()
    if a.c % b.c:
        with pytest.raises(DomainError):
            a / b
    else:
        assert (a / b).exact() == a.exact() / b.exact()


def test_zero_term_is_refused():
    # Zero has no canonical form c v^e prod (1 - q^a)^k, so it is refused.
    for c in (0, 2.0):
        with pytest.raises(DomainError):
            PochTerm(c, 0, [1], [])
