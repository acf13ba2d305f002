"""Closed-form skein evaluations.

This module houses the exact formulas that the brute-force oracle
cross-checks: the bubble-expansion coefficients

    ceil[m n; k l]_i = (-1)^(i+l) q^(i(i-l)/2)
        * prod_{j<l-i} [k-j] * prod_{s<i} [n-s][m-s]
          / prod_{t<l} [n+k-t][m+k-t]
        * qbinom(l, i) * prod_{j<l-i} [m+n+k-i-j+1],

the theta and all-equal tetrahedron evaluations and their ratio, the
P(n,i) chain coefficients, the hook coefficient ([n]!)^2/[2n]! of f(2n),
the normalized colored Jones polynomial of (2, f) torus links, and the
multi-sum tails of the bubble chains.

Each closed form is a signed power of v times a ratio of products of
quantum integers [a] and Pochhammer factors (1 - q^a), through
[a] = v^(-2(a-1)) (1 - q^a) / (1 - q).  Each lists its factors once, with
repeated factors as often as they occur, and ``_poch_fraction`` makes them
one cancelled fraction: factors on both sides of the fraction line cancel,
a factor (1 - q^b) below that divides a distinct (1 - q^a) above is divided
out by the dense kernel ``qcore.mul_poch_ratio``, and the rest of the
factors below are the stored denominator.  So no closed form runs a chain
of VLaurent products or powers, and every stored denominator is a product
of factors (1 - q^b), with constant term +-1.  The stored (num, den) are
smaller than the plain product of the factors on each side; the value, and
its gcd-reduced form, are the same.  The (2, f) torus sum is signed
monomials over (1 - q^(n+1)), divided exactly in one kernel call.

A value that a check would otherwise derive from other closed forms is one
such fraction of its own: ``hook_coeff`` is ([n]!)^2/[2n]! with (q;q)_n
cancelled, not a square of [n]! over [2n]!, and ``tet_theta_ratio`` is
Tet(2n)/Theta(2n, 2n, 2n) with theta's factors moved across the fraction
line, not a quotient of two VFractions.

The single-term closed forms (``bubble_coeff``, ``theta_2n``, ``p_coeff``,
``hook_coeff``, ``nn_i_coeff``) also evaluate to an order: given
``order=k`` they return the first k coefficients of the value as a series
in x = q**(1/2), equal term for term to ``fraction_to_x_series`` of the
exact value, from the same factor lists through
``qcore.poch_ratio_series``.  A factor (1 - q^a) = (1 - x^(2a)) with 2a at
or past the order is 1 there and is never applied, so a tail check that
compares n + 1 coefficients does O(n) work per factor instead of building
a polynomial of q-degree O(n^2).  The Pochhammer-quotient forms with
several terms (``tet_2n``, ``tet_theta_ratio``) stay exact only: their
lowest terms can cancel, so a fixed order would not bound the precision of
the sum.  ``colored_jones_torus`` also takes ``order=``: its sum is
2(n + 1) monomials, added exactly before anything is truncated, so one pass
of division by (1 - q^(n+1)) over its lowest coefficients gives the
normalized value to that order.

Values here are exact rational functions of v (VFraction); genuinely
polynomial results (like the normalized colored Jones) are reduced to
VLaurent with a remainder assertion, never by rounding.
"""

from __future__ import annotations

from .errors import ConsistencyError, DomainError
from .qcore import (
    QSeries,
    VFraction,
    VLaurent,
    div_one_minus_qk,
    mul_poch_ratio,
    poch_ratio,
    poch_ratio_series,
)
from .qidentities import ag_rhs, false_ag_rhs


def _upto(t: int, times: int = 1) -> list[int]:
    """1, ..., t, each ``times`` times: the factors of ([t]!)^times, or of
    (q;q)_t^times."""
    return [*range(1, t + 1)] * times


def _counts(exps: list[int]) -> dict[int, int]:
    """Exponent -> how often it occurs."""
    out: dict[int, int] = {}
    for a in exps:
        out[a] = out.get(a, 0) + 1
    return out


def _elements(counts: dict[int, int]) -> list[int]:
    """The exponents of an exponent -> count dict, ascending, each as often
    as it counts."""
    return [a for a in sorted(counts) for _ in range(counts[a])]


def _poch_fraction(
    terms: list[tuple[int, int, list[int]]],
    downs: list[int],
    order: int | None = None,
) -> VFraction | QSeries:
    """sum_{(c, e, ups) in terms} c v^e prod_{a in ups} (1 - q^a), divided by
    prod_{b in downs} (1 - q^b), as one polynomial over a product of factors
    (1 - q^b).

    A factor in every term's ups and in downs cancels.  A remaining down b
    that divides a distinct remaining up a in every term, as (1 - q^b)
    divides (1 - q^a), is divided out in each term's kernel call; the other
    downs are the stored denominator, so its constant term is +-1 and
    expanding the value as a series needs no gcd.

    With an order, the one term is the x-series of ``poch_ratio_series`` to
    that order instead (see the module docstring).
    """
    if order is not None:
        [(c, e, ups)] = terms
        return poch_ratio_series(c, e, ups, downs, order)
    down = _counts(downs)
    ups = [_counts(u) for _, _, u in terms]
    for b, k in down.items():
        common = min(k, *(u.get(b, 0) for u in ups))
        if common:
            down[b] = k - common
            for u in ups:
                u[b] -= common
    ups = [_elements(u) for u in ups]
    free = [list(u) for u in ups]
    inside, outside = [], []
    for b in reversed(_elements(down)):
        picks = [next((k for k, a in enumerate(f) if a % b == 0), None) for f in free]
        if None in picks:
            outside.append(b)
            continue
        for f, k in zip(free, picks):
            del f[k]
        inside.append(b)
    first, *rest = (
        mul_poch_ratio(VLaurent.monomial(c, e), u, inside)
        for (c, e, _), u in zip(terms, ups)
    )
    num = sum(rest, first)
    return VFraction(num, poch_ratio(outside, ()))


def _quantum_fraction(
    terms: list[tuple[int, int, list[int], list[int]]],
    downs: list[int],
    q_downs: list[int] | tuple[()] = (),
    order: int | None = None,
) -> VFraction | QSeries:
    """sum_{(c, e, ups, q_ups) in terms} c v^e prod_{a in ups} [a]
    prod_{a in q_ups} (1 - q^a), divided by prod_{b in downs} [b]
    prod_{b in q_downs} (1 - q^b), through [a] = v^(-2(a-1)) (1 - q^a) / (1 - q).

    Every term is put over (1 - q)^u, with u the most quantum integers
    above in one term, so the terms share their factors below.  An order
    goes to ``_poch_fraction``.
    """
    u = max(len(ups) for _, _, ups, _ in terms)
    v_den = 2 * sum(b - 1 for b in downs)
    return _poch_fraction(
        [
            (
                c,
                e + v_den - 2 * sum(a - 1 for a in ups),
                [*ups, *q_ups] + [1] * (len(downs) + u - len(ups)),
            )
            for c, e, ups, q_ups in terms
        ],
        [*downs, *q_downs] + [1] * u,
        order,
    )


# ---------------------------------------------------------------------------
# Bubble expansion coefficients
# ---------------------------------------------------------------------------


def bubble_coeff(
    m: int, n: int, k: int, l: int, i: int, *, order: int | None = None
) -> VFraction | QSeries:
    """The bubble expansion coefficient ceil[m n; k l]_i; with an order, its
    x-series to that order.

    Stated for k >= l >= 1 only; no mirror symmetry is assumed for k < l.
    """
    if k < l or l < 1:
        raise DomainError("bubble_coeff is stated only for k >= l >= 1")
    if min(m, n) < 0:
        raise DomainError("colors must be non-negative")
    if not (0 <= i <= min(m, n, l)):
        raise DomainError(f"index i={i} outside 0..min(m, n, l)")
    return _bubble_times(m, n, k, l, i, 1, [], [], order)


def _bubble_times(
    m: int,
    n: int,
    k: int,
    l: int,
    i: int,
    sign: int,
    up: list[int],
    down: list[int],
    order: int | None,
) -> VFraction | QSeries:
    """sign * ceil[m n; k l]_i * prod_{a in up} [a] / prod_{b in down} [b],
    as one cancelled fraction, or its x-series to the order."""
    ups = [k - j for j in range(l - i)]
    ups += [x for s in range(i) for x in (n - s, m - s)]
    ups += [m + n + k - i - j + 1 for j in range(l - i)]
    downs = [x for t in range(l) for x in (n + k - t, m + k - t)]
    if (i + l) % 2:  # (-1)^(i+l)
        sign = -sign
    # q^(i(i-l)/2) has v-exponent 2 i (i - l); qbinom(l, i) is a ratio of
    # Pochhammer factors.
    return _quantum_fraction(
        [(sign, 2 * i * (i - l), ups + up, _upto(l))],
        downs + down,
        _upto(i) + _upto(l - i),
        order,
    )


def theta_2n(n: int, *, order: int | None = None) -> VFraction | QSeries:
    """Theta(2n, 2n, 2n) = ceil[n n; n n]_0 * Delta_2n; Theta(0,0,0) = 1.
    With an order, its x-series to that order."""
    if n < 0:
        raise DomainError("theta_2n needs n >= 0")
    if n == 0:
        if order is None:
            return VFraction.one()
        return poch_ratio_series(1, 0, (), (), order)
    # Delta_2n = [2n + 1].
    return _bubble_times(n, n, n, n, 0, 1, [2 * n + 1], [], order)


def _tet_terms(n: int) -> tuple[list[tuple[int, int, list[int], list[int]]], list[int]]:
    """The terms of Tet(2n) and the factors below them, for ``_quantum_fraction``:

    Tet = ([n]!)^12 / ([2n]!)^6 * sum_{i=3n}^{4n}
              (-1)^i [i+1]! / (([4n-i]!)^3 ([i-3n]!)^4),

    summed as one numerator over [2n]!^6 / [n]!^5, less the factors it
    shares with every term: the term of i is
    (-1)^i [i+1]! ([n]!/[4n-i]!)^3 ([n]!/[i-3n]!)^4, a polynomial.
    """
    terms = []
    for i in range(3 * n, 4 * n + 1):
        ups = _upto(i + 1)
        ups += [*range(4 * n - i + 1, n + 1)] * 3 + [*range(i - 3 * n + 1, n + 1)] * 4
        terms.append((-1 if i % 2 else 1, 0, ups, []))
    return terms, _upto(n) + [*range(n + 1, 2 * n + 1)] * 6


def tet_2n(n: int) -> VFraction:
    """The tetrahedron with all six edges colored 2n (see ``_tet_terms``)."""
    if n < 0:
        raise DomainError("tet_2n needs n >= 0")
    return _quantum_fraction(*_tet_terms(n))


def tet_theta_ratio(n: int) -> VFraction:
    """Tet(2n) / Theta(2n, 2n, 2n), as one cancelled fraction.

    Theta(2n, 2n, 2n) = (-1)^n [n]! prod_{a=2n+1}^{3n+1} [a]
    / prod_{a=n+1}^{2n} [a]^2 (``theta_2n``) is one term, so its factors
    move across the fraction line: its denominator joins every term of
    Tet, and its numerator joins Tet's factors below.
    """
    if n < 0:
        raise DomainError("tet_theta_ratio needs n >= 0")
    terms, downs = _tet_terms(n)
    sign = -1 if n % 2 else 1
    theta_downs = [*range(n + 1, 2 * n + 1)] * 2
    terms = [(sign * c, e, ups + theta_downs, q_ups) for c, e, ups, q_ups in terms]
    return _quantum_fraction(terms, downs + _upto(n) + [*range(2 * n + 1, 3 * n + 2)])


def p_coeff(n: int, i: int, *, order: int | None = None) -> VFraction | QSeries:
    """P(n, i) = ceil[n n; n n]_i * Delta_2n / Delta_{n+i}; with an order,
    its x-series to that order."""
    if n < 1:
        raise DomainError("p_coeff needs n >= 1")
    if not (0 <= i <= n):
        raise DomainError("p_coeff needs 0 <= i <= n")
    # Delta_2n / Delta_{n+i} = (-1)^(n+i) [2n + 1] / [n + i + 1].
    sign = -1 if (n + i) % 2 else 1
    return _bubble_times(n, n, n, n, i, sign, [2 * n + 1], [n + i + 1], order)


def hook_coeff(n: int, *, order: int | None = None) -> VFraction | QSeries:
    """([n]!)^2 / [2n]!, the coefficient of the hook matching in f(2n), as
    one cancelled fraction: (q;q)_n cancels, leaving
    (q;q)_n / (q^(n+1);q)_n times a power of v.  With an order, its
    x-series to that order."""
    if n < 0:
        raise DomainError("hook_coeff needs n >= 0")
    return _quantum_fraction([(1, 0, _upto(n, 2), [])], _upto(2 * n), order=order)


def nn_i_coeff(
    n: int, i: int, j: int, *, order: int | None = None
) -> VFraction | QSeries:
    """Closed form for ceil[n i; n n]_j; with an order, its x-series to that
    order.

    Equals (-1)^(j+n) q^(j^2 + j/2 - n/2)
        (q;q)_i^2 (q;q)_n^4 (q;q)_{2n+i-j+1}
        / ((q;q)_{i-j} (q;q)_j^2 (q;q)_{2n} (q;q)_{n+i} (q;q)_{n+i+1}
           (q;q)_{n-j}^2)

    and agrees with bubble_coeff(n, i, n, n, j) on its whole domain.
    """
    if j > i:
        raise DomainError("nn_i_coeff needs j <= i ((q;q)_{i-j} undefined)")
    if j < 0 or i < 0 or n < 0 or j > n or i > n:
        raise DomainError("nn_i_coeff needs 0 <= j <= i <= n")
    sign = -1 if (j + n) % 2 else 1
    # v-exponent of q^(j^2 + j/2 - n/2) is 4 j^2 + 2 j - 2 n.
    ups = _upto(i, 2) + _upto(n, 4) + _upto(2 * n + i - j + 1)
    downs = _upto(i - j) + _upto(j, 2) + _upto(2 * n) + _upto(n + i)
    downs += _upto(n + i + 1) + _upto(n - j, 2)
    return _poch_fraction([(sign, 4 * j * j + 2 * j - 2 * n, ups)], downs, order)


# ---------------------------------------------------------------------------
# Torus knots
# ---------------------------------------------------------------------------


def colored_jones_torus(
    f: int, n: int, *, order: int | None = None
) -> VLaurent | QSeries:
    """Normalized colored Jones polynomial of the (2, f) torus link.

    J~_(n)/Delta_n = (1/Delta_n) sum_{i=0}^{n}
        (-1)^(f(n-i)) q^(f(2i + 2i^2 - 2n - n^2)/4) Delta_{2i}.

    The division by Delta_n is exact; a remainder raises ConsistencyError.
    It is divided by Delta_n, so its tails differ from those of the
    unnormalized bracket <K_n> (the convention of ``tail_85``) by a factor
    1/(1 - q): a tail of <K_n> is the tail here times 1/(1 - q).  The
    framing factor (a global power of +-A) is not fixed here; callers
    compare through normalization.

    With an order, it returns ``tails_engine.normalize`` of the value to
    that order instead, without building the value: see
    ``_normalized_quotient``.
    """
    if f < 1:
        raise DomainError("colored_jones_torus needs f >= 1")
    if n < 0:
        raise DomainError("colored_jones_torus needs n >= 0")
    # Delta_2i = v^(-4i) (1 - q^(2i+1)) / (1 - q) and Delta_n = (-1)^n
    # v^(-2n) (1 - q^(n+1)) / (1 - q): the (1 - q) cancel, so the sum is
    # 2(n + 1) signed monomials over (1 - q^(n+1)).
    terms: dict[int, int] = {}
    for i in range(n + 1):
        sign = -1 if (f * (n - i) + n) % 2 else 1
        e = f * (2 * i + 2 * i * i - 2 * n - n * n) + 2 * n - 4 * i
        terms[e] = terms.get(e, 0) + sign
        terms[e + 8 * i + 4] = terms.get(e + 8 * i + 4, 0) - sign
    try:
        if order is None:
            return mul_poch_ratio(VLaurent(terms), (), [n + 1])
        return _normalized_quotient(VLaurent(terms), n + 1, order)
    except ConsistencyError as exc:
        raise ConsistencyError("torus Jones sum not divisible by Delta_n") from exc


def _normalized_quotient(num: VLaurent, m: int, order: int) -> QSeries:
    """``normalize(num / (1 - q^m), order)`` when (1 - q^m) divides num
    exactly, read off num's lowest ``order`` q-coefficients; otherwise
    ConsistencyError.

    (1 - q^m) has constant term 1, so the quotient's lowest term is num's,
    and normalizing num to the order and dividing that prefix once by
    (1 - q^m) (``div_one_minus_qk``) gives the quotient's prefix exactly:
    the sum num is exact before anything is truncated.  The divisibility
    test is O(len(num)): q^m = 1 modulo (1 - q^m), so (1 - q^m) divides num
    exactly when, in each v-exponent class mod 4, the coefficients of each
    q-exponent class mod m add up to 0, that is, when those of each
    v-exponent class mod 4m do.
    """
    from .tails_engine import normalize

    sums: dict[int, int] = {}
    for e, c in num.terms.items():
        sums[e % (4 * m)] = sums.get(e % (4 * m), 0) + c
    if any(sums.values()):
        raise ConsistencyError(f"(1 - q^{m}) does not divide the sum")
    cs = list(normalize(num, order).coeffs)
    div_one_minus_qk(cs, m)
    return QSeries(0, cs)


# ---------------------------------------------------------------------------
# Bubble chain tails
# ---------------------------------------------------------------------------


def chain_tail(parity: str, k: int, order: int) -> QSeries:
    """Tail series of the closed chain of bubbles around f(n).

    parity "even" is the chain with 2k bubbles:
        (q;q)_inf * sum_{l_1..l_{k-1}} q^(sum i_j(i_j+1)) / prod (q;q)_{l_j},
    which is ag_rhs(k); parity "odd" is the chain with 2k+1 bubbles, the same
    sum over l_1..l_k with the last Pochhammer factor squared, which is
    false_ag_rhs(k + 1).  Both delegate to those multi-sums, so comparing a
    chain tail with ag_rhs / false_ag_rhs is not independent evidence; the
    comparisons with the direct sums theta_f and false_theta are.
    """
    if k < 1:
        raise DomainError("chain_tail needs k >= 1")
    if order < 0:
        raise DomainError("order must be non-negative")
    if parity == "even":
        return ag_rhs(k, order)
    if parity == "odd":
        return false_ag_rhs(k + 1, order)
    raise DomainError("parity must be 'even' or 'odd'")
