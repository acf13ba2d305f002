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

Each local closed form (``bubble_coeff``, ``theta_2n``, ``p_coeff``,
``hook_coeff``, ``nn_i_coeff``) is one ``qcore.PochTerm``: a signed power
of v times a ratio of Pochhammer factors (1 - q^a), through
[a] = v^(-2(a-1)) (1 - q^a) / (1 - q).  Each lists its factors once, and
the term stores their canonical exponent -> count dict, so ``theta_2n``
and ``p_coeff`` are ``bubble_coeff`` times their Delta ratios, two equal
forms compare equal with no polynomial built (``nn_i_sweep``), and a
caller reads the value in one of two ways.  ``.exact()`` is one fraction:
the factors left below are the stored denominator, with constant term +-1,
and the numerator is one call of the dense kernel ``qcore.mul_poch_ratio``,
so no closed form runs a chain of VLaurent products or powers.  The oracle
checks compare it.  ``.series(k)`` is the first k coefficients of the
value divided by v^e as a series in q, from one dense list: a factor
(1 - q^a) with a at or past the order is 1 there and is never applied, so
a tail check that compares n + 1 coefficients does O(n) work per factor
instead of building a polynomial of q-degree O(n^2).  The tail checks read
it.

The Pochhammer-quotient forms with several terms are sums of such terms.
``tet_2n`` is their sum over the least common Pochhammer denominator
(``qcore.poch_sum``, the same function as ``.exact()``), for the oracle
checks.  ``tet_theta_ratio`` returns its terms, those of Tet(2n) each
divided by Theta(2n, 2n, 2n)'s one term; the tail check reads their sum
through ``tails_engine.sum_fraction_products_x``, each term at its q-offset
from the lowest one in one list of coefficients.  The read is exact: if
the lowest terms cancel, the list grows until the order asked is known.

The (2, f) torus sum is signed monomials over (1 - q^(n+1)), divided
exactly in one kernel call; ``colored_jones_torus`` also takes ``order=``:
its sum is 2(n + 1) monomials, added exactly before anything is truncated,
so one pass of division by (1 - q^(n+1)) over its lowest coefficients gives
the normalized value to that order.  ``check_torus_stabilization`` reads
P_n = ``colored_jones_torus(f, n, order=n)``.

Values here are exact rational functions of v (PochTerm, VFraction);
genuinely polynomial results (like the normalized colored Jones) are
reduced to VLaurent with a remainder assertion, never by rounding.
"""

from __future__ import annotations

from .errors import ConsistencyError, DomainError
from .qcore import (
    PochTerm,
    QSeries,
    VFraction,
    VLaurent,
    div_one_minus_qk,
    mul_poch_ratio,
    poch_sum,
)
from .qidentities import MAX_AG_K, ag_rhs, false_ag_rhs


def _upto(t: int, times: int = 1) -> list[int]:
    """1, ..., t, each ``times`` times: the factors of ([t]!)^times, or of
    (q;q)_t^times."""
    return [*range(1, t + 1)] * times


def _quantum(c: int, ups: list[int], downs: list[int]) -> PochTerm:
    """c prod_{a in ups} [a] / prod_{b in downs} [b], through
    [a] = v^(-2(a-1)) (1 - q^a) / (1 - q)."""
    e = 2 * sum(b - 1 for b in downs) - 2 * sum(a - 1 for a in ups)
    return PochTerm(c, e, ups + [1] * len(downs), downs + [1] * len(ups))


# ---------------------------------------------------------------------------
# Bubble expansion coefficients
# ---------------------------------------------------------------------------


def bubble_coeff(m: int, n: int, k: int, l: int, i: int) -> PochTerm:
    """The bubble expansion coefficient ceil[m n; k l]_i.

    Stated for k >= l >= 1 only; no mirror symmetry is assumed for k < l.
    """
    if k < l or l < 1:
        raise DomainError("bubble_coeff is stated only for k >= l >= 1")
    if min(m, n) < 0:
        raise DomainError("colors must be non-negative")
    if not (0 <= i <= min(m, n, l)):
        raise DomainError(f"index i={i} outside 0..min(m, n, l)")
    ups = [k - j for j in range(l - i)]
    ups += [x for s in range(i) for x in (n - s, m - s)]
    ups += [m + n + k - i - j + 1 for j in range(l - i)]
    downs = [x for t in range(l) for x in (n + k - t, m + k - t)]
    sign = -1 if (i + l) % 2 else 1
    # q^(i(i-l)/2) has v-exponent 2 i (i - l); qbinom(l, i) is a ratio of
    # Pochhammer factors.
    q_part = PochTerm(1, 2 * i * (i - l), _upto(l), _upto(i) + _upto(l - i))
    return _quantum(sign, ups, downs) * q_part


def theta_2n(n: int) -> PochTerm:
    """Theta(2n, 2n, 2n) = ceil[n n; n n]_0 * Delta_2n; Theta(0,0,0) = 1."""
    if n < 0:
        raise DomainError("theta_2n needs n >= 0")
    if n == 0:
        return PochTerm(1, 0)
    # Delta_2n = [2n + 1].
    return bubble_coeff(n, n, n, n, 0) * _quantum(1, [2 * n + 1], [])


def _tet_terms(n: int) -> list[PochTerm]:
    """The terms of Tet(2n), for ``poch_sum``:

    Tet = ([n]!)^12 / ([2n]!)^6 * sum_{i=3n}^{4n}
              (-1)^i [i+1]! / (([4n-i]!)^3 ([i-3n]!)^4),

    the term of i (-1)^i [i+1]! ([n]!/[4n-i]!)^3 ([n]!/[i-3n]!)^4, a
    polynomial, over [2n]!^6 / [n]!^5.
    """
    downs = _upto(n) + [*range(n + 1, 2 * n + 1)] * 6
    terms = []
    for i in range(3 * n, 4 * n + 1):
        ups = _upto(i + 1)
        ups += [*range(4 * n - i + 1, n + 1)] * 3 + [*range(i - 3 * n + 1, n + 1)] * 4
        terms.append(_quantum(-1 if i % 2 else 1, ups, downs))
    return terms


def tet_2n(n: int) -> VFraction:
    """The tetrahedron with all six edges colored 2n (see ``_tet_terms``)."""
    if n < 0:
        raise DomainError("tet_2n needs n >= 0")
    return poch_sum(_tet_terms(n))


def tet_theta_ratio(n: int) -> list[PochTerm]:
    """The terms of Tet(2n) / Theta(2n, 2n, 2n): Theta is one term, so each
    term of Tet is divided by it.  ``poch_sum`` of them is the exact value."""
    if n < 0:
        raise DomainError("tet_theta_ratio needs n >= 0")
    theta = theta_2n(n)
    return [t / theta for t in _tet_terms(n)]


def p_coeff(n: int, i: int) -> PochTerm:
    """P(n, i) = ceil[n n; n n]_i * Delta_2n / Delta_{n+i}."""
    if n < 1:
        raise DomainError("p_coeff needs n >= 1")
    if not (0 <= i <= n):
        raise DomainError("p_coeff needs 0 <= i <= n")
    # Delta_2n / Delta_{n+i} = (-1)^(n+i) [2n + 1] / [n + i + 1].
    sign = -1 if (n + i) % 2 else 1
    return bubble_coeff(n, n, n, n, i) * _quantum(sign, [2 * n + 1], [n + i + 1])


def hook_coeff(n: int) -> PochTerm:
    """([n]!)^2 / [2n]!, the coefficient of the hook matching in f(2n): as
    a term, (q;q)_n cancels, leaving (q;q)_n / (q^(n+1);q)_n times a power
    of v."""
    if n < 0:
        raise DomainError("hook_coeff needs n >= 0")
    return _quantum(1, _upto(n, 2), _upto(2 * n))


def nn_i_coeff(n: int, i: int, j: int) -> PochTerm:
    """Closed form for ceil[n i; n n]_j.

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
    return PochTerm(sign, 4 * j * j + 2 * j - 2 * n, ups, downs)


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

    The tail reader ``tails_engine.sum_fraction_products_x`` could read the
    same sum as 2(n + 1) one-monomial terms over (1 - q^m), but one
    ``PochTerm`` and one series pass per monomial cost more: through it,
    ``torus_stabilization`` (k_max 3) took 6.6 ms against 4.4 ms at n_max
    12, and 43 ms against 32 ms at its cap of 50 (in-process medians of 7
    runs, 2 cores, CPython 3.11.7).
    """
    from .tails_engine import normalize

    sums: dict[int, int] = {}
    for e, c in num.terms.items():
        sums[e % (4 * m)] = sums.get(e % (4 * m), 0) + c
    if any(sums.values()):
        raise ConsistencyError(f"(1 - q^{m}) does not divide the sum")
    cs = list(normalize(num, order).coeffs)
    div_one_minus_qk(cs, m)
    return QSeries(cs)


# ---------------------------------------------------------------------------
# Bubble chain tails
# ---------------------------------------------------------------------------


# The parameters of a suite's chain spec ({"chain": parity, "k": k}) per
# parity, (default, least, most) as errors.read_params reads them, None
# where there is none.  k is held to MAX_AG_K in ag_rhs(k) and in
# false_ag_rhs(k + 1); chain_tail refuses a k below 1.
CHAIN_PARAMS = {
    "even": {"k": (None, None, MAX_AG_K)},
    "odd": {"k": (None, None, MAX_AG_K - 1)},
}


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
