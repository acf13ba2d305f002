"""Theta and false theta functions, Andrews-Gordon multi-sums, and the
named q-series tails.

The two-variable series are

    f(a, b)   = sum_{i in Z} a^(i(i+1)/2) b^(i(i-1)/2),
    Psi(a, b) = the same sum with the terms i < 0 negated

evaluated at monomial arguments a = sign * q^e with e > 0 (denominator of e
at most 2, so intermediate supports live in half-integer powers of q).
``theta_f`` and ``false_theta`` are two specializations of them.

The Andrews-Gordon multi-sums (``nested_sum_series``) are summed depth by
depth over the partial sums i_j, and are never rewritten through the
theta product side, so the identities they check stay independent.  Every
product or quotient by a q-Pochhammer symbol, (q^c; q^step)_inf^p or
1/(q;q)_l, is a sequence of in-place (1 - q^k) steps
(``qcore.mul_poch_inf``, ``qcore.div_one_minus_qk``), never a dense series
product.  Every series returned here lives in Z[[q]], as every QSeries does.
"""

from __future__ import annotations

from operator import add, sub

from .errors import CapacityError, DomainError, RepresentationError, read_params
from .qcore import (
    QSeries,
    VLaurent,
    div_one_minus_qk,
    mul_poch_inf,
    poch_inf,
    poch_inf_step,
    qbinom,
    to_q_series,
)

# Largest k of ag_rhs and false_ag_rhs.  Their multi-sum has depth k - 1,
# and every level costs about order**2 steps whatever the depth, so the run
# time grows linearly in k: at MAX_SERIES_ORDER, k = 5 takes 6.5 s and
# k = 10 about 15 s (2 cores, CPython 3.11), while k = 10**5 takes 45 s
# already at order 100.  Checked before any series is built.
MAX_AG_K = 10


class MonomialArg:
    """A monomial argument sign * q**exponent with exponent > 0.

    The exponent is an ``int`` or a ``fractions.Fraction`` with denominator
    1 or 2, stored as given, so every series below has support in
    half-integer powers of q; operations returning a QSeries verify that
    the final support is integral.  Two arguments are equal when their
    signs and exponents are.
    """

    __slots__ = ("sign", "exponent")

    def __init__(self, sign: int, exponent) -> None:
        if sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        try:
            num, den = exponent.numerator, exponent.denominator
        except AttributeError:
            raise DomainError("exponent must be an int or a Fraction") from None
        if num <= 0:
            raise DomainError("exponent must be positive")
        if den not in (1, 2):
            raise DomainError("exponent denominator must be 1 or 2")
        self.sign = sign
        self.exponent = exponent

    def __repr__(self) -> str:
        return f"MonomialArg(sign={self.sign!r}, exponent={self.exponent!r})"

    def __eq__(self, other):
        if not isinstance(other, MonomialArg):
            return NotImplemented
        return (self.sign, self.exponent) == (other.sign, other.exponent)

    def __hash__(self) -> int:
        return hash((self.sign, self.exponent))

    @property
    def half_exponent(self) -> int:
        """The exponent measured in units of q**(1/2)."""
        return 2 * self.exponent.numerator // self.exponent.denominator


def _two_variable_series(
    a: MonomialArg, b: MonomialArg, order: int, second_sign: int
) -> QSeries:
    """Common engine for f(a, b) (second_sign +1) and Psi(a, b) (-1): the
    bilateral sum over i in Z of a^(i(i+1)/2) b^(i(i-1)/2), with the terms
    i < 0 times second_sign.

    The degree grows along both walks, i = 0, 1, ... and i = -1, -2, ...,
    so each stops at its first term past the order.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    ea, eb = a.half_exponent, b.half_exponent
    limit = 2 * order  # work in half-exponent units
    acc: dict[int, int] = {}
    for i, step, sign in ((0, 1, 1), (-1, -1, second_sign)):
        while True:
            ta, tb = i * (i + 1) // 2, i * (i - 1) // 2
            deg = ea * ta + eb * tb
            if deg > limit:
                break
            acc[deg] = acc.get(deg, 0) + sign * a.sign**ta * b.sign**tb
            i += step
    for deg, coeff in acc.items():
        if coeff and deg % 2:
            raise RepresentationError(
                "series support is not integral in q (half-integer exponent survives)"
            )
    cs = [0] * order
    for deg, coeff in acc.items():
        if coeff and deg // 2 < order:
            cs[deg // 2] += coeff
    return QSeries(cs)


def theta_general(a: MonomialArg, b: MonomialArg, order: int) -> QSeries:
    """The Ramanujan theta function f(a, b) truncated to the given order."""
    return _two_variable_series(a, b, order, +1)


def psi_general(a: MonomialArg, b: MonomialArg, order: int) -> QSeries:
    """The false theta function Psi(a, b) truncated to the given order."""
    return _two_variable_series(a, b, order, -1)


def theta_f(k: int, order: int) -> QSeries:
    """f(-q^(2k), -q): the theta specialization appearing as torus-knot tails.

    Direct summation of
        sum_{i>=0} (-1)^i q^(k(i^2+i) + i(i-1)/2)
      + sum_{i>=1} (-1)^i q^(k(i^2-i) + i(i+1)/2).
    """
    if k < 1:
        raise DomainError("theta_f needs k >= 1")
    return theta_general(MonomialArg(-1, 2 * k), MonomialArg(-1, 1), order)


def false_theta(k: int, order: int) -> QSeries:
    """Psi(q^(2k-1), q) = sum_{i>=0} q^(ki^2+(k-1)i) - sum_{i>=1} q^(k(i^2-i)+i)."""
    if k < 1:
        raise DomainError("false_theta needs k >= 1")
    return psi_general(MonomialArg(1, 2 * k - 1), MonomialArg(1, 1), order)


# ---------------------------------------------------------------------------
# Andrews-Gordon multi-sums
# ---------------------------------------------------------------------------


def nested_sum_series(depth: int, order: int, *, square_last: bool) -> QSeries:
    """sum over l_1..l_depth >= 0 of q^(sum_j i_j (i_j+1)) / denom with
    i_j = l_j + ... + l_depth; denom = prod_j (q;q)_{l_j}, last factor
    squared when requested.  Empty sum (depth 0) is 1.

    Summed depth by depth, l_depth first: ``level[i0]`` holds, below
    q^order, the sum over the indices chosen so far whose partial sum is
    i0.  For the next index l = 0, 1, ... it is divided in place by one
    more factor (1 - q^l) (twice on the squared level), so it carries
    1/(q;q)_l, and added times q^(i(i+1)) into the next level at
    i = i0 + l.  Terms at or above q^order are dropped, so i(i+1) < order.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    imax = 0
    while imax * (imax + 1) < order:
        imax += 1
    level = {0: list(QSeries.one(order).coeffs)}
    for m in range(depth):
        divisions = 2 if square_last and m == 0 else 1
        nxt: dict[int, list] = {}
        for i0, cur in level.items():
            for i in range(i0, imax):
                d = i * (i + 1)
                del cur[order - d:]  # only q^e with e + d < order is kept
                if i > i0:
                    for _ in range(divisions):
                        div_one_minus_qk(cur, i - i0)
                acc = nxt.setdefault(i, [0] * order)
                for e, c in enumerate(cur):
                    acc[e + d] += c
        level = nxt
    total = [0] * order
    for cs in level.values():
        for e, c in enumerate(cs):
            total[e] += c
    return QSeries(total)


def ag_rhs(k: int, order: int) -> QSeries:
    """Right-hand side of the Andrews-Gordon identity for f(-q^(2k), -q):

        (q;q)_inf * sum_{l_1..l_{k-1}} q^(sum i_j(i_j+1)) / prod (q;q)_{l_j}.

    k = 1 gives (q;q)_inf; k = 2 is the second Rogers-Ramanujan shape.
    """
    if k < 1:
        raise DomainError("ag_rhs needs k >= 1")
    if k > MAX_AG_K:
        raise CapacityError(f"k {k} exceeds limit {MAX_AG_K}")
    return mul_poch_inf(nested_sum_series(k - 1, order, square_last=False), 1, order)


def false_ag_rhs(k: int, order: int) -> QSeries:
    """Right-hand side of the false-theta counterpart for Psi(q^(2k-1), q):

        (q;q)_inf * sum_{l_1..l_{k-1}} q^(sum i_j(i_j+1))
                    / ((q;q)_{l_{k-1}}^2 prod_{j<k-1} (q;q)_{l_j}).

    k = 2 is Ramanujan's Entry 9 shape.
    """
    if k < 2:
        raise DomainError("false_ag_rhs needs k >= 2")
    if k > MAX_AG_K:
        raise CapacityError(f"k {k} exceeds limit {MAX_AG_K}")
    return mul_poch_inf(nested_sum_series(k - 1, order, square_last=True), 1, order)


# ---------------------------------------------------------------------------
# Named tails
# ---------------------------------------------------------------------------


def lambda_series(order: int) -> QSeries:
    """The tetrahedron-over-theta tail

        Lambda(q) = (q;q)_inf^2 * sum_{i>=0} (-1)^i q^((i+3i^2)/2) / (q;q)_i^3.

    The i-th term has degree (i + 3 i^2)/2, so the sum is truncated once
    that exceeds the order.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    total = [0] * order
    inv = list(QSeries.one(order).coeffs)  # 1 / (q;q)_i^3, divided in place
    i = 0
    while True:
        d = (i + 3 * i * i) // 2
        if d > order or (order == 0 and i > 0):
            break
        if i:
            for _ in range(3):
                div_one_minus_qk(inv, i)
        if d < order:
            total[d:] = map(sub if i % 2 else add, total[d:], inv)
        i += 1
    return mul_poch_inf(QSeries(total), 1, order, power=2)


def tail_85(order: int) -> QSeries:
    """The stable series of the 8_5 knot:

        (q^2;q)_inf (q;q)_inf * sum_k q^(k+k^2)/(q;q)_k
            * sum_{i=0}^{k} q^(-2i(k-i)) qbinom(k, i)^2.

    It is the tail of the unnormalized colored bracket <K_n> (not divided
    by Delta_n) at its low-v end, the end whose reduced Tait graph is a
    theta graph with paths of 3, 3 and 2 edges (Armond-Dasbach,
    arXiv:1106.3948).  The k-th term's inner sum dips to
    q^(-2 floor(k^2/4)), so k is included while
    k + k^2 - 2*floor(k^2/4) <= order; no later term reaches a retained
    coefficient.  Each term is assembled exactly in v-exponent space before
    any truncation.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    total = [0] * order
    k = 0
    while k + k * k - 2 * (k * k // 4) <= order:
        inner = VLaurent.zero()
        for i in range(k + 1):
            qb = qbinom(k, i)
            inner = inner + VLaurent.q_power(-2 * i * (k - i)) * (qb * qb)
        term_poly = VLaurent.q_power(k + k * k) * inner
        # Every exponent k + k^2 - 2i(k - i) is >= 0, so the term starts at
        # q^d with d >= 0.
        d = term_poly.min_exp() // 4
        if d < order:
            # Divide by (q;q)_k one (1 - q^j) factor at a time.
            cs = list(to_q_series(term_poly, order - d).coeffs)
            for j in range(1, k + 1):
                div_one_minus_qk(cs, j)
            total[d:] = map(add, total[d:], cs)
        k += 1
    return mul_poch_inf(mul_poch_inf(QSeries(total), 2, order), 1, order)


# ---------------------------------------------------------------------------
# Named-series registry (used by the CLI's series/verify commands)
# ---------------------------------------------------------------------------


def _registry_theta_general(a_sign, a_num, a_den, b_sign, b_num, b_den, order):
    """theta_general(a, b) for the arguments x = x_sign * q**(x_num / x_den)."""
    from fractions import Fraction

    args = []
    for x, sign, num, den in ("a", a_sign, a_num, a_den), ("b", b_sign, b_num, b_den):
        if den == 0:
            raise DomainError(f"{x}_den must be nonzero")
        args.append(MonomialArg(sign, Fraction(num, den)))
    return theta_general(*args, order)


# Every named series by name: its function of the parameters and the order
# and, for each parameter in read order, (default, least, most) as
# errors.read_params reads them, None where there is none.  theta_general
# takes x_sign, x_num and x_den (default 1) for each argument x = a, b.  The
# most of ag_rhs's and false_ag_rhs's k is MAX_AG_K, above which they refuse
# it too; each function refuses a k, c or step below its own least, before
# any series is built.
SERIES_REGISTRY = {
    "theta_f": (theta_f, {"k": (None, None, None)}),
    "false_theta": (false_theta, {"k": (None, None, None)}),
    "ag_rhs": (ag_rhs, {"k": (None, None, MAX_AG_K)}),
    "false_ag_rhs": (false_ag_rhs, {"k": (None, None, MAX_AG_K)}),
    "theta_general": (_registry_theta_general, {
        f"{x}_{part}": (1 if part == "den" else None, None, None)
        for x in "ab" for part in ("sign", "num", "den")
    }),
    "lambda": (lambda_series, {}),
    "tail_85": (tail_85, {}),
    "poch_inf": (poch_inf, {"c": (1, None, None)}),
    "poch_inf_step": (poch_inf_step, {
        "c": (None, None, None),
        "step": (None, None, None),
    }),
}


def read_series(name: str, params: dict) -> dict:
    """``params`` read by the row of the registry series ``name``; an
    unknown name, or a missing or undeclared parameter, raises DomainError."""
    try:
        declared = SERIES_REGISTRY[name][1]
    except KeyError:
        known = ", ".join(sorted(SERIES_REGISTRY))
        raise DomainError(f"unknown series {name!r}; known: {known}") from None
    try:
        return read_params(name, declared, params)
    except KeyError as exc:
        raise DomainError(f"missing parameter {exc.args[0]!r}") from None


def named_series(name: str, params: dict, order: int) -> QSeries:
    """Evaluate a registry series on ``params``, read by its row first."""
    values = read_series(name, params)
    return SERIES_REGISTRY[name][0](**values, order=order)
