"""Tail extraction: the "first n coefficients agree" predicate, the
stabilization check of a sequence n -> P_n, and the tail product
combinators.

A sequence P_1, P_2, ... of exact skein evaluations has a tail when the
first n coefficients of P_n stabilize up to a common sign, a power of q and
a power of A (the framing).  ``normalize`` alone drops that factor
+-q^s A^r: it divides it out so the lowest term sits at q^0 with a positive
coefficient, and every tail check reads a skein value through it.  The
normalized representative is a complete invariant of the +-q^s A^r orbit,
which makes the agreement predicate a genuine equivalence on prefixes.

Comparing beyond the computed order of a series raises PrecisionError; it
never silently returns False.

The tail checks of the closed forms read a sum of ``qcore.PochTerm``
values through ``sum_fraction_products_x``: terms on one v-exponent residue
mod 4 are v^lo times series in q, so each term's q-series is added at its
offset from the lowest one into one list, which ``normalize`` then reads.
The read is exact: if the lowest terms cancel, the list grows until the
order asked is known past the first nonzero coefficient.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import add

from .errors import DomainError, PrecisionError, RepresentationError, read_params
from .qcore import (
    MAX_SERIES_ORDER,
    PochTerm,
    QSeries,
    VFraction,
    VLaurent,
    fraction_to_q_series,
    mul_one_minus_qk,
    mul_poch_inf,
    poch_inf,
    series_mul,
    to_q_series,
)
from .qidentities import MonomialArg, lambda_series, psi_general, theta_general

SkeinValue = VLaurent | VFraction | QSeries


def normalize(p: SkeinValue, order: int | None = None) -> QSeries:
    """Divide by +-q^s A^r so the series starts with a positive coefficient
    at q^0; this is the one place where the framing power A^r is dropped.

    A Laurent polynomial or rational function of v has its numerator moved
    to valuation 0 (the stored denominator already has it) before it is
    expanded, so any power of A leaves with it; a series has its leading
    zeros dropped first.  The result has ``order`` coefficients; a series is
    truncated to it, and a polynomial is zero-padded past its span.  Only a
    Laurent polynomial may omit the order: it then keeps its whole span.
    The magnitude of the leading coefficient is preserved.  Zero input and
    relative v-exponents that are not multiples of 4 raise.
    """
    if isinstance(p, VLaurent):
        if p.is_zero():
            raise DomainError("cannot normalize zero")
        if order is None:
            order = (p.max_exp() - p.min_exp()) // 4 + 1
        s = to_q_series(p.shift(-p.min_exp()), order)
    elif isinstance(p, VFraction):
        if p.is_zero():
            raise DomainError("cannot normalize zero")
        if order is None:
            raise DomainError("normalizing a rational function needs an order")
        s = fraction_to_q_series(
            VFraction(p.num.shift(-p.num.min_exp()), p.den), order
        )
    elif isinstance(p, QSeries):
        lead = next((j for j, c in enumerate(p.coeffs) if c), None)
        if lead is None:
            raise DomainError("cannot normalize zero")
        s = QSeries(p.coeffs[lead:]) if lead else p
        if order is not None:
            s = s.with_order(order)
    else:
        raise DomainError(f"cannot normalize {type(p).__name__}")
    cs = list(s.coeffs)
    if cs and cs[0] < 0:
        cs = [-c for c in cs]
    return QSeries(cs)


def agree_to_order(a: QSeries, b: QSeries, n: int) -> bool:
    """True iff the first n coefficients agree after normalization.

    Requesting more coefficients than either operand carries raises
    PrecisionError: truncation must never masquerade as disagreement.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    na = normalize(a)
    nb = normalize(b)
    if na.order < n or nb.order < n:
        raise PrecisionError(
            f"agreement to {n} requested but orders are {na.order} and {nb.order}"
        )
    return na.coeffs[:n] == nb.coeffs[:n]


def sum_fraction_products_x(terms: list[PochTerm], q_order: int) -> QSeries:
    """The normalized q-series of a sum of terms: exactly q_order
    coefficients, counted from its first nonzero one (``perfbench/spans.py``
    wraps it by this name).

    A product of closed forms is one term (``PochTerm.__mul__`` is exact),
    so this reads every sum of products.  The terms must share one
    v-exponent residue mod 4, or RepresentationError is raised: the sum is
    then v^lo times a series in q, lo the lowest exponent.  Each term's
    ``series`` is added at q-offset (e - lo) / 4 into one list over a window
    of q_order + 2 coefficients; no fraction is built and no series is
    multiplied.  Each read is an exact truncation, so if the lowest terms
    cancel past the window, the window doubles and the sum is read again,
    until q_order coefficients past the first nonzero one are known.  A
    window past MAX_SERIES_ORDER raises PrecisionError, so a sum that
    cancels to zero raises it; an empty sum raises DomainError.
    """
    if not terms:
        raise DomainError("an empty sum is zero")
    lo = min(t.e for t in terms)
    if any((t.e - lo) % 4 for t in terms):
        raise RepresentationError("terms on two v-exponent residues mod 4")
    window = q_order + 2
    while True:
        cs = [0] * window
        for t in terms:
            off = (t.e - lo) // 4
            if off < window:
                cs[off:] = map(add, cs[off:], t.series(window - off).coeffs)
        lead = next((j for j, c in enumerate(cs) if c), None)
        if lead is not None and lead + q_order <= window:
            return normalize(QSeries(cs[lead:]), q_order)
        if window >= MAX_SERIES_ORDER:
            raise PrecisionError(
                f"sum cancels past a window of {window} coefficients"
            )
        window = min(2 * window, MAX_SERIES_ORDER)


def x_series_to_normalized_q(s: QSeries, q_order: int) -> QSeries:
    """Normalize an x-series and reinterpret it in q; the normalized support
    must lie on even x-powers (odd residues would be a q^(1/2) leftover).

    No code in the package calls it: ``perfbench/spans.py`` looks it up by
    name (ROADMAP item 14).
    """
    cs = normalize(s).coeffs
    if any(cs[1::2]):
        raise RepresentationError("normalized series has q^(1/2) support")
    return QSeries(cs[::2]).with_order(min(q_order, (len(cs) + 1) // 2))


# ---------------------------------------------------------------------------
# Stabilization
# ---------------------------------------------------------------------------


def stabilization_report(
    value: Callable[[int], SkeinValue], n_max: int
) -> tuple[tuple[bool, ...], QSeries]:
    """Check P_n = P_{n+1} on the first n coefficients for n <= n_max, where
    P_n = value(n) is normalized to n coefficients (a polynomial shorter
    than that is zero-padded).

    Returns the verdicts for n = 1..n_max and the tail: P_{n_max}
    normalized to n_max coefficients.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    values = [normalize(value(n), n) for n in range(1, n_max + 2)]
    verdicts = tuple(
        agree_to_order(values[n - 1], values[n], n) for n in range(1, n_max + 1)
    )
    return verdicts, values[n_max - 1]


# ---------------------------------------------------------------------------
# Tail products
# ---------------------------------------------------------------------------


def tail_product_1(t1: QSeries, t2: QSeries, order: int) -> QSeries:
    """Tail of the theta-gluing of two graphs: T1 * T2 / (q^2; q)_inf."""
    prod = series_mul(t1.with_order(order), t2.with_order(order))
    return mul_poch_inf(prod, 2, order, power=-1)


def tail_product_23(t1: QSeries, t2: QSeries, order: int) -> QSeries:
    """Tail of the edge-gluing (connect sum): (1 - q) * T1 * T2."""
    prod = series_mul(t1.with_order(order), t2.with_order(order))
    cs = list(prod.coeffs)
    mul_one_minus_qk(cs, 1)
    return QSeries(cs)


# ---------------------------------------------------------------------------
# Named graph families with known tails
# ---------------------------------------------------------------------------


# Largest m of the g_m and inadequate_chain families, checked before any
# series is built.  inadequate_chain makes one pass of (q;q)_inf per unit of
# m: 3.0 s at m = 5 and MAX_SERIES_ORDER, and m = 10**5 took 1.9 s already
# at order 20.  g_m builds Lambda^m by repeated squaring, three dense series
# products at m = 5, where it takes 11.2-11.6 s at MAX_SERIES_ORDER (three
# runs on a loaded host, 2 cores, CPython 3.11.7), against 11.6-17.4 s for
# one product per unit of m in alternating runs there.
MAX_FAMILY_M = 5

# Every graph family by name: for each parameter in read order, (default,
# least, most) as errors.read_params reads them, None where there is none.
# sign_fixed is a flag: any nonzero value picks the f(-q^(2l+2), -q)
# reading of g_kl.
GRAPH_FAMILIES = {
    "g_m": {"m": (None, 0, MAX_FAMILY_M)},
    "g_kl": {
        "k": (None, 1, None),
        "l": (0, 0, None),
        "sign_fixed": (0, None, None),
    },
    "inadequate_chain": {"m": (None, 0, MAX_FAMILY_M)},
    "theta": {},
    "tet2n": {},
}


def read_family(family: str, params: dict) -> dict:
    """``params`` read by the row of the graph family ``family``."""
    if family not in GRAPH_FAMILIES:
        raise DomainError(f"unknown graph family {family!r}")
    return read_params(family, GRAPH_FAMILIES[family], params)


def graph_family_tail(family: str, params: dict, order: int) -> QSeries:
    """The stated tail of a named graph family, truncated to the order;
    ``params`` are read by its row of GRAPH_FAMILIES.

    Families:
      g_m               wheel of m triangles: Lambda(q)^m (q;q)_inf
      g_kl              Psi(q^(2k+1), q) * f(-q^(2l+2), q); pass
                        sign_fixed=1 for the f(-q^(2l+2), -q) reading
      inadequate_chain  (q^2;q)_inf (q;q)_inf^m
      theta             (q^2;q)_inf
      tet2n             Lambda(q) (q^2;q)_inf
    """
    p = read_family(family, params)
    if family == "g_m":
        out, power, m = QSeries.one(order), lambda_series(order), p["m"]
        while m:
            if m & 1:
                out = series_mul(out, power)
            m >>= 1
            if m:
                power = series_mul(power, power)
        return mul_poch_inf(out, 1, order)
    if family == "g_kl":
        psi = psi_general(MonomialArg(1, 2 * p["k"] + 1), MonomialArg(1, 1), order)
        b = MonomialArg(-1 if p["sign_fixed"] else 1, 1)
        f = theta_general(MonomialArg(-1, 2 * p["l"] + 2), b, order)
        return series_mul(psi, f)
    if family == "inadequate_chain":
        return mul_poch_inf(poch_inf(2, order), 1, order, power=p["m"])
    if family == "theta":
        return poch_inf(2, order)
    return mul_poch_inf(lambda_series(order), 2, order)
