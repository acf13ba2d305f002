"""Tail extraction: the "first n coefficients agree" predicate, stabilization
reports for sequence families, and the tail product combinators.

A sequence P_1, P_2, ... of exact skein evaluations has a tail when the
first n coefficients of P_n stabilize up to a common sign, a power of q and
a power of A (the framing).  ``normalize`` alone drops that factor
+-q^s A^r: it divides it out so the lowest term sits at q^0 with a positive
coefficient, and every tail check reads a skein value through it.  The
normalized representative is a complete invariant of the +-q^s A^r orbit,
which makes the agreement predicate a genuine equivalence on prefixes.

Comparing beyond the computed order of a series raises PrecisionError; it
never silently returns False.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import add

from .errors import CapacityError, DomainError, PrecisionError, RepresentationError
from .qcore import (
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
    expanded, so any power of A leaves with the shift.  The result has
    ``order`` coefficients; a series is truncated to it, and a polynomial is
    zero-padded past its span.  Only a Laurent polynomial may omit the
    order: it then keeps its whole span.  The magnitude of the leading
    coefficient is preserved.  Zero input and relative v-exponents that are
    not multiples of 4 raise.
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
        if p.is_zero():
            raise DomainError("cannot normalize zero")
        s = p if order is None else p.with_order(order)
    else:
        raise DomainError(f"cannot normalize {type(p).__name__}")
    cs = list(s.coeffs)
    if cs and cs[0] < 0:
        cs = [-c for c in cs]
    return QSeries(0, cs)


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
    """Series in x = q**(1/2) of a sum of terms, carried far enough for
    q_order q-coefficients past the lowest term: two x-steps per q-step and
    two q-steps spare.

    A product of closed forms is one term (``PochTerm.__mul__`` is exact),
    so this reads every sum of products.  Each term is read through its
    ``series`` only to the end of that window and added into one list;
    no fraction is built and no series is multiplied.  If the lowest terms
    cancel, fewer coefficients than asked are left past the sum's lowest
    nonzero one, and a comparison that needs more raises PrecisionError
    (``agree_to_order``).
    """
    lo = min(t.e for t in terms) // 2
    window = 2 * q_order + 4
    cs = [0] * window
    for t in terms:
        off = t.e // 2 - lo
        if off < window:
            cs[off:] = map(add, cs[off:], t.series(window - off).coeffs)
    return QSeries(lo, cs)


def x_series_to_normalized_q(s: QSeries, q_order: int) -> QSeries:
    """Normalize an x-series and reinterpret it in q; the normalized support
    must lie on even x-powers (odd residues would be a q^(1/2) leftover)."""
    cs = normalize(s).coeffs
    if any(cs[1::2]):
        raise RepresentationError("normalized series has q^(1/2) support")
    return QSeries(0, cs[::2]).with_order(min(q_order, (len(cs) + 1) // 2))


# ---------------------------------------------------------------------------
# Stabilization reports
# ---------------------------------------------------------------------------


class SeriesGenerator:
    """A named, pure rule n -> skein value whose tail is being studied."""

    __slots__ = ("name", "params", "eval")

    def __init__(self, name: str, params: dict, eval: Callable[[int], SkeinValue]):
        self.name = name
        self.params = params
        self.eval = eval

    def normalized(self, n: int) -> QSeries:
        """P_n normalized to n coefficients (zero-padded past a short P_n)."""
        return normalize(self.eval(n), n)


class StabilizationReport:
    """The verdicts P_n = P_{n+1} to n coefficients for n <= n_max, and
    the normalized order-n_max prefix of P_{n_max}."""

    __slots__ = ("generator", "params", "n_max", "verdicts", "tail")

    def __init__(
        self,
        generator: str,
        params: dict,
        n_max: int,
        verdicts: tuple[bool, ...],
        tail: QSeries,
    ):
        self.generator = generator
        self.params = params
        self.n_max = n_max
        self.verdicts = verdicts
        self.tail = tail

    @property
    def all_stable(self) -> bool:
        return all(self.verdicts)

    def to_json_obj(self) -> dict:
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "n_max": self.n_max,
            "verdicts": list(self.verdicts),
            "tail": self.tail.to_json_obj(),
        }


def stabilization_report(g: SeriesGenerator, n_max: int) -> StabilizationReport:
    """Check P_n = P_{n+1} on the first n coefficients for n <= n_max.

    The tail field is the normalized order-n_max prefix of P_{n_max}.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    values = [g.normalized(n) for n in range(1, n_max + 2)]
    verdicts = []
    for n in range(1, n_max + 1):
        verdicts.append(agree_to_order(values[n - 1], values[n], n))
    tail = values[n_max - 1]
    return StabilizationReport(
        generator=g.name,
        params=dict(g.params),
        n_max=n_max,
        verdicts=tuple(verdicts),
        tail=tail,
    )


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
    return QSeries(prod.shift, cs)


# ---------------------------------------------------------------------------
# Named graph families with known tails
# ---------------------------------------------------------------------------


# Largest m of the g_m and inadequate_chain families, checked before any
# series is built.  Each unit of m is one more dense series product (g_m) or
# one more pass of (q;q)_inf (inadequate_chain), so the time grows linearly
# in m: at MAX_SERIES_ORDER, g_m takes 8.6-8.7 s at m = 5 (two runs) and
# 10.2 s at 6, inadequate_chain 3.0 s at 5 (2 cores, CPython 3.11.7), while
# m = 10**5 takes 2.8 s (g_m) and 1.9 s (inadequate_chain) already at
# order 20.
MAX_FAMILY_M = 5


def graph_family_tail(family: str, params: dict, order: int) -> QSeries:
    """The stated tail of a named graph family, truncated to the order.

    Families:
      g_m               wheel of m triangles: Lambda(q)^m (q;q)_inf
      g_kl              Psi(q^(2k+1), q) * f(-q^(2l+2), q); pass
                        sign_fixed=1 for the f(-q^(2l+2), -q) reading
      inadequate_chain  (q^2;q)_inf (q;q)_inf^m
      theta             (q^2;q)_inf
      tet2n             Lambda(q) (q^2;q)_inf
    """
    if family in ("g_m", "inadequate_chain"):
        m = int(params["m"])
        if m < 0:
            raise DomainError(f"{family} needs m >= 0")
        if m > MAX_FAMILY_M:
            raise CapacityError(f"m {m} exceeds limit {MAX_FAMILY_M}")
    if family == "g_m":
        out = QSeries.one(order)
        lam = lambda_series(order)
        for _ in range(m):
            out = series_mul(out, lam)
        return mul_poch_inf(out, 1, order)
    if family == "g_kl":
        k = int(params["k"])
        l = int(params.get("l", 0))
        if k < 1 or l < 0:
            raise DomainError("g_kl needs k >= 1 and l >= 0")
        psi = psi_general(MonomialArg(1, 2 * k + 1), MonomialArg(1, 1), order)
        b_sign = -1 if int(params.get("sign_fixed", 0)) else 1
        f = theta_general(MonomialArg(-1, 2 * l + 2), MonomialArg(b_sign, 1), order)
        return series_mul(psi, f)
    if family == "inadequate_chain":
        return mul_poch_inf(poch_inf(2, order), 1, order, power=m)
    if family == "theta":
        return poch_inf(2, order)
    if family == "tet2n":
        return mul_poch_inf(lambda_series(order), 2, order)
    raise DomainError(f"unknown graph family {family!r}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def torus_jones_generator(f: int) -> SeriesGenerator:
    """n -> normalized colored Jones of the (2, f) torus link, read only to
    the n coefficients ``SeriesGenerator.normalized`` keeps."""
    from .skein_formulas import colored_jones_torus

    return SeriesGenerator(
        name="torus_jones",
        params={"f": f},
        eval=lambda n: colored_jones_torus(f, n, order=n),
    )
