"""Exact arithmetic core: Laurent polynomials in v, their fractions, and
truncated q-power series.

Everything downstream computes in the single variable v with

    A = v,   q = v**4,

so that quantities like q**(1/2) (v**2) or q**((n*n - n)/4) (v**(n*n - n))
always have integer v-exponents and no fractional powers ever appear.
Coefficients are exact integers: a Laurent polynomial lives in
Z[v, v**-1], a rational function is a pair of such polynomials, and a
q-series lives in Z[[q]], from q^0: a non-integer coefficient raises,
and ``series_div`` divides only by a series whose constant term is +-1.
There is no floating point anywhere in this package.

Every series has a finite order, the number of coefficients it knows.  A
polynomial or rational function of v becomes a series in q = v**4 only at
an order its caller states, through one kernel that refuses a v-exponent
not a multiple of 4, so a fractional power of q is never stored; dropping
the framing power of A is left to ``tails_engine.normalize``.  (The
kernel's v-step 2, ``to_x_series``, is kept for the benchmark's span
table; nothing in the package calls it.)

Four value types live here:

* ``VLaurent``    -- a sparse, exact Laurent polynomial in v.
* ``VFraction``   -- an exact ratio of two VLaurent values (skein evaluations
                     of closed networks with projectors are rational
                     functions of A, not polynomials).
* ``QSeries``     -- a formal power series in q over Z from q^0,
                     truncated at a finite order; the value type of
                     tails and q-identities.
* ``PochTerm``    -- c v^e prod (1 - q^a)^k, in canonical form: the value of
                     every single-term closed form.

The quantum/number-theoretic primitives (quantum integers, Delta_n,
quantum factorials, q-Pochhammer symbols, q-binomials) are built on top.
Every finite product of quantum integers [a] and Pochhammer factors
(1 - q^a), every exact quotient of two such products, and every exact
division of a Laurent polynomial by such a product, is one call of one
kernel, ``mul_poch_ratio(p, ups, downs)`` (``poch_ratio`` is its case
p = 1), on one dense coefficient list in q per v-exponent residue mod 4:
one O(degree) pass per factor instead of a chain of VLaurent products or a
long division.  A signed power of v times such a ratio is a ``PochTerm``,
stored as its canonical exponent -> count dict (``_net``, the one place
where factors on both sides cancel): equal terms compare equal with no
polynomial built, ``exact()`` is one fraction over the term's factors
below, and ``series(order)``, the value divided by v^e as a q-series, is
one dense list that stops at that order.  ``poch_sum`` puts several terms
over their least common Pochhammer denominator.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    ConsistencyError,
    DivergentProductError,
    DomainError,
    PrecisionError,
    RepresentationError,
)

# Largest truncation order a series may be asked for.  A series of order N
# allocates N coefficients up front, and (q;q)_inf to order 5000 takes about
# a second, so this bounds memory, not the run time of deep multi-sums.
MAX_SERIES_ORDER = 5000

# VLaurent products of at least this many term pairs, len(a) * len(b), whose
# shorter operand has at least KRONECKER_MIN_TERMS terms go through Kronecker
# substitution (_kronecker_mul); otherwise the dict double loop is faster.
# Chosen by timing both on the products of the verify suites (README,
# "Performance notes").
KRONECKER_MIN_PAIRS = 256
KRONECKER_MIN_TERMS = 8


# ---------------------------------------------------------------------------
# VLaurent
# ---------------------------------------------------------------------------


class VLaurent:
    """Sparse exact Laurent polynomial in v (A = v, q = v**4) over Z.

    Invariants: every stored coefficient is a nonzero ``int``; the zero
    polynomial is the empty mapping.  Instances are immutable; all
    arithmetic is exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, int):
                    raise DomainError(f"Laurent coefficient {c!r} is not an integer")
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "VLaurent":
        return VLaurent()

    @staticmethod
    def one() -> "VLaurent":
        return VLaurent({0: 1})

    @staticmethod
    def monomial(coeff: int, v_exp: int) -> "VLaurent":
        return VLaurent({v_exp: coeff})

    @staticmethod
    def q_power(q_exp: int, coeff: int = 1) -> "VLaurent":
        """coeff * q**q_exp, i.e. coeff * v**(4*q_exp)."""
        return VLaurent({4 * q_exp: coeff})

    @staticmethod
    def from_q_dict(qterms: Mapping[int, int]) -> "VLaurent":
        return VLaurent({4 * e: c for e, c in qterms.items()})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise DomainError("zero polynomial has no minimal exponent")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise DomainError("zero polynomial has no maximal exponent")
        return max(self.terms)

    def coeff(self, v_exp: int) -> int:
        return self.terms.get(v_exp, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = VLaurent({0: other})
        if not isinstance(other, VLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its coefficient, so it must hash like it too.
        if not self.terms.keys() - {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "VLaurent") -> "VLaurent":
        if not isinstance(other, VLaurent):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = VLaurent.__new__(VLaurent)
        res.terms = out
        return res

    def __neg__(self) -> "VLaurent":
        res = VLaurent.__new__(VLaurent)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "VLaurent") -> "VLaurent":
        return self + (-other)

    def __mul__(self, other: "VLaurent | int") -> "VLaurent":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, VLaurent):
            return NotImplemented
        a, b = self.terms, other.terms
        if (
            len(a) * len(b) >= KRONECKER_MIN_PAIRS
            and min(len(a), len(b)) >= KRONECKER_MIN_TERMS
        ):
            out = _kronecker_mul(a, b)
        else:
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    s = get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        res = VLaurent.__new__(VLaurent)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, c: int) -> "VLaurent":
        if not isinstance(c, int):
            raise DomainError(f"Laurent scalar {c!r} is not an integer")
        if not c:
            return VLaurent()
        res = VLaurent.__new__(VLaurent)
        res.terms = {e: k * c for e, k in self.terms.items()}
        return res

    def shift(self, v_exp: int) -> "VLaurent":
        """Multiply by v**v_exp."""
        res = VLaurent.__new__(VLaurent)
        res.terms = {e + v_exp: c for e, c in self.terms.items()}
        return res

    def __pow__(self, n: int) -> "VLaurent":
        if n < 0:
            raise DomainError("negative powers need VFraction")
        out = VLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def mirror(self) -> "VLaurent":
        """Substitute v -> v**-1 (mirror image of a skein evaluation)."""
        return VLaurent({-e: c for e, c in self.terms.items()})

    # -- division ------------------------------------------------------------

    def divmod_by(self, other: "VLaurent") -> tuple["VLaurent", "VLaurent"]:
        """Long division in Z[v]; Laurent shifts are normalized away first.

        The division stops, leaving a nonzero remainder, at the first step
        whose leading coefficient the divisor's does not divide, so the
        quotient and remainder stay integral: q * other + r == self.
        """
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        if self.is_zero():
            return VLaurent(), VLaurent()
        # Shift both to ordinary polynomials with valuation 0.
        sa, sb = self.min_exp(), other.min_exp()
        num = {e - sa: c for e, c in self.terms.items()}
        den = {e - sb: c for e, c in other.terms.items()}
        dden = max(den)
        lead = den[dden]
        quot: dict[int, int] = {}
        rem = dict(num)
        while rem:
            drem = max(rem)
            if drem < dden:
                break
            f, inexact = divmod(rem[drem], lead)
            if inexact:
                break
            quot[drem - dden] = f
            for e, c in den.items():
                k = e + drem - dden
                s = rem.get(k, 0) - f * c
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        q = VLaurent(quot).shift(sa - sb)
        r = VLaurent(rem).shift(sa)
        return q, r

    def div_exact(self, other: "VLaurent") -> "VLaurent":
        """Exact division; a nonzero remainder raises ConsistencyError."""
        q, r = self.divmod_by(other)
        if not r.is_zero():
            raise ConsistencyError("expected exact polynomial division")
        return q

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"VLaurent({self.format()})"

    def format(self, var: str = "v") -> str:
        return _format_terms(sorted(self.terms.items(), reverse=True), var)

    def to_json_obj(self) -> dict:
        return {
            "variable": "v",
            "terms": [[e, c, 1] for e, c in sorted(self.terms.items())],
        }


def kronecker_width(bound: int) -> int:
    """Bytes per Kronecker slot for coefficients of absolute value <= bound.

    A slot of W = 8 * width bits holds one coefficient c as a balanced
    digit, |c| < 2**(W-1), so the smallest width with 2**(W-1) > bound.
    """
    return (bound.bit_length() + 8) // 8


def kronecker_pack(terms: Mapping[int, int], e0: int, g: int, width: int) -> int:
    """Kronecker substitution v -> X = 2**(8*width): sum c * X**((e - e0) / g).

    Every exponent is e0 plus a multiple of g.  Slots are written as
    unsigned bytes holding c + 2**(W-1), and the biases are subtracted
    again in one step, so the result is the exact (possibly negative)
    integer.  Sums and products of packed values are plain int arithmetic:
    they stay readable by ``kronecker_unpack`` while every coefficient of
    the result, not of the steps, fits its slot.
    """
    bias = 1 << (8 * width - 1)
    zero = bias.to_bytes(width, "little")  # a slot holding coefficient 0
    slots = [zero] * ((max(terms) - e0) // g + 1)
    for e, c in terms.items():
        slots[(e - e0) // g] = (c + bias).to_bytes(width, "little")
    return int.from_bytes(b"".join(slots), "little") - int.from_bytes(
        zero * len(slots), "little"
    )


def kronecker_unpack(value: int, e0: int, g: int, width: int) -> dict[int, int]:
    """The nonzero terms {e0 + g*k: c} of a packed value, by balanced digits.

    Slot k holds the coefficient of X**k as a W-bit digit; every
    coefficient must have |c| < 2**(W-1) (``kronecker_width``).  One bias
    per slot makes every digit nonnegative, so the bytes are read without
    carries.  With the highest nonzero slot at k, |value| > 2**(W*k - 1)
    (the lower slots add up to less than X**k / 2), so bit_length // W + 1
    slots hold every digit.
    """
    if not value:
        return {}
    bias = 1 << (8 * width - 1)
    zero = bias.to_bytes(width, "little")
    n = abs(value).bit_length() // (8 * width) + 1
    raw = (value + int.from_bytes(zero * n, "little")).to_bytes(n * width, "little")
    out = {}
    for k in range(n):
        c = int.from_bytes(raw[k * width : (k + 1) * width], "little") - bias
        if c:
            out[e0 + g * k] = c
    return out


def _kronecker_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two nonempty term dicts by Kronecker substitution.

    With g the gcd of all exponent differences, each operand is packed into
    one integer and one bigint multiply gives every product coefficient in
    its own slot.  A product coefficient is a sum of at most
    min(len(a), len(b)) terms c1 * c2, which bounds the slot width.
    """
    ea, eb = min(a), min(b)
    g = math.gcd(*[e - ea for e in a], *[e - eb for e in b]) or 1
    width = kronecker_width(_max_abs(a) * _max_abs(b) * min(len(a), len(b)))
    prod = kronecker_pack(a, ea, g, width) * kronecker_pack(b, eb, g, width)
    return kronecker_unpack(prod, ea + eb, g, width)


def _max_abs(terms: dict[int, int]) -> int:
    return max(max(terms.values()), -min(terms.values()))


def _format_terms(
    terms: Iterable[tuple[int, int]], var: str, max_terms: float = math.inf
) -> str:
    """Signed ``c*var^e`` terms in the given order, zeros skipped; "+ ..."
    follows the ``max_terms``-th term shown, and no term at all is "0"."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            pw = var if e == 1 else f"{var}^{e}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        parts.append(("- " if c < 0 else "+ ") + body)
        if len(parts) >= max_terms:
            parts.append("+ ...")
            break
    if not parts:
        return "0"
    text = " ".join(parts)
    return ("-" if text[0] == "-" else "") + text[2:]


V_LOOP = VLaurent({2: -1, -2: -1})  # the loop value delta = -A**2 - A**-2
_ONE_TERMS_DEN = VLaurent.one()


@lru_cache(maxsize=None)
def loop_power(k: int) -> VLaurent:
    """delta**k, the value of k disjoint loops, built once per k."""
    return V_LOOP**k


# ---------------------------------------------------------------------------
# VFraction
# ---------------------------------------------------------------------------


def _strip_valuation_and_content(r: list[int]) -> list[int]:
    """Dense coefficient list with leading and trailing zeros and the
    integer content removed."""
    lo = 0
    while lo < len(r) and r[lo] == 0:
        lo += 1
    hi = len(r)
    while hi > lo and r[hi - 1] == 0:
        hi -= 1
    r = r[lo:hi]
    content = 0
    for c in r:
        content = math.gcd(content, c)
    if content > 1:
        r = [c // content for c in r]
    return r


def _poly_gcd(a: VLaurent, b: VLaurent) -> VLaurent:
    """Primitive gcd in Z[v], with positive leading coefficient, of two
    Laurent polynomials (shifts ignored).

    Computed by a primitive pseudo-remainder sequence over the integers, on
    the coefficients at stride g, the gcd of every exponent's offset from
    its polynomial's lowest one: both inputs are polynomials in v^g (up to
    their shifts), and so is their gcd.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    lo_a, lo_b = a.min_exp(), b.min_exp()
    g = math.gcd(*(e - lo_a for e in a.terms), *(e - lo_b for e in b.terms)) or 1
    x, y = (
        _strip_valuation_and_content(
            [p.terms.get(e, 0) for e in range(lo, p.max_exp() + 1, g)]
        )
        for p, lo in ((a, lo_a), (b, lo_b))
    )
    if len(y) > len(x):
        x, y = y, x
    while y:
        if len(y) == 1:  # a nonzero constant: the polynomials are coprime
            x = [1]
            break
        r = _pseudo_mod(x, y)
        x, y = y, _strip_valuation_and_content(r)
    sign = 1 if x[-1] > 0 else -1
    return VLaurent({g * e: sign * c for e, c in enumerate(x)})


def _pseudo_mod(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of u by v over the integers (v nonzero)."""
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(r) - 1 >= dv:
        c = r[-1]
        if c == 0:
            r.pop()
            continue
        if lv in (1, -1):
            f = c * lv
        else:
            r = [lv * t for t in r]
            f = c
        off = len(r) - 1 - dv
        for j in range(dv + 1):
            r[off + j] -= f * v[j]
        while r and r[-1] == 0:
            r.pop()
    return r


class VFraction:
    """Exact ratio of two integer VLaurent polynomials.

    The denominator always has valuation 0 and a positive leading
    coefficient, and num and den share no integer content.  No polynomial
    gcd is taken when a value is built, because the Euclidean gcd would
    dominate the runtime, so equal values may be stored differently.
    Equality compares numerators when the stored denominators are equal
    and goes through cross-multiplication otherwise; ``reduced()`` gives the
    canonical gcd-reduced form, which hashing and the oracle's printed value
    use.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: VLaurent, den: VLaurent | None = None):
        den = VLaurent.one() if den is None else den
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            self.num = VLaurent()
            self.den = VLaurent.one()
            return
        # Move the denominator's v-shift into the numerator, then divide out
        # the common integer content and give den a positive lead.
        s = den.min_exp()
        if s:
            den = den.shift(-s)
            num = num.shift(-s)
        content = math.gcd(*num.terms.values(), *den.terms.values())
        if den.terms[den.max_exp()] < 0:
            content = -content
        if content != 1:
            den = VLaurent({e: c // content for e, c in den.terms.items()})
            num = VLaurent({e: c // content for e, c in num.terms.items()})
        self.num = num
        self.den = den

    def reduced(self) -> "VFraction":
        """The canonical form: num and den divided by their gcd, so that
        equal values give equal (num, den)."""
        # g is primitive, so by Gauss's lemma it divides num and den in Z.
        g = _poly_gcd(self.num, self.den)
        if g.terms == {0: 1}:
            return self
        return VFraction(self.num.div_exact(g), self.den.div_exact(g))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_poly(p: VLaurent) -> "VFraction":
        f = VFraction.__new__(VFraction)
        f.num = p
        f.den = VLaurent.one()
        return f

    @staticmethod
    def zero() -> "VFraction":
        return VFraction.from_poly(VLaurent())

    @staticmethod
    def one() -> "VFraction":
        return VFraction.from_poly(VLaurent.one())

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        """True when the stored denominator is 1; ``reduced().is_poly()``
        tells whether the value is a Laurent polynomial."""
        return self.den == VLaurent.one()

    def to_vlaurent(self) -> VLaurent:
        if self.den == VLaurent.one():
            return self.num
        q, r = self.num.divmod_by(self.den)
        if not r.is_zero():
            raise ConsistencyError("value is not a Laurent polynomial")
        return q

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VLaurent):
            other = VFraction.from_poly(other)
        if isinstance(other, int):
            other = VFraction.from_poly(VLaurent({0: other}))
        if not isinstance(other, VFraction):
            return NotImplemented
        if self.den == other.den:
            # a / d = b / d exactly when a = b: no products needed.
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        # Hash the canonical form, so that equal values (which may be stored
        # differently) hash equal, and a polynomial hashes like its VLaurent.
        r = self.reduced()
        return hash(r.num) if r.is_poly() else hash((r.num, r.den))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x: "VFraction | VLaurent | int") -> "VFraction":
        if isinstance(x, VFraction):
            return x
        if isinstance(x, VLaurent):
            return VFraction.from_poly(x)
        return VFraction.from_poly(VLaurent({0: x}))

    def __add__(self, other) -> "VFraction":
        o = self._coerce(other)
        if self.den == o.den:
            return VFraction(self.num + o.num, self.den)
        return VFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "VFraction":
        f = VFraction.__new__(VFraction)
        f.num = -self.num
        f.den = self.den
        return f

    def __sub__(self, other) -> "VFraction":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "VFraction":
        o = self._coerce(other)
        if self.den == _ONE_TERMS_DEN and o.den == _ONE_TERMS_DEN:
            return VFraction.from_poly(self.num * o.num)
        return VFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "VFraction":
        o = self._coerce(other)
        if o.is_zero():
            raise DomainError("division by zero")
        return VFraction(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "VFraction":
        if n < 0:
            return VFraction(self.den, self.num) ** (-n)
        return VFraction(self.num**n, self.den**n)

    def __repr__(self) -> str:
        if self.is_poly():
            return f"VFraction({self.num.format()})"
        return f"VFraction(({self.num.format()}) / ({self.den.format()}))"


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated formal power series in q over Z, from q^0.

    Coefficients are ``int``: tails and q-identities live in Z[[q]], and
    any other coefficient raises DomainError, as in VLaurent.

    ``coeffs[j]`` is the coefficient of q**j: a series never carries an
    offset, and leading zeros are kept.  ``order`` is the number of
    retained coefficients, and it is always finite: a coefficient past it
    is unknown, never zero.  A polynomial becomes a series only at a stated
    order (``to_q_series(p, order)``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise DomainError(f"series coefficient {c!r} is not an integer")
        self.coeffs = cs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries([0] * order)

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries([1] + [0] * (order - 1)).with_order(order)

    # -- inspection ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, q_exp: int) -> int:
        """Coefficient of q**q_exp; raises PrecisionError beyond the order."""
        if q_exp >= len(self.coeffs):
            raise PrecisionError(f"coefficient of q^{q_exp} not computed")
        return self.coeffs[q_exp] if q_exp >= 0 else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- order management ----------------------------------------------------

    def with_order(self, order: int) -> "QSeries":
        """Truncate to the given order, which must not exceed the own one."""
        if order < 0:
            raise DomainError("order must be non-negative")
        if order > len(self.coeffs):
            raise PrecisionError(
                f"series known to order {len(self.coeffs)}, requested {order}"
            )
        return QSeries(self.coeffs[:order])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        return QSeries(map(operator.add, self.coeffs, other.coeffs))

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries | int") -> "QSeries":
        if isinstance(other, int):
            return QSeries([c * other for c in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        return series_mul(self, other)

    __rmul__ = __mul__

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"QSeries({self.format()})"

    def format(self, max_terms: int = 12) -> str:
        return _format_terms(enumerate(self.coeffs), "q", max_terms)

    def to_json_obj(self) -> dict:
        return {
            "variable": "q",
            # Every series starts at q^0; the key stays so that the JSON
            # a series prints keeps its shape.
            "shift": 0,
            "order": self.order,
            "coefficients": [[c, 1] for c in self.coeffs],
        }


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product; the result order is min of the operand orders."""
    n = min(len(a.coeffs), len(b.coeffs))
    cs = [0] * n
    for i, ca in enumerate(a.coeffs):
        if ca == 0 or i >= n:
            continue
        for j, cb in enumerate(b.coeffs):
            k = i + j
            if k >= n:
                break
            cs[k] += ca * cb
    return QSeries(cs)


def series_div(a: QSeries, b: QSeries) -> QSeries:
    """Long division a / b to the smaller of the two orders.

    ``b`` must have constant term +-1, which keeps the quotient in Z[[q]];
    only a divisor that stores no coefficient (order 0) goes unchecked, and
    gives the empty quotient.
    """
    if b.coeffs:
        b0 = b.coeffs[0]
        if b.is_zero():
            raise DomainError("division by zero series")
        if b0 not in (1, -1):
            raise DomainError(f"series divisor starts with {b0}, not +-1")
    n = min(len(a.coeffs), len(b.coeffs))
    # Only the nonzero terms of b past b0 enter the recurrence: the cost is
    # O(n) per nonzero term, so a polynomial zero-padded to the order costs
    # no more than its own terms.
    terms = [(j, c) for j, c in enumerate(b.coeffs[1:n], 1) if c]
    out = []  # empty at n = 0
    for k, acc in enumerate(a.coeffs[:n]):
        for j, c in terms:
            if j > k:
                break
            acc -= c * out[k - j]
        out.append(acc * b0)
    return QSeries(out)


def _to_series(p: VLaurent, order: int, step: int) -> QSeries:
    """p divided by its lowest power of v, as a series in v**step to
    ``order`` coefficients; every v-exponent must be a multiple of the step."""
    if p.is_zero():
        raise DomainError("cannot view the zero polynomial as a pointed series")
    bad = [e for e in p.terms if e % step]
    if bad:
        raise RepresentationError(
            f"v-exponent {min(bad)} is not a multiple of {step} "
            f"({'q' if step == 4 else 'x'} = v^{step})"
        )
    if order < 0:
        raise DomainError("order must be non-negative")
    e0 = p.min_exp()
    cs = [0] * order
    for e, c in p.terms.items():
        j = (e - e0) // step
        if j < order:
            cs[j] = c
    return QSeries(cs)


def _fraction_to_series(f: VFraction, order: int, step: int) -> QSeries:
    """f expanded as a series in v**step to the given order.

    The division needs a denominator whose lowest coefficient is +-1.  The
    stored form is not gcd-reduced, so a factor common to num and den can
    give it another one; only then is f reduced first.  Values whose stored
    denominator already starts with +-1 never run a gcd.  The denominator
    keeps at least its lowest coefficient, so a non-unit one is refused even
    at order 0.
    """
    if f.is_zero():
        return QSeries.zero(order)
    if f.den.terms[f.den.min_exp()] not in (1, -1):
        f = f.reduced()
    return series_div(
        _to_series(f.num, order, step), _to_series(f.den, max(order, 1), step)
    )


def to_q_series(p: VLaurent, order: int) -> QSeries:
    """The first ``order`` coefficients of a v-Laurent polynomial as a q-series,
    counted from its lowest term, whose power of q is dropped (zero-padded
    past its highest).

    Every v-exponent must be a multiple of 4, or RepresentationError names
    the first one that is not.  A value that is a q-series only up to a
    power of A is moved first (``tails_engine.normalize`` does that).
    """
    return _to_series(p, order, 4)


def fraction_to_q_series(f: VFraction, order: int) -> QSeries:
    """Expand an exact rational function of v as a q-series to given order,
    after the lowest powers of q of its numerator and denominator are
    dropped."""
    return _fraction_to_series(f, order, 4)


def to_x_series(p: VLaurent, order: int) -> QSeries:
    """A polynomial with even v-support as a series in x = q**(1/2) = v**2,
    to ``order`` coefficients counted from its lowest term, whose power of
    x is dropped.

    No code in the package calls it: ``perfbench/spans.py`` looks it up by
    name (ROADMAP item 14).
    """
    return _to_series(p, order, 2)


def fraction_to_x_series(f: VFraction, order: int) -> QSeries:
    """Expand an exact rational function of v as a series in x = q**(1/2);
    kept, with no caller in the package, for ``perfbench/spans.py``."""
    return _fraction_to_series(f, order, 2)


# ---------------------------------------------------------------------------
# Quantum / number-theoretic primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def quantum_int(n: int) -> VLaurent:
    """Symmetric quantum integer [n] = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2)).

    [0] = 0 and [n] = v^(2(n-1)) + v^(2(n-3)) + ... + v^(-2(n-1)); all
    v-exponents are even.
    """
    if n < 0:
        raise DomainError("quantum_int needs n >= 0")
    return VLaurent({2 * (n - 1 - 2 * j): 1 for j in range(n)})


def delta_n(n: int) -> VLaurent:
    """Delta_n = (-1)^n [n+1], the loop value of the closed n-colored projector."""
    if n < 0:
        raise DomainError("delta_n needs n >= 0")
    v = quantum_int(n + 1)
    return -v if n % 2 else v


def mul_one_minus_qk(cs: list, k: int) -> None:
    """Multiply the coefficient list cs by (1 - q^k) in place, modulo
    q^len(cs): one shifted difference, in O(len(cs))."""
    cs[k:] = map(operator.sub, cs[k:], cs[: len(cs) - k])


def div_one_minus_qk(cs: list, k: int) -> None:
    """Divide the coefficient list cs by (1 - q^k) in place, modulo
    q^len(cs), k >= 1: one running sum per residue class mod k, in
    O(len(cs))."""
    if k < 1:
        raise DomainError("dividing by (1 - q^k) needs k >= 1")
    for r in range(min(k, len(cs))):
        cs[r::k] = accumulate(cs[r::k])


def _net(ups: Iterable[int], downs: Iterable[int]) -> dict[int, int]:
    """The factors of a Pochhammer ratio as one exponent -> net count dict:
    +1 per factor (1 - q^a) above and -1 per factor below, so a factor on
    both sides cancels in one pass over plain ints, and a zero count is
    dropped.  Every exponent given, also one that cancels, must be at least
    1, or DomainError is raised.
    """
    net: dict[int, int] = {}
    for a in ups:
        net[a] = net.get(a, 0) + 1
    for b in downs:
        net[b] = net.get(b, 0) - 1
    if min(net, default=1) < 1:
        raise DomainError("poch_ratio needs factors (1 - q^a) with a >= 1")
    return {a: k for a, k in net.items() if k}


def mul_poch_ratio(
    p: VLaurent, ups: Iterable[int], downs: Iterable[int]
) -> VLaurent:
    """p * prod_{a in ups} (1 - q^a) / prod_{b in downs} (1 - q^b) for two
    multisets of exponents >= 1, when the result is a Laurent polynomial.

    A factor on both sides cancels first.  Since q = v^4, the factors act on
    each v-exponent residue class of p mod 4 alone, so each class is one
    dense coefficient list in q: multiplying by (1 - q^a) is one shifted
    difference, and dividing by (1 - q^b) is one running sum per residue
    class mod b, so every factor costs one O(degree) pass.  All ups are
    applied before any division, so a result that is a polynomial divides
    exactly at every step; a division that leaves a remainder (its top b
    quotient coefficients are not all zero) raises ConsistencyError.
    """
    net = _net(ups, downs)
    keys = sorted(net)
    ups = [a for a in keys for _ in range(net[a])]
    downs = [b for b in reversed(keys) for _ in range(-net[b])]
    classes: dict[int, dict[int, int]] = {}
    for e, c in p.terms.items():
        classes.setdefault(e % 4, {})[e] = c
    out: dict[int, int] = {}
    for terms in classes.values():
        e0 = min(terms)
        cs = [0] * ((max(terms) - e0) // 4 + 1)
        for e, c in terms.items():
            cs[(e - e0) // 4] = c
        for a in ups:
            cs += [0] * a
            mul_one_minus_qk(cs, a)
        for b in downs:
            div_one_minus_qk(cs, b)
            if any(cs[-b:]):
                raise ConsistencyError(f"(1 - q^{b}) does not divide the product")
            del cs[-b:]
        out.update((e0 + 4 * j, c) for j, c in enumerate(cs) if c)
    res = VLaurent.__new__(VLaurent)
    res.terms = out
    return res


def poch_ratio(ups: Iterable[int], downs: Iterable[int]) -> VLaurent:
    """prod_{a in ups} (1 - q^a) / prod_{b in downs} (1 - q^b), a polynomial
    in q: ``mul_poch_ratio`` of 1."""
    return mul_poch_ratio(_ONE_TERMS_DEN, ups, downs)


class PochTerm:
    """c v^e prod_a (1 - q^a)^net[a]: a nonzero integer times a power of v
    times a ratio of Pochhammer factors, the value of every single-term
    closed form in ``skein_formulas``.

    ``PochTerm(c, e, ups, downs)`` puts each factor (1 - q^a), a in ups,
    above and each (1 - q^b), b in downs, below; ``net`` is their
    exponent -> count dict from ``_net``, with no zero count.  The factors
    (1 - q^a) are multiplicatively independent: at a primitive a-th root of
    unity, of the factors with exponents up to a only (1 - q^a) vanishes,
    and simply.  As c is the value's lowest coefficient, (c, e, net) is
    canonical, and ``==`` and ``hash`` are exact value equality with no
    polynomial built.  Zero has no such form and is refused.  Instances are
    immutable.
    """

    __slots__ = ("c", "e", "net")

    def __init__(
        self, c: int, e: int, ups: Iterable[int] = (), downs: Iterable[int] = ()
    ):
        if not isinstance(c, int) or not c:
            raise DomainError(f"a PochTerm needs a nonzero integer, got {c!r}")
        self.c, self.e, self.net = c, e, _net(ups, downs)

    def _combined(self, c: int, other: "PochTerm", sign: int) -> "PochTerm":
        """c times v^e and the factors of self, times (sign 1) or divided by
        (sign -1) v^e and the factors of other."""
        net = dict(self.net)
        for a, k in other.net.items():
            k = net.get(a, 0) + sign * k
            if k:
                net[a] = k
            else:
                del net[a]
        out = PochTerm.__new__(PochTerm)
        out.c, out.e, out.net = c, self.e + sign * other.e, net
        return out

    def __mul__(self, other: "PochTerm") -> "PochTerm":
        if not isinstance(other, PochTerm):
            return NotImplemented
        return self._combined(self.c * other.c, other, 1)

    def __truediv__(self, other: "PochTerm") -> "PochTerm":
        """Exact division; a coefficient that other's does not divide
        raises DomainError."""
        if not isinstance(other, PochTerm):
            return NotImplemented
        c, r = divmod(self.c, other.c)
        if r:
            raise DomainError(f"{self.c} is not a multiple of {other.c}")
        return self._combined(c, other, -1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PochTerm):
            return NotImplemented
        return (self.c, self.e, self.net) == (other.c, other.e, other.net)

    def __hash__(self) -> int:
        return hash((self.c, self.e, frozenset(self.net.items())))

    def __repr__(self) -> str:
        return f"PochTerm({self.c}, {self.e}, {dict(sorted(self.net.items()))})"

    def exact(self) -> VFraction:
        """The value as one cancelled fraction: ``poch_sum`` of this term."""
        return poch_sum([self])

    def series(self, order: int) -> QSeries:
        """The value divided by v^e, c prod_a (1 - q^a)^net[a], as a
        series in q to ``order`` coefficients, from one dense list.

        A factor (1 - q^a) with a at or past the order is 1 modulo q^order
        and is never applied, as in ``poch_inf``, so the truncation is
        exact; each other one is one ``mul_one_minus_qk`` or
        ``div_one_minus_qk`` pass per unit of its count.  No polynomial of
        the full degree is built.
        """
        if order < 0:
            raise DomainError("order must be non-negative")
        cs = [self.c] + [0] * (order - 1) if order else []
        for a, k in self.net.items():
            if a < order:
                apply = mul_one_minus_qk if k > 0 else div_one_minus_qk
                for _ in range(abs(k)):
                    apply(cs, a)
        return QSeries(cs)


def poch_sum(terms: Sequence[PochTerm]) -> VFraction:
    """The sum of one or more terms as one polynomial over their least
    common Pochhammer denominator, with no gcd.

    The denominator has each (1 - q^b) as often as the most any term has it
    below, so its constant term is +-1 and expanding the value as a series
    needs no gcd.  Each term's numerator is its factors above times the
    denominator's factors it lacks: one ``mul_poch_ratio`` call with no
    division.
    """
    down: dict[int, int] = {}
    for t in terms:
        for b, k in t.net.items():
            if -k > down.get(b, 0):
                down[b] = -k
    nums = []
    for t in terms:
        up = dict(down)
        for a, k in t.net.items():
            up[a] = up.get(a, 0) + k
        ups = [a for a, k in up.items() for _ in range(k)]
        nums.append(mul_poch_ratio(VLaurent.monomial(t.c, t.e), ups, ()))
    first, *rest = nums
    downs = [b for b, k in down.items() for _ in range(k)]
    return VFraction(sum(rest, first), poch_ratio(downs, ()))


def quantum_product(args: Iterable[int]) -> VLaurent:
    """prod_{a in args} [a] for a multiset of a >= 1, through one
    ``poch_ratio``: [a] = v^(-2(a-1)) (1 - q^a) / (1 - q)."""
    args = list(args)
    return poch_ratio(args, [1] * len(args)).shift(-2 * sum(a - 1 for a in args))


@lru_cache(maxsize=None)
def quantum_fact(n: int) -> VLaurent:
    """[n]! = [1][2]...[n]; the empty product is 1."""
    if n < 0:
        raise DomainError("quantum_fact needs n >= 0")
    return quantum_product(range(1, n + 1))


def poch_finite(sign: int, c: int, n: int) -> VLaurent:
    """Finite q-Pochhammer (sign*q^c; q)_n = prod_{j<n} (1 - sign*q^(c+j))
    for c >= 1; a factor (1 + q^a) is (1 - q^(2a)) / (1 - q^a)."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if n < 0:
        raise DomainError("poch_finite needs n >= 0")
    if c < 1:
        raise DomainError("poch_finite needs c >= 1")
    exps = range(c, c + n)
    if sign == 1:
        return poch_ratio(exps, ())
    return poch_ratio([2 * a for a in exps], exps)


def poch_inf(c: int, order: int) -> QSeries:
    """(q^c; q)_infinity truncated to the given number of coefficients.

    Only the factors with c + j < order are applied: the others are 1 modulo
    q^order, so the truncation is provably exact.
    """
    if c <= 0:
        raise DivergentProductError("(q^c; q)_inf needs c >= 1")
    return poch_inf_step(c, 1, order)


def poch_inf_step(c: int, step: int, order: int) -> QSeries:
    """(q^c; q^step)_infinity truncated: prod_j (1 - q^(c + j*step))."""
    return mul_poch_inf(QSeries.one(order), c, order, step=step)


def mul_poch_inf(
    s: QSeries, c: int, order: int, *, step: int = 1, power: int = 1
) -> QSeries:
    """s * (q^c; q^step)_infinity^power to the given order; a negative power
    divides.

    The result keeps min(order, s.order) coefficients, as in a series
    product.  Each factor (1 - q^k) with k below that length is one
    in-place O(order) step per unit of power, so a product by a Pochhammer
    symbol is never a dense series product.
    """
    if c <= 0 or step <= 0:
        raise DivergentProductError("step product needs c >= 1 and step >= 1")
    if order < 0:
        raise DomainError("order must be non-negative")
    cs = list(s.coeffs[:order])
    apply = mul_one_minus_qk if power > 0 else div_one_minus_qk
    for k in range(c, len(cs), step):
        for _ in range(abs(power)):
            apply(cs, k)
    return QSeries(cs)


def qbinom(n: int, i: int) -> VLaurent:
    """Gaussian binomial (q;q)_n / ((q;q)_i (q;q)_(n-i)) as an exact polynomial."""
    if not (0 <= i <= n):
        raise DomainError(f"qbinom needs 0 <= i <= n, got ({n}, {i})")
    return poch_ratio(range(1, n + 1), [*range(1, i + 1), *range(1, n - i + 1)])
