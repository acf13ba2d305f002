"""Brute-force Temperley-Lieb diagram algebra.

TL_n is modeled on 2n boundary points: 0..n-1 on the bottom row (left to
right) and n..2n-1 on the top row (left to right).  A diagram is the
tuple of partners of these points (``d[p]`` is the point that p is joined
to): a fixed-point-free involution that is realizable without crossings
inside the rectangle; there are Catalan(n) of them.  The tuple is the
dictionary key of a term and what ``join`` reads and returns, so the
products, the closures and ``networks`` share one representation.
Multiplication stacks the second diagram on top of the first and replaces
every closed loop by the scalar delta = -A**2 - A**-2.

Every gluing of diagrams goes through one function, ``join``: it glues
chosen points in pairs, follows each free end through the arcs to the end
it reaches, and counts the closed loops left among the glued points.  A
product glues a's top to b's bottom, a closure glues bottom j to top n+j,
and ``networks`` glues a node's terms into the pairing of the open ports
with the same call.

A product a * b joins once per top-half class of a and diagram of b.  The
diagrams of a with the same top half (the same caps among the top points,
the same top points running through) close the same loops with a diagram
of b and send the same paths down through the same top points, so one
representative is joined and its result is carried to each other member
by renaming the bottom points those paths reach (f(5) * f(5): 10 classes
times 42 diagrams, 420 joins instead of 1764).  The numerators are packed
into ints by Kronecker substitution (``qcore.kronecker_pack``): the terms
of a numerator on one residue class of exponents mod 4 become one int in
v**4, and the slot width comes from the bound
sum |c_a| * sum |c_b| * 2**n on every coefficient of the result.  Each
right numerator is added to the sum of its (diagram, loops) key, each sum
is multiplied once by each left numerator of the class, and delta**loops,
v**(-2 loops) (1 + v**4)**loops up to sign, is folded in as one more
multiply by a packed (1 + X)**loops over a common offset, so a result
diagram is unpacked once.  An element keeps the packing of its numerators
at each slot width it has been multiplied at, so a projector used in many
products (e_i f, f e_i, the absorption products) is packed once per width;
elements are not changed after they are built, so a kept packing holds.

Jones-Wenzl projectors are built from f(0) = empty and f(1) = single
strand by the single-clasp expansion of Wenzl's recursion (Kauffman-Lins,
*Temperley-Lieb Recoupling Theory*, 1994; S. Morrison, *A formula for the
Jones-Wenzl projections*)

    [n] f(n) = (f(n-1)x1) * sum_{a=1..n} [a] w_a,

where w_n is the identity and w_a = e_{n-1} e_{n-2} ... e_a is one
diagram, and memoized (each step reuses f(n-1)).

A ``TLElement`` is fraction-free: one integer Laurent numerator per
diagram over one shared denominator, so products, sums and closures are
integer polynomial arithmetic with no gcd.  [n]! f(n) has integer
coefficients, and the step above is one product of f(n-1)x1, over
[n-1]!, with integer weights over [n], so f(n) is kept over the
denominator [n]! with no division.  A ``VFraction`` appears only at the
boundary (``trace_close``, ``coeff_of`` and the argument of ``scale``).
Everything here is exact and serves as the independent oracle for the
closed-form formulas elsewhere in the package.
"""

from __future__ import annotations

from .errors import CapacityError, DomainError
from .qcore import (
    VFraction,
    VLaurent,
    kronecker_pack,
    kronecker_unpack,
    kronecker_width,
    loop_power,
    quantum_int,
)


# Largest projector colour.  f(n) has Catalan(n) diagrams with numerators
# over [n]!; f(0..8) (1430 diagrams for f(8)) build cold in 0.05-0.06 s,
# and each colour beyond costs several times more (the f(9) step after
# them 0.15-0.16 s, one product of f(8)x1, 1430 diagrams, with nine;
# in-process, three runs, 2 cores, CPython 3.11.7).
MAX_BOX_COLOR = 8


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


def _identity(n: int) -> tuple[int, ...]:
    """The identity diagram of TL_n: bottom j joined to top n+j."""
    return (*range(n, 2 * n), *range(n))


def _from_arcs(n: int, arcs) -> tuple[int, ...]:
    """The diagram of TL_n with the given arcs (pairs of points)."""
    pr = [-1] * (2 * n)
    for a, b in arcs:
        pr[a], pr[b] = b, a
    if -1 in pr:
        raise DomainError("incomplete matching")
    return tuple(pr)


def join(pairs, glue, ends) -> tuple[list[int], int]:
    """Glue points together and follow the arcs: the one gluing step.

    ``pairs`` is a fixed-point-free involution (indexable by point), ``glue``
    a dict that pairs up the glued points, and ``ends`` lists the points that
    are not glued.  The path from each end alternates an arc of ``pairs``
    with one of ``glue`` until it reaches another end.  Returns
    ``(partner, loops)``: ``partner[i] == j`` when the path from ``ends[i]``
    arrives at ``ends[j]``, and ``loops`` counts the closed cycles left
    among the glued points.
    """
    index = {p: i for i, p in enumerate(ends)}
    partner = [-1] * len(ends)
    seen: set[int] = set()
    for i, p in enumerate(ends):
        if partner[i] >= 0:
            continue
        q = pairs[p]
        while q in glue:
            seen.add(q)
            q = glue[q]
            seen.add(q)
            q = pairs[q]
        j = index[q]
        partner[i], partner[j] = j, i
    loops = 0
    for p in glue:
        if len(seen) == len(glue):
            break
        if p in seen:
            continue
        loops += 1
        while p not in seen:
            seen.add(p)
            p = pairs[p]
            seen.add(p)
            p = glue[p]
    return partner, loops


# ---------------------------------------------------------------------------
# TL elements
# ---------------------------------------------------------------------------

def _accumulate(out: dict, key, c: VLaurent) -> None:
    s = out.get(key)
    out[key] = c if s is None else s + c


def _l1(terms: dict) -> int:
    """The sum of the absolute values of all numerator coefficients."""
    return sum(abs(k) for c in terms.values() for k in c.terms.values())


def _pack_parts(c: VLaurent, e0: int, width: int) -> list[tuple[int, int]]:
    """c split by exponent residue mod 4 and packed: (r, packed) pairs.

    The part at residue r holds the terms at e0 + r + 4k, packed in k, so
    a numerator on one residue class (as every numerator of f(n) is) is
    one packed int with no empty slots between its terms.
    """
    parts: dict[int, dict[int, int]] = {}
    for e, k in c.terms.items():
        parts.setdefault((e - e0) % 4, {})[e] = k
    return [(r, kronecker_pack(t, e0 + r, 4, width)) for r, t in parts.items()]


def _top_classes(terms: dict, n: int):
    """The diagrams of terms grouped by their top half (the caps among the
    top points and which top points run through), first seen first."""
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for m in terms:
        top = tuple(p if p >= n else -1 for p in m[n:])
        classes.setdefault(top, []).append(m)
    return classes.values()


def _carry(sums: dict, rep: tuple[int, ...], m: tuple[int, ...], n: int) -> list:
    """The join results of rep, keyed (partner, loops, r), carried to m.

    rep and m share their top half, so a path that leaves the glued row
    down through top point q ends at rep's bottom point rep[q] for rep and
    at m[q] for m, and m's bottom caps stand in for rep's (as many).
    ``index`` picks, for each end of m, the end of rep it stands for, and
    ``value`` renames rep's ends to m's.
    """
    index, value = list(range(2 * n)), list(range(2 * n))
    for q in range(n, 2 * n):
        if rep[q] < n:
            index[m[q]], value[rep[q]] = rep[q], m[q]
    caps = zip(
        (p for p in range(n) if rep[p] < n), (p for p in range(n) if m[p] < n)
    )
    for r, p in caps:
        index[p], value[rep[r]] = r, m[p]
    return [
        ((tuple([value[partner[i]] for i in index]), loops, residue), s)
        for (partner, loops, residue), s in sums.items()
    ]


def _times_loops(buckets: dict) -> dict:
    """Sum the (key, loops) buckets into keys, each times delta**loops."""
    out: dict = {}
    for (key, loops), c in buckets.items():
        _accumulate(out, key, c * loop_power(loops) if loops else c)
    return out


class TLElement:
    """An element of TL_n: integer Laurent numerators over one denominator.

    The value is (1/den) * sum(terms[m] * m); every numerator and ``den``
    are ``VLaurent`` polynomials over Z.  Nothing is reduced: products
    multiply the denominators, and equality scales one side by the exact
    quotient of the denominators, or cross-multiplies when neither divides
    the other.
    """

    __slots__ = ("n", "terms", "den", "_packed")

    def __init__(
        self,
        n: int,
        terms: dict[tuple[int, ...], VLaurent] | None = None,
        den: VLaurent | None = None,
    ):
        clean = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, VLaurent):
                raise DomainError(f"TL numerator {c!r} is not a VLaurent")
            if c:
                clean[m] = c
        if den is not None and den.is_zero():
            raise DomainError("zero denominator")
        self.n = n
        self.terms = clean
        self.den = VLaurent.one() if den is None else den
        self._packed: dict[int, tuple[int, dict]] = {}

    @staticmethod
    def identity(n: int) -> "TLElement":
        return TLElement(n, {_identity(n): VLaurent.one()})

    @staticmethod
    def generator(n: int, i: int) -> "TLElement":
        """The cup-cap generator e_i (1 <= i <= n-1)."""
        if not (1 <= i <= n - 1):
            raise DomainError(f"e_{i} undefined in TL_{n}")
        arcs = [(i - 1, i), (n + i - 1, n + i)]
        arcs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
        return TLElement(n, {_from_arcs(n, arcs): VLaurent.one()})

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.n != other.n:
            raise DomainError("strand-count mismatch")
        a, b, den = self.terms, other.terms, self.den
        if den != other.den:
            a = {m: c * other.den for m, c in a.items()}
            b = {m: c * den for m, c in b.items()}
            den = den * other.den
        out = dict(a)
        for m, c in b.items():
            _accumulate(out, m, c)
        return TLElement(self.n, out, den)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TLElement":
        """Multiply by a scalar (a VFraction, VLaurent or int)."""
        c = VFraction._coerce(c)
        terms = {m: k * c.num for m, k in self.terms.items()}
        return TLElement(self.n, terms, self.den * c.den)

    def _packing(self, width: int) -> tuple[int, dict]:
        """(e0, {diagram: _pack_parts(numerator, e0, width)}), e0 the lowest
        exponent of all numerators; built once per slot width and kept (an
        element is never changed after it is built)."""
        packed = self._packed.get(width)
        if packed is None:
            e0 = min(c.min_exp() for c in self.terms.values())
            parts = {m: _pack_parts(c, e0, width) for m, c in self.terms.items()}
            packed = self._packed[width] = (e0, parts)
        return packed

    def __mul__(self, other: "TLElement") -> "TLElement":
        """Algebra product: other stacked on top of self.

        One join per top-half class of self and diagram of other, on packed
        numerators (see the module docstring).
        """
        if self.n != other.n:
            raise DomainError("strand-count mismatch")
        n = self.n
        den = self.den * other.den
        a, b = self.terms, other.terms
        if not a or not b:
            return TLElement(n, {}, den)
        # A result coefficient is at most sum |c_a| * sum |c_b| * 2**n in
        # absolute value: |delta**loops|_1 = 2**loops and loops <= n.
        width = kronecker_width((_l1(a) * _l1(b)) << n)
        ea, left = self._packing(width)
        eb, right = other._packing(width)
        # other's points are offset by 2n; self's top n+j is glued to
        # other's bottom 2n+j.
        glue = {}
        for j in range(n):
            glue[n + j], glue[2 * n + j] = 2 * n + j, n + j
        ends = [*range(n), *range(3 * n, 4 * n)]
        right = [(tuple(p + 2 * n for p in mb), cb) for mb, cb in right.items()]
        buckets: dict[tuple[tuple[int, ...], int, int], int] = {}
        for rep, *members in _top_classes(a, n):
            # Sum the packed numerators of other that give one (diagram,
            # loops) with the representative, then multiply once per sum.
            sums: dict[tuple[tuple[int, ...], int, int], int] = {}
            for mb, cb in right:
                partner, loops = join(rep + mb, glue, ends)
                partner = tuple(partner)
                for r, c in cb:
                    key = (partner, loops, r)
                    sums[key] = sums.get(key, 0) + c
            sums = {key: s for key, s in sums.items() if s}
            for m in (rep, *members):
                carried = sums.items() if m is rep else _carry(sums, rep, m, n)
                for ra, ca in left[m]:
                    for (d, loops, rb), s in carried:
                        key = (d, loops, ra + rb)
                        buckets[key] = buckets.get(key, 0) + ca * s
        # delta**loops = (-1)**loops v**(-2 loops) (1 + v**4)**loops, and
        # v**4 is one slot.  Over the common offset v**(-2 most), a bucket
        # at residue sum r sits r + 2 (most - loops) above it: that many
        # whole slots of 4, and the rest picks the residue of the result.
        most = max((loops for _, loops, _ in buckets), default=0)
        slot = 8 * width
        minus_loop = -(1 + (1 << slot))
        powers = [minus_loop**k for k in range(most + 1)]
        out: dict[tuple[tuple[int, ...], int], int] = {}
        for (d, loops, r), s in buckets.items():
            t = r + 2 * (most - loops)
            key = (d, t % 4)
            out[key] = out.get(key, 0) + (s * powers[loops] << (t // 4 * slot))
        e0 = ea + eb - 2 * most
        terms: dict[tuple[int, ...], dict[int, int]] = {}
        for (d, r), s in out.items():
            terms.setdefault(d, {}).update(kronecker_unpack(s, e0 + r, 4, width))
        return TLElement(n, {d: VLaurent(t) for d, t in terms.items()}, den)

    def tensor_strand(self) -> "TLElement":
        """Tensor with one identity strand on the right (TL_n -> TL_{n+1})."""
        return self.tensor_with(TLElement.identity(1))

    def tensor_with(self, other: "TLElement") -> "TLElement":
        """Side-by-side tensor product (self on the left)."""
        n1, n2 = self.n, other.n
        n = n1 + n2
        out: dict[tuple[int, ...], VLaurent] = {}

        def remap1(p: int) -> int:
            return p if p < n1 else p + n2

        def remap2(p: int) -> int:
            return n1 + p if p < n2 else n1 + n1 + p

        for m1, c1 in self.terms.items():
            arcs1 = [(remap1(p), remap1(q)) for p, q in enumerate(m1) if p < q]
            for m2, c2 in other.terms.items():
                arcs = arcs1 + [
                    (remap2(p), remap2(q)) for p, q in enumerate(m2) if p < q
                ]
                _accumulate(out, _from_arcs(n, arcs), c1 * c2)
        return TLElement(n, out, self.den * other.den)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n or self.terms.keys() != other.terms.keys():
            return False
        if self.den == other.den:
            return self.terms == other.terms
        # Divide the longer denominator by the shorter; when it divides
        # exactly (as in f * f == f), only the shorter side is scaled.
        a, b = self, other
        if a.den.max_exp() - a.den.min_exp() < b.den.max_exp() - b.den.min_exp():
            a, b = b, a
        quot, rem = a.den.divmod_by(b.den)
        if rem.is_zero():
            return all(c == b.terms[m] * quot for m, c in a.terms.items())
        return all(c * b.den == b.terms[m] * a.den for m, c in a.terms.items())

    def __repr__(self) -> str:
        return f"TLElement(n={self.n}, {len(self.terms)} diagrams)"

    # -- closures ------------------------------------------------------------

    def trace_close(self) -> VFraction:
        """Close bottom j to top n+j for all j; returns the skein value."""
        closed = self.partial_close(self.n)
        return VFraction(closed.terms.get((), VLaurent()), self.den)

    def partial_close(self, m_strands: int) -> "TLElement":
        """Close the rightmost m_strands around (bottom j to top n+j).

        Returns an element of TL_{n - m_strands}.
        """
        n = self.n
        if not (0 <= m_strands <= n):
            raise DomainError("cannot close more strands than exist")
        keep = n - m_strands
        glue = {}
        for j in range(keep, n):
            glue[j], glue[n + j] = n + j, j
        # The surviving points, in order, are the points of TL_keep.
        ends = [*range(keep), *range(n, n + keep)]
        buckets: dict[tuple[tuple[int, ...], int], VLaurent] = {}
        for m, c in self.terms.items():
            partner, loops = join(m, glue, ends)
            _accumulate(buckets, (tuple(partner), loops), c)
        return TLElement(keep, _times_loops(buckets), self.den)


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors
# ---------------------------------------------------------------------------

_jw_cache: dict[int, TLElement] = {}


def jones_wenzl(n: int) -> TLElement:
    """The n-th Jones-Wenzl projector by the single-clasp step (memoized).

    Its denominator is [n]!, and its numerators are integer Laurent
    polynomials.
    """
    if n < 0:
        raise DomainError("jones_wenzl needs n >= 0")
    if n > MAX_BOX_COLOR:
        raise CapacityError(f"projector color {n} exceeds limit {MAX_BOX_COLOR}")
    return _jones_wenzl(n)


def _jones_wenzl(n: int) -> TLElement:
    if n in _jw_cache:
        return _jw_cache[n]
    if n == 0:
        el = TLElement(0, {(): VLaurent.one()})
    elif n == 1:
        el = TLElement.identity(1)
    else:
        # The single-clasp step (module docstring): one product, over
        # [n]! = [n-1]! [n], with no division.
        p = _jones_wenzl(n - 1).tensor_strand()
        el = p * TLElement(
            n, {_clasp(n, a): quantum_int(a) for a in range(1, n + 1)}, quantum_int(n)
        )
    _jw_cache[n] = el
    return el


def _clasp(n: int, a: int) -> tuple[int, ...]:
    """The diagram w_a = e_{n-1} e_{n-2} ... e_a of TL_n (w_n = 1).

    Bottom j < a-1 runs straight up, bottom a-1..n-3 runs up two places to
    the right, bottom n-2 and n-1 are capped, and top a-1 and a are cupped.
    """
    if a == n:
        return _identity(n)
    arcs = [(j, n + j) for j in range(a - 1)]
    arcs += [(j, n + j + 2) for j in range(a - 1, n - 2)]
    arcs += [(n - 2, n - 1), (n + a - 1, n + a)]
    return _from_arcs(n, arcs)


def coeff_of(e: TLElement, d: tuple[int, ...]) -> VFraction:
    """The coefficient of the diagram d in e (zero if absent)."""
    if len(d) != 2 * e.n:
        raise DomainError("strand-count mismatch")
    return VFraction(e.terms.get(d, VLaurent()), e.den)


def hook_matching(n: int) -> tuple[int, ...]:
    """The fully nested turn-back diagram in TL_{2n}: n nested caps on the
    bottom row and n nested cups on the top row."""
    if n < 1:
        raise DomainError("hook_matching needs n >= 1")
    arcs = [(j, 2 * n - 1 - j) for j in range(n)]
    arcs += [(2 * n + j, 4 * n - 1 - j) for j in range(n)]
    return _from_arcs(2 * n, arcs)
