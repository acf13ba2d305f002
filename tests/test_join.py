"""Property tests for ``tl_oracle.join``, the one gluing step of the oracle.

TL products, strand closures and the network contraction all glue points
together and follow arcs through them.  These properties check ``join``
against a union-find reference, the TL product against a per-pair
stacking built on that reference (also at coefficients far wider than
any projector's, where the packed product's slot width is tight), and
each composition built on it through a law it must satisfy: associativity
of stacking, closing strands in two steps or in one, and Reidemeister II
invariance of the bracket.  The TL elements carry integer numerators
over a random denominator, so the algebra laws (associativity,
distributivity, equality up to a common factor) also check the
cross-multiplied arithmetic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeintails.networks import (
    ClosedNetwork,
    bracket_closed,
    closed_projector,
    kinked_loop,
    theta_network,
    torus_knot_network,
)
from skeintails.qcore import V_LOOP, VLaurent
from skeintails import tl_oracle
from skeintails.tl_oracle import TLElement, join, jones_wenzl
from tl_diagrams import enumerate_matchings

_MATCHINGS = {n: enumerate_matchings(n) for n in range(6)}


def _reference_join(pairs, glue, ends):
    """``join`` by union-find over the arcs of ``pairs`` and ``glue``."""
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for arcs in (enumerate(pairs), glue.items()):
        for p, q in arcs:
            parent[find(p)] = find(q)
    by_root: dict[int, list[int]] = {}
    for i, p in enumerate(ends):
        by_root.setdefault(find(p), []).append(i)
    partner = [-1] * len(ends)
    for i, j in by_root.values():
        partner[i], partner[j] = j, i
    loops = len({find(p) for p in glue} - set(by_root))
    return partner, loops


@st.composite
def _gluings(draw):
    """A random (also non-planar) involution, glue involution and end order."""
    k = draw(st.integers(1, 8))
    points = draw(st.permutations(range(2 * k)))
    pairs = [0] * (2 * k)
    for p, q in zip(points[::2], points[1::2]):
        pairs[p], pairs[q] = q, p
    g = draw(st.integers(0, k))
    glued = draw(st.permutations(range(2 * k)))
    glue = {}
    for p, q in zip(glued[: 2 * g : 2], glued[1 : 2 * g : 2]):
        glue[p], glue[q] = q, p
    ends = draw(st.permutations([p for p in range(2 * k) if p not in glue]))
    return tuple(pairs), glue, list(ends)


@settings(max_examples=300, deadline=None)
@given(gluing=_gluings(), as_dict=st.booleans())
def test_join_matches_union_find(gluing, as_dict):
    pairs, glue, ends = gluing
    expected = _reference_join(pairs, glue, ends)
    if as_dict:
        pairs = dict(enumerate(pairs))
    assert join(pairs, glue, ends) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_diagram_product_is_associative(data):
    n = data.draw(st.integers(1, 5))
    a, b, c = (
        TLElement(n, {data.draw(st.sampled_from(_MATCHINGS[n])): VLaurent.one()})
        for _ in range(3)
    )
    ab_c, a_bc = (a * b) * c, a * (b * c)
    assert (ab_c.terms, ab_c.den) == (a_bc.terms, a_bc.den)
    # One diagram, times delta to the number of loops closed on the way.
    ((d, coeff),) = ab_c.terms.items()
    assert d in _MATCHINGS[n]
    assert coeff in [V_LOOP**k for k in range(2 * n + 1)]


_small_laurents = st.dictionaries(
    st.integers(-4, 4), st.integers(-3, 3), min_size=1, max_size=3
).map(VLaurent)
_nonzero_small_laurents = _small_laurents.filter(bool)


@st.composite
def _tl_elements(draw, n=None):
    """A random TL_n element: up to six diagrams over a random denominator."""
    n = draw(st.integers(1, 5)) if n is None else n
    diagrams = draw(
        st.lists(st.sampled_from(_MATCHINGS[n]), min_size=1, max_size=6, unique=True)
    )
    terms = {m: draw(_small_laurents) for m in diagrams}
    return TLElement(n, terms, draw(_nonzero_small_laurents))


@settings(max_examples=150, deadline=None)
@given(element=_tl_elements(), data=st.data())
def test_closing_in_two_steps_equals_closing_at_once(element, data):
    k = data.draw(st.integers(0, element.n))
    m = data.draw(st.integers(0, element.n - k))
    assert element.partial_close(k).partial_close(m) == element.partial_close(k + m)
    full = element.partial_close(element.n)
    assert set(full.terms) <= {()}
    assert element.partial_close(k).trace_close() == element.trace_close()


@settings(max_examples=150, deadline=None)
@given(element=_tl_elements(), factor=_nonzero_small_laurents)
def test_equality_ignores_a_common_factor(element, factor):
    terms = {m: c * factor for m, c in element.terms.items()}
    scaled = TLElement(element.n, terms, element.den * factor)
    assert scaled == element and element == scaled
    if not element.is_zero():
        doubled = {m: c * 2 for m, c in element.terms.items()}
        assert TLElement(element.n, doubled, element.den) != element


def _reference_product(a: TLElement, b: TLElement) -> TLElement:
    """b stacked on top of a, one union-find join per diagram pair."""
    n = a.n
    glue = {}
    for j in range(n):
        glue[n + j], glue[2 * n + j] = 2 * n + j, n + j
    ends = [*range(n), *range(3 * n, 4 * n)]
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            stacked = ma + tuple(p + 2 * n for p in mb)
            partner, loops = _reference_join(stacked, glue, ends)
            key = tuple(partner)
            terms[key] = terms.get(key, VLaurent()) + ca * cb * V_LOOP**loops
    return TLElement(n, terms, a.den * b.den)


@st.composite
def _tl_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(_tl_elements(n)), draw(_tl_elements(n))


@settings(max_examples=150, deadline=None)
@given(pair=_tl_pairs())
def test_tl_product_matches_reference_stacking(pair):
    a, b = pair
    got, want = a * b, _reference_product(a, b)
    assert (got.terms, got.den) == (want.terms, want.den)


# Coefficients up to 2**64 in absolute value.  Each element draws one
# magnitude 2**k, so products of its extremes (2**k, 2**k - 1) fall at
# every bit length mod 8, and a slot one bit too narrow, or sized from the
# largest coefficient instead of the sums, overflows on some of them.
_WIDE = 2**64


@st.composite
def _wide_elements(draw, n):
    """A TL_n element with wide coefficients at odd and negative exponents,
    on some or (often) every diagram of TL_n."""
    top = 2 ** draw(st.integers(1, 64))
    coeffs = st.one_of(
        st.sampled_from([top, -top, top - 1, 1 - top]), st.integers(-top, top)
    )
    everything = _MATCHINGS[n]
    if draw(st.booleans()):
        diagrams = everything
    else:
        diagrams = draw(
            st.lists(
                st.sampled_from(everything),
                min_size=1,
                max_size=len(everything),
                unique=True,
            )
        )
    laurents = st.dictionaries(st.integers(-7, 7), coeffs, min_size=1, max_size=4)
    terms = {m: VLaurent(draw(laurents)) for m in diagrams}
    return TLElement(n, terms, draw(_nonzero_small_laurents))


@st.composite
def _wide_pairs(draw):
    n = draw(st.integers(0, 4))
    return draw(_wide_elements(n)), draw(_wide_elements(n))


def _one_term(n: int, diagram, terms: dict) -> TLElement:
    return TLElement(n, {diagram: VLaurent(terms)})


# Products at the slot bound.  (2**64 - 1)**2 has exactly 128 bits, so its
# slot needs 17 bytes.  2**63 (1 + v**4) squared has the middle coefficient
# 2**127: the largest coefficient alone (2**126) would size 16 bytes.  In
# TL_4, (e_1 e_3)**2 closes two loops, and delta**2 = v**4 + 2 + v**-4.
# Then products that are zero: every packed sum of e_i f(3) and f(3) e_i
# cancels, and b - b has no terms.
_E1E3 = (1, 0, 3, 2, 5, 4, 7, 6)
_F3 = jones_wenzl(3).scale(VLaurent({-5: _WIDE, 3: 1 - _WIDE}))
_B = TLElement(3, {d: VLaurent({1: _WIDE - 1, -7: -_WIDE}) for d in _MATCHINGS[3]})


@settings(max_examples=200, deadline=None)
@given(pair=_wide_pairs())
@example(pair=(_one_term(0, (), {0: _WIDE - 1}),) * 2)
@example(pair=(_one_term(0, (), {0: 2**63, 4: 2**63}),) * 2)
@example(pair=(_one_term(4, _E1E3, {1: 2**63}), _one_term(4, _E1E3, {-3: 2**63})))
@example(pair=(TLElement.generator(3, 1), _F3))
@example(pair=(_F3, TLElement.generator(3, 2)))
@example(pair=(_B, _B - _B))
@example(pair=(_B - _B, _B))
def test_wide_product_matches_reference_stacking(pair):
    a, b = pair
    got, want = a * b, _reference_product(a, b)
    assert (got.terms, got.den) == (want.terms, want.den)


def test_product_joins_once_per_top_half_class(monkeypatch):
    # f(5) has 42 diagrams in 10 classes of top halves (C(5, 2)): one join
    # per class and right diagram, not one per diagram pair (1,764).
    f = jones_wenzl(5)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return join(*args)

    monkeypatch.setattr(tl_oracle, "join", counted)
    assert f * f == f
    assert calls == [420]


@st.composite
def _tl_triples(draw):
    n = draw(st.integers(1, 4))
    return tuple(draw(_tl_elements(n)) for _ in range(3))


@settings(max_examples=100, deadline=None)
@given(triple=_tl_triples())
def test_tl_product_is_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(triple=_tl_triples())
def test_tl_product_distributes_over_sum(triple):
    a, b, c = triple
    # The sum itself, checked against VFraction addition of the traces.
    assert (b + c).trace_close() == b.trace_close() + c.trace_close()
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert a * (b - c) == a * b - a * c


def _with_reidemeister_two(
    net: ClosedNetwork, i: int, j: int, over: str, tag: int
) -> ClosedNetwork:
    """Pass the strand of arc i twice over (or under) that of arc j."""
    out = ClosedNetwork()
    out.boxes = dict(net.boxes)
    out.crossings = dict(net.crossings)
    out.free_loops = net.free_loops
    out.arcs = [arc for k, arc in enumerate(net.arcs) if k not in (i, j)]
    (p, q), (r, s) = net.arcs[i], net.arcs[j]
    x, y = f"rx{tag}", f"ry{tag}"
    # The strand from p runs sw -> ne through x and se -> nw through y, so
    # it lies on the nesw diagonal of x and the nwse diagonal of y.
    out.add_crossing(x, over)
    out.add_crossing(y, "nwse" if over == "nesw" else "nesw")
    out.add_arc(p, (x, "sw"))
    out.add_arc(r, (x, "se"))
    out.add_arc((x, "nw"), (y, "sw"))
    out.add_arc((x, "ne"), (y, "se"))
    out.add_arc((y, "nw"), q)
    out.add_arc((y, "ne"), s)
    return out


_BASE_DIAGRAMS = {
    "kink": lambda: kinked_loop("nesw"),
    "kink-mirror": lambda: kinked_loop("nwse"),
    "f2": lambda: closed_projector(2),
    "f3": lambda: closed_projector(3),
    "torus-2-1": lambda: torus_knot_network(2, 1),
    "torus-3-1": lambda: torus_knot_network(3, 1),
    "theta-112": lambda: theta_network(1, 1, 2),
    "theta-222": lambda: theta_network(2, 2, 2),
}


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(sorted(_BASE_DIAGRAMS)),
    loops=st.integers(0, 2),
    data=st.data(),
)
def test_reidemeister_two_invariance(base, loops, data):
    net = _BASE_DIAGRAMS[base]()
    net.add_loops(loops)
    moved = net
    for tag in range(data.draw(st.integers(1, 2))):
        i, j = data.draw(
            st.lists(
                st.integers(0, len(moved.arcs) - 1), min_size=2, max_size=2, unique=True
            )
        )
        over = data.draw(st.sampled_from(("nesw", "nwse")))
        moved = _with_reidemeister_two(moved, i, j, over, tag)
    assert len(moved.crossings) == len(net.crossings) + 2 * (tag + 1)
    assert bracket_closed(moved) == bracket_closed(net)


def _with_braid(
    net: ClosedNetwork, arcs: list[int], word: list[int], over: str
) -> ClosedNetwork:
    """Cut three arcs and join their ends through a braid on three strands.

    The end of arc k that comes first (its bottom end) enters the braid at
    position k, and its other end leaves it at position k.  Generator i
    crosses the strands at positions i and i + 1 (0-based): the left one
    enters at sw and leaves at ne, the right one enters at se and leaves at
    nw, and every crossing declares the same over-strand.
    """
    out = ClosedNetwork()
    out.boxes = dict(net.boxes)
    out.crossings = dict(net.crossings)
    out.free_loops = net.free_loops
    out.arcs = [arc for k, arc in enumerate(net.arcs) if k not in arcs]
    ends = [net.arcs[k][0] for k in arcs]
    for tag, i in enumerate(word):
        x = f"b{tag}"
        out.add_crossing(x, over)
        out.add_arc(ends[i], (x, "sw"))
        out.add_arc(ends[i + 1], (x, "se"))
        ends[i], ends[i + 1] = (x, "nw"), (x, "ne")
    for end, k in zip(ends, arcs):
        out.add_arc(end, net.arcs[k][1])
    return out


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(
        sorted(b for b, make in _BASE_DIAGRAMS.items() if len(make().arcs) >= 3)
    ),
    over=st.sampled_from(("nesw", "nwse")),
    data=st.data(),
)
def test_reidemeister_three_invariance(base, over, data):
    # s1 s2 s1 and s2 s1 s2 are isotopic tangles with one permutation, so
    # both closures through the rest of the network have one bracket.
    net = _BASE_DIAGRAMS[base]()
    arcs = data.draw(
        st.lists(
            st.integers(0, len(net.arcs) - 1), min_size=3, max_size=3, unique=True
        )
    )
    left = _with_braid(net, arcs, [0, 1, 0], over)
    right = _with_braid(net, arcs, [1, 0, 1], over)
    assert len(left.crossings) == len(right.crossings) == len(net.crossings) + 3
    assert bracket_closed(left) == bracket_closed(right)
