"""Closed planar networks: crossings, projector boxes, and their bracket.

A ``ClosedNetwork`` is a combinatorial closed diagram: nodes are projector
boxes (each holding a Jones-Wenzl projector of some color) and crossings;
arcs join node ports so that every port is used exactly once.  Evaluation
follows the two Kauffman relations: each crossing resolves into
A * (A-smoothing) + A**-1 * (B-smoothing), each box expands into its
projector, and each closed loop contributes delta = -A**2 - A**-2.

A colour-1 box holds f(1), the identity strand, so it is spliced out of the
arcs before anything is expanded: its two neighbours are joined, and a ring
of colour-1 boxes is one more free loop.  Both kinds of node go through one
contraction: a node is a sum of local terms (a matching on its ports times
a coefficient; two terms for a crossing, the projector's terms for a box).
The nodes are expanded one at a time, in a greedy order: next, the node
that leaves the fewest open ends
(Bar-Natan's local order, "Fast Khovanov homology computations", 2007).
A state is a pairing of the open ends, the ports whose arc runs into the
expanded part; each step composes every state with every term, counts the
loops it closes, and merges states with the same pairing.  The
composition is ``tl_oracle.join``, the same gluing step as TL products and
closures.  Crossing states are never enumerated one by one, so the work
follows the number of distinct pairings at the frontier, not
2**crossings.  Since f(n) e_j = 0, a state that joins two adjacent ports
on one side of a box not yet expanded is zero and is dropped when it is
formed (the absorption of Kauffman-Lins, "Temperley-Lieb Recoupling
Theory", 1994).  Every local coefficient is an integer Laurent polynomial
(A, A**-1, or a projector numerator); the product of the box denominators
divides the sum once, at the end, so the contraction itself needs no gcd.

Box ports: a box of color n has ports a0..a(n-1) on side A and b0..b(n-1)
on side B; the projector's identity diagram joins a_j to b_j.  Crossing
ports are nw, ne, se, sw; the over-strand is declared as the "nwse" or
"nesw" diagonal.  With the over-strand on "nesw", the A-smoothing joins
sw-nw and se-ne (turn left along the over-strand).

The module also contains the network builders used by the test oracle
and a small text format with a parser/serializer; the grammar is
documented in docs/network-format.md.  A diagram is data passed to one of
two builders: ``spin_network`` wires a trivalent graph given as a rotation
system (the theta and tetrahedral networks are two tables), and
``braid_network`` cables a braid closure (the (2,f) torus diagrams and
8_5 are braid words).  Both sides of the bubble expansion, closed either
way, are one spin-network table with a color per edge for each case.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Sequence

from .errors import CapacityError, DomainError
from .qcore import V_LOOP, VFraction, VLaurent
from .tl_oracle import MAX_BOX_COLOR, join, jones_wenzl

_CROSS_PORTS = ("nw", "ne", "se", "sw")

# Smoothings by over-strand declaration, (A-smoothing, B-smoothing), each a
# matching on the indices of _CROSS_PORTS: sw-nw/se-ne or nw-ne/se-sw.
_SMOOTHINGS = {
    "nesw": ((3, 2, 1, 0), (1, 0, 3, 2)),
    "nwse": ((1, 0, 3, 2), (3, 2, 1, 0)),
}

# Most free loops (``loops k``, summed) a network may declare, and, apart
# from those, most rings of colour-1 boxes it may hold (each is a loop too,
# since f(1) is the identity strand).  Each loop is one more factor of delta
# in the value, so the value and its printed form grow with k; the networks
# used here declare at most a few.
MAX_FREE_LOOPS = 100

# Most contraction work ``bracket_closed`` may do: the sum, over the nodes
# expanded so far, of (states before the step) x (the node's local terms),
# the number of joins the steps run.  It is checked before each step, so an
# oversized network is refused before the step that would exceed it runs.
# A colour-1 box is a plain strand: it is spliced out before the
# contraction, is never expanded and adds no work.
# At 100 000 tet n=3 (7 128 joins), theta(8,8,8) (10 010, about 1 s with
# f(8) cached), the (5,3) torus (20 054, 0.4 s) and the (2,5) torus at
# colour 5 run; tet n=4 (122 980 at node 4) and the (3,4), (3,5) and
# (4,4) torus are refused.
MAX_CONTRACTION_WORK = 100_000


class ClosedNetwork:
    """A closed diagram built from projector boxes, crossings, and arcs."""

    def __init__(self) -> None:
        self.boxes: dict[str, int] = {}
        self.crossings: dict[str, str] = {}
        self.arcs: list[tuple[tuple[str, str], tuple[str, str]]] = []
        self.free_loops = 0

    # -- construction --------------------------------------------------------

    def add_box(self, name: str, color: int) -> str:
        if color < 1:
            raise DomainError("box color must be >= 1")
        if name in self.boxes or name in self.crossings:
            raise DomainError(f"duplicate node name {name!r}")
        self.boxes[name] = color
        return name

    def add_crossing(self, name: str, over: str = "nesw") -> str:
        if over not in _SMOOTHINGS:
            raise DomainError("over must be 'nwse' or 'nesw'")
        if name in self.boxes or name in self.crossings:
            raise DomainError(f"duplicate node name {name!r}")
        self.crossings[name] = over
        return name

    def add_arc(self, end1: tuple[str, str], end2: tuple[str, str]) -> None:
        self.arcs.append((end1, end2))

    def add_loops(self, k: int) -> None:
        if k < 0:
            raise DomainError("loop count must be >= 0")
        self.free_loops += k

    # -- ports ---------------------------------------------------------------

    def ports_of(self, name: str) -> list[str]:
        if name in self.boxes:
            n = self.boxes[name]
            return [f"a{j}" for j in range(n)] + [f"b{j}" for j in range(n)]
        if name in self.crossings:
            return list(_CROSS_PORTS)
        raise DomainError(f"unknown node {name!r}")

    def validate(self) -> None:
        """Check that every arc endpoint is a port and every port is used once.

        The first endpoint, in arc order, that is not a port is reported
        first; then the first port, boxes before crossings, that is not used
        exactly once.
        """
        ports = [
            (name, port)
            for name in itertools.chain(self.boxes, self.crossings)
            for port in self.ports_of(name)
        ]
        port_set = set(ports)
        seen = Counter(itertools.chain.from_iterable(self.arcs))
        # Every endpoint a port, every port seen, and 2 x arcs distinct
        # endpoints: then each port is used exactly once.
        if len(seen) == len(port_set) == 2 * len(self.arcs) and port_set >= seen.keys():
            return
        for node, port in seen:
            if (node, port) not in port_set:
                if node in self.boxes or node in self.crossings:
                    raise DomainError(f"no port {port!r} on node {node!r}")
                raise DomainError(f"unknown node {node!r}")
        for name, port in ports:
            if seen[name, port] != 1:
                raise DomainError(f"port {name}.{port} used {seen[name, port]} times")

    # -- text format ----------------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for name in sorted(self.boxes):
            lines.append(f"box {name} color {self.boxes[name]}")
        for name in sorted(self.crossings):
            lines.append(f"cross {name} over {self.crossings[name]}")
        for (n1, p1), (n2, p2) in self.arcs:
            lines.append(f"arc {n1}.{p1} {n2}.{p2}")
        if self.free_loops:
            lines.append(f"loops {self.free_loops}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "ClosedNetwork":
        net = ClosedNetwork()

        def endpoint(tok: str) -> tuple[str, str]:
            if "." not in tok:
                raise DomainError(f"bad endpoint {tok!r} (want node.port)")
            node, port = tok.split(".", 1)
            return node, port

        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            try:
                if toks[0] == "box" and len(toks) == 4 and toks[2] == "color":
                    net.add_box(toks[1], int(toks[3]))
                elif toks[0] == "cross" and len(toks) == 4 and toks[2] == "over":
                    net.add_crossing(toks[1], toks[3])
                elif toks[0] == "arc" and len(toks) == 3:
                    net.add_arc(endpoint(toks[1]), endpoint(toks[2]))
                elif toks[0] == "loops" and len(toks) == 2:
                    net.add_loops(int(toks[1]))
                else:
                    raise DomainError(f"unrecognized statement {line!r}")
            except Exception as exc:  # DomainError, int() failures etc.
                raise DomainError(f"line {lineno}: {exc}") from exc
        return net


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def bracket_closed(net: ClosedNetwork) -> VFraction:
    """Kauffman bracket of a closed network, as an exact rational function.

    Raises ``CapacityError`` for a box colour above ``MAX_BOX_COLOR``, more
    than ``MAX_FREE_LOOPS`` declared free loops or rings of colour-1 boxes,
    or contraction work above ``MAX_CONTRACTION_WORK``.
    """
    for name, color in net.boxes.items():
        if color > MAX_BOX_COLOR:
            raise CapacityError(
                f"box {name} color {color} exceeds limit {MAX_BOX_COLOR}"
            )
    if net.free_loops > MAX_FREE_LOOPS:
        raise CapacityError(
            f"{net.free_loops} free loops exceed limit {MAX_FREE_LOOPS}"
        )
    net.validate()

    # f(1) is the identity strand, so a colour-1 box is spliced out of the
    # arcs, its two neighbours joined; one whose a0 and b0 meet, directly or
    # through other colour-1 boxes, closes a free loop.
    partner: dict[tuple[str, str], tuple[str, str]] = {}
    for e1, e2 in net.arcs:
        partner[e1], partner[e2] = e2, e1
    rings = 0
    boxes = {}
    for name, color in net.boxes.items():
        if color > 1:
            boxes[name] = color
            continue
        p, q = partner.pop((name, "a0")), partner.pop((name, "b0"))
        if p == (name, "b0"):
            rings += 1
        else:
            partner[p], partner[q] = q, p
    if rings > MAX_FREE_LOOPS:
        raise CapacityError(
            f"{rings} rings of colour-1 boxes exceed limit {MAX_FREE_LOOPS}"
        )

    # Each node is a sum of local terms: (matching on its ports, coefficient).
    # A box contributes its projector's integer numerators, and its
    # denominator goes into one product taken out of the whole sum.
    node_terms: dict[str, Collection[tuple[tuple[int, ...], VLaurent]]] = {}
    den = VLaurent.one()
    for name, color in boxes.items():
        element = jones_wenzl(color)
        node_terms[name] = element.terms.items()
        den = den * element.den
    a, a_inv = VLaurent.monomial(1, 1), VLaurent.monomial(1, -1)
    for name, over in net.crossings.items():
        smooth_a, smooth_b = _SMOOTHINGS[over]
        node_terms[name] = [(smooth_a, a), (smooth_b, a_inv)]

    # Integer ids for ports.
    pid: dict[tuple[str, str], int] = {}
    node_ports: dict[str, list[int]] = {}
    for name in node_terms:
        node_ports[name] = [
            pid.setdefault((name, port), len(pid)) for port in net.ports_of(name)
        ]
    pairing = {pid[e]: pid[f] for e, f in partner.items()}

    # f(n) e_j = 0, so a box annihilates a pairing of its ports a_j, a_j+1
    # or b_j, b_j+1 (ports j, j+1 or n+j, n+j+1 in its port list).
    dead = set()
    for name, color in boxes.items():
        ports = node_ports[name]
        for j in range(2 * color - 1):
            if j != color - 1:
                dead.add((ports[j], ports[j + 1]))
                dead.add((ports[j + 1], ports[j]))

    num = _contract(node_terms, node_ports, pairing, net.free_loops + rings, dead)
    return VFraction(num, den).reduced()


def _contract(
    node_terms: dict[str, Collection[tuple[tuple[int, ...], VLaurent]]],
    node_ports: dict[str, list[int]],
    pairing: dict[int, int],
    free_loops: int,
    dead: set[tuple[int, int]],
) -> VLaurent:
    """Expand every node into its local terms, with state aggregation.

    A state is a pairing of the open ends: the ports of the nodes not yet
    expanded whose arc runs into an expanded node.  The arcs between two
    nodes not yet expanded are the same in every state, so a state leaves
    them out.  Expanding a node composes each state, with the node's own
    arcs, with each of the node's matchings, counts the loops closed inside
    it, and merges states that end up with the same pairing.  A state that
    pairs two ports as a pair of ``dead`` does (adjacent same-side ports of
    a box not yet expanded, in both orders) is dropped: the projector
    annihilates it.  The value starts at delta**free_loops, and each power
    of delta is computed once, in a table shared by every join.  Raises
    ``CapacityError`` before a step that would take the work (states x
    terms, summed over the steps) above ``MAX_CONTRACTION_WORK``.
    """
    owner = {p: name for name, ports in node_ports.items() for p in ports}
    order = _greedy_order(node_ports, pairing, owner)
    powers = [VLaurent.one()]
    states: dict[tuple, VLaurent] = {}
    if dead.isdisjoint(pairing.items()):
        states[()] = _loop_power(powers, free_loops)
    expanded: set[str] = set()
    work = 0
    for step, name in enumerate(order, 1):
        work += len(states) * len(node_terms[name])
        if work > MAX_CONTRACTION_WORK:
            raise CapacityError(
                f"contraction work {work} (states x terms) exceeds limit "
                f"{MAX_CONTRACTION_WORK} at node {step} of {len(order)}"
            )
        ports = node_ports[name]
        port_set = set(ports)
        # The node's arcs to nodes not yet expanded (or to itself).
        fixed = {}
        for p in ports:
            q = pairing[p]
            if owner[q] not in expanded:
                fixed[p], fixed[q] = q, p
        expanded.add(name)
        expansions = [
            ({p: ports[j] for p, j in zip(ports, pairs)}, mcoeff)
            for pairs, mcoeff in node_terms[name]
        ]
        new_states: dict[tuple, VLaurent] = {}
        for key, coeff in states.items():
            pr = dict(fixed)
            for p, q in key:
                pr[p] = q
                pr[q] = p
            # Sorted ends make each new pairing canonical as it is read off.
            ends = sorted(p for p in pr if p not in port_set)
            # Only the ends paired into this node can get a new partner.
            moved = [
                bisect_left(ends, pr[p]) for p in ports if pr[p] not in port_set
            ]
            for mp, mcoeff in expansions:
                partner, loops = join(pr, mp, ends)
                if any((ends[i], ends[partner[i]]) in dead for i in moved):
                    continue
                k = tuple(
                    (ends[i], ends[j]) for i, j in enumerate(partner) if i < j
                )
                c = coeff * mcoeff
                if loops:
                    c = c * _loop_power(powers, loops)
                s = new_states.get(k)
                new_states[k] = c if s is None else s + c
        states = new_states
    # All nodes expanded: only the empty pairing remains.
    return states.get((), VLaurent())


def _loop_power(powers: list[VLaurent], k: int) -> VLaurent:
    """delta**k from the table ``powers`` of delta**0, delta**1, ..., which
    grows by one multiplication per new power."""
    while len(powers) <= k:
        powers.append(powers[-1] * V_LOOP)
    return powers[k]


def _greedy_order(
    node_ports: dict[str, list[int]], pairing: dict[int, int], owner: dict[int, str]
) -> list[str]:
    """Expansion order: next the node that leaves the fewest open ends.

    The open ends are the arcs between the expanded nodes and the rest.
    Expanding a node changes their number by its arcs to unexpanded nodes
    minus its arcs to expanded ones; ties go to the smaller name.  Each
    expansion updates its neighbours' changes and pushes them on a heap,
    whose stale entries are skipped when popped.
    """
    arcs: dict[str, list[str]] = {name: [] for name in node_ports}
    for p, q in pairing.items():
        if owner[p] != owner[q]:
            arcs[owner[p]].append(owner[q])
    delta = {name: len(ends) for name, ends in arcs.items()}
    heap = [(d, name) for name, d in delta.items()]
    heapq.heapify(heap)
    order: list[str] = []
    done: set[str] = set()
    while heap:
        d, name = heapq.heappop(heap)
        if name in done or d != delta[name]:
            continue
        done.add(name)
        order.append(name)
        for nb in arcs[name]:
            if nb not in done:
                delta[nb] -= 2
                heapq.heappush(heap, (delta[nb], nb))
    return order


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def loop_network(k: int = 1) -> ClosedNetwork:
    net = ClosedNetwork()
    net.add_loops(k)
    return net


def kinked_loop(over: str = "nesw") -> ClosedNetwork:
    """A single unknotted loop with one Reidemeister-I kink."""
    net = ClosedNetwork()
    net.add_crossing("x", over)
    net.add_arc(("x", "ne"), ("x", "se"))
    net.add_arc(("x", "nw"), ("x", "sw"))
    return net


def closed_projector(n: int) -> ClosedNetwork:
    """Trace closure of f(n); evaluates to Delta_n."""
    net = ClosedNetwork()
    net.add_box("p", n)
    for j in range(n):
        net.add_arc(("p", f"a{j}"), ("p", f"b{j}"))
    return net


def _end_ports(net: ClosedNetwork, box: str, side: str) -> list[tuple[str, str]]:
    n = net.boxes[box]
    ports = [(box, f"{side}{j}") for j in range(n)]
    # Side b is listed reversed so that, seen from its own vertex, the ports
    # run in the same rotational direction as side a does from its vertex.
    return ports if side == "a" else ports[::-1]


def _wire_vertex(net: ClosedNetwork, ends: list[list[tuple[str, str]]]) -> None:
    """Wire a trivalent vertex.

    ``ends`` are the three edge-ends in clockwise order around the vertex,
    each a port list in clockwise order.  Adjacent ends are joined by nested
    arcs; the triple must be admissible.
    """
    sizes = [len(e) for e in ends]
    for k in range(3):
        a, b, c = sizes[k], sizes[(k + 1) % 3], sizes[(k + 2) % 3]
        t = a + b - c
        if t < 0 or t % 2:
            raise DomainError(f"inadmissible vertex colors {sizes}")
    for k in range(3):
        t = (sizes[k] + sizes[(k + 1) % 3] - sizes[(k + 2) % 3]) // 2
        e0, e1 = ends[k], ends[(k + 1) % 3]
        for j in range(t):
            net.add_arc(e0[len(e0) - 1 - j], e1[j])


def spin_network(
    vertices: Sequence[Sequence[tuple[str, str]]], colors: dict[str, int]
) -> ClosedNetwork:
    """The trivalent spin network of a rotation system.

    ``vertices`` lists the three edge-ends ``(edge, side)`` of each vertex
    in clockwise order, where side "a" or "b" names the end of the edge's
    box that faces the vertex.  ``colors`` maps every edge to its color;
    an edge of color n > 0 becomes one box of color n, and an edge of color
    0 is left out.  Every vertex must be admissible.
    """
    net = ClosedNetwork()
    for edge, color in colors.items():
        if color:
            net.add_box(edge, color)
    for vertex in vertices:
        _wire_vertex(
            net,
            [_end_ports(net, e, side) if colors[e] else [] for e, side in vertex],
        )
    return net


# The theta graph: edges A, B, C from the left vertex ("a" sides) to the
# right one, clockwise around each vertex.
_THETA_VERTICES = (
    (("A", "a"), ("B", "a"), ("C", "a")),
    (("C", "b"), ("B", "b"), ("A", "b")),
)


def theta_network(a: int, b: int, c: int) -> ClosedNetwork:
    """The theta spin network with edge colors (a, b, c)."""
    return spin_network(_THETA_VERTICES, {"A": a, "B": b, "C": c})


_TET_EDGES = ("e12", "e13", "e14", "e23", "e24", "e34")

# Clockwise edge-ends around each vertex of the planar K4 (V1 top, V2
# bottom-left, V3 bottom-right, V4 center); "a" sides face the
# lower-numbered vertex.
_TET_VERTICES = (
    (("e13", "a"), ("e14", "a"), ("e12", "a")),
    (("e12", "b"), ("e24", "a"), ("e23", "a")),
    (("e23", "b"), ("e34", "a"), ("e13", "b")),
    (("e34", "b"), ("e24", "b"), ("e14", "b")),
)


def tet_network(colors: dict[str, int] | int) -> ClosedNetwork:
    """The tetrahedral spin network.

    ``colors`` maps edge names e12, e13, e14, e23, e24, e34 to colors, or a
    single integer colors every edge the same.
    """
    if isinstance(colors, int):
        colors = dict.fromkeys(_TET_EDGES, colors)
    return spin_network(_TET_VERTICES, colors)


# -- bubble expansion networks ----------------------------------------------
#
# The bubble element: two projector boxes (colors m+k and n+k) joined by two
# parallel bands, k strands over the lens and l strands under it, with
# boundary cables m, n (top corners) and m', n' (bottom corners); it exists
# when m + k = m' + l and n + k = n' + l.  The expansion replaces it by
# elements with i nested turn-backs joining the top cables, k-l+i joining
# the bottom cables, and through strands on both sides.  Closed top-bottom
# (m = n, m' = n') or left-right (m = m', n = n'), the element and every
# expansion term are the same trivalent graph: two bigons (E1, E2 and E3,
# E4) joined by the edges E5 and E6, colored per case.  A spin network
# puts a projector on every edge, also on the bands, turn-backs and
# throughs, which carry none in the skein elements; since
# f(m+k) (f(k) x 1) = f(m+k) and f f = f, these boxes change no bracket.

_BUBBLE_EDGES = ("E1", "E2", "E3", "E4", "E5", "E6")

_BUBBLE_VERTICES = (
    (("E1", "a"), ("E2", "a"), ("E5", "a")),
    (("E6", "a"), ("E2", "b"), ("E1", "b")),
    (("E3", "a"), ("E4", "a"), ("E5", "b")),
    (("E6", "b"), ("E4", "b"), ("E3", "b")),
)


def _bubble_check(m: int, n: int, mp: int, np_: int, k: int, l: int) -> None:
    if k < l or l < 1:
        raise DomainError("bubble needs k >= l >= 1")
    if m + k != mp + l or n + k != np_ + l:
        raise DomainError("bubble colors must satisfy m+k = m'+l and n+k = n'+l")
    if min(m, n, mp, np_) < 0:
        raise DomainError("negative colors")


def _bubble_closure(
    m: int, n: int, mp: int, np_: int, closure: str,
    topbottom: tuple[int, ...], leftright: tuple[int, ...],
) -> dict[str, int]:
    """The edge colors (E1..E6) of the bubble graph for ``closure``."""
    if closure == "topbottom":
        if m != n or mp != np_:
            raise DomainError("topbottom closure needs m = n and m' = n'")
        return dict(zip(_BUBBLE_EDGES, topbottom))
    if closure == "leftright":
        if m != mp or n != np_:
            raise DomainError("leftright closure needs m = m' and n = n'")
        return dict(zip(_BUBBLE_EDGES, leftright))
    raise DomainError(f"unknown closure {closure!r}")


def bubble_lhs_network(
    m: int, n: int, mp: int, np_: int, k: int, l: int, closure: str
) -> ClosedNetwork:
    """Closure of the bubble skein element itself.

    Top-bottom, the bigons are the top cable and the band over the lens and
    the bottom cable and the band under it, joined by the boxes m+k and n+k;
    left-right, they are the left cable and the box m+k and the right cable
    and the box n+k, joined by the two bands.
    """
    _bubble_check(m, n, mp, np_, k, l)
    colors = _bubble_closure(
        m, n, mp, np_, closure,
        topbottom=(m, k, mp, l, m + k, n + k),
        leftright=(m, m + k, n, n + k, k, l),
    )
    return spin_network(_BUBBLE_VERTICES, colors)


def bubble_rhs_network(
    m: int, n: int, mp: int, np_: int, k: int, l: int, i: int, closure: str
) -> ClosedNetwork:
    """Closure of the i-th expansion element (turn-backs and throughs).

    Top-bottom, the bigons are the top cable and the i top turn-backs and
    the bottom cable and the k-l+i bottom turn-backs, joined by the two
    sides' through strands; left-right, they are the left cable and its
    throughs and the right cable and its throughs, joined by the two sets
    of turn-backs.
    """
    _bubble_check(m, n, mp, np_, k, l)
    if not (0 <= i <= min(m, n)) or k - l + i > min(mp, np_):
        raise DomainError(f"expansion index {i} out of range")
    colors = _bubble_closure(
        m, n, mp, np_, closure,
        topbottom=(m, i, mp, k - l + i, m - i, n - i),
        leftright=(m, m - i, n, n - i, i, k - l + i),
    )
    return spin_network(_BUBBLE_VERTICES, colors)


# -- braid closures -----------------------------------------------------------


def braid_network(word: Sequence[int], strands: int, n: int) -> ClosedNetwork:
    """The trace closure of a braid on ``strands`` strands, each cabled n times.

    Letter i > 0 of ``word`` is sigma_i, the crossing of strands i and i+1
    with over-strand "nesw" (the strand from i to i+1 on top); -i is
    sigma_i**-1 ("nwse").  Each cabled letter is n**2 crossings, and the
    closure arc of strand k runs through an f(n) box c<k>.
    """
    if strands < 1 or n < 0:
        raise DomainError("need strands >= 1 and n >= 0")
    for i in word:
        if not 0 < abs(i) < strands:
            raise DomainError(f"braid letter {i} out of range for {strands} strands")
    net = ClosedNetwork()
    if n == 0:
        return net
    # strand[p] = open endpoint (node, port) at the top of column p.
    strand: list[tuple[str, str]] = []
    for k in range(strands):
        net.add_box(f"c{k}", n)
        strand += [(f"c{k}", f"b{j}") for j in range(n)]
    for i in word:
        # One cabled sigma_|i|: the left cable crosses the right cable.
        over = "nesw" if i > 0 else "nwse"
        base = (abs(i) - 1) * n
        for a in range(n):
            for b in range(n):
                p = base + n - 1 - a + b
                name = net.add_crossing(f"x{len(net.crossings)}", over)
                net.add_arc(strand[p], (name, "sw"))
                net.add_arc(strand[p + 1], (name, "se"))
                strand[p] = (name, "nw")
                strand[p + 1] = (name, "ne")
    for p, end in enumerate(strand):
        net.add_arc(end, (f"c{p // n}", f"a{p % n}"))
    return net


def torus_knot_network(f: int, n: int) -> ClosedNetwork:
    """The (2, f) torus link diagram, both cables colored n.

    It is the closure of sigma_1**f, with f * n**2 crossings; its mirror is
    ``braid_network([-1] * f, 2, n)``.
    """
    if f < 1:
        raise DomainError("need f >= 1")
    return braid_network([1] * f, 2, n)
