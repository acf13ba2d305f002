"""Closed-network brackets: Kauffman relations, spin networks, text format."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skeintails import networks, qidentities, skein_formulas
from skeintails.errors import CapacityError, DomainError
from skeintails.networks import (
    MAX_FREE_LOOPS,
    ClosedNetwork,
    braid_network,
    bracket_closed,
    bubble_lhs_network,
    bubble_rhs_network,
    closed_projector,
    kinked_loop,
    loop_network,
    tet_network,
    theta_network,
    torus_knot_network,
)
from skeintails.qcore import (
    V_LOOP,
    PochTerm,
    QSeries,
    VFraction,
    VLaurent,
    delta_n,
    quantum_int,
)
from skeintails.skein_formulas import colored_jones_torus, tet_2n, theta_2n
from skeintails.tails_engine import normalize
from skeintails.tl_oracle import MAX_BOX_COLOR, join, jones_wenzl
from skeintails.verifycases import bubble_sweep_cases, run_check

DELTA = VFraction.from_poly(VLaurent({2: -1, -2: -1}))


class TestKauffmanRelations:
    def test_empty_link_is_one(self):
        assert bracket_closed(ClosedNetwork()) == VFraction.one()

    def test_single_loop(self):
        assert bracket_closed(loop_network()) == DELTA

    def test_many_loops(self):
        assert bracket_closed(loop_network(3)) == DELTA**3

    def test_kinks(self):
        pos = bracket_closed(kinked_loop("nesw"))
        neg = bracket_closed(kinked_loop("nwse"))
        assert pos == VFraction.from_poly(VLaurent.monomial(-1, 3)) * DELTA
        assert neg == VFraction.from_poly(VLaurent.monomial(-1, -3)) * DELTA

    def test_closed_projectors(self):
        for n in range(1, 5):
            got = bracket_closed(closed_projector(n))
            assert got == VFraction.from_poly(delta_n(n))

    def test_hopf_link_value(self):
        # <sigma_1^2 trace closure> = -A^4 - A^-4 times one loop factor
        net = torus_knot_network(2, 1)
        want = VFraction.from_poly(VLaurent({4: -1, -4: -1})) * DELTA
        assert bracket_closed(net) == want

    @pytest.mark.parametrize("f,n", [(3, 1), (2, 2), (3, 2), (1, 3)])
    def test_mirror_torus_diagrams(self, f, n):
        # Swapping every over-strand swaps the smoothings: v -> v^-1.
        pos = bracket_closed(torus_knot_network(f, n)).to_vlaurent()
        neg = bracket_closed(braid_network([-1] * f, 2, n)).to_vlaurent()
        assert neg == pos.mirror()


class TestSpinNetworks:
    def test_theta_small_values(self):
        # Theta(1,1,2) = [3]; Theta(2,2,2) = -[4][3]/[2]^2
        assert bracket_closed(theta_network(1, 1, 2)) == VFraction.from_poly(
            quantum_int(3)
        )
        want = VFraction(
            (quantum_int(4) * quantum_int(3)).scale(-1), quantum_int(2) ** 2
        )
        got = bracket_closed(theta_network(2, 2, 2))
        assert got == want
        # want keeps the common factor [2]; the oracle returns the reduced
        # form, whose denominator is v^2 [2].
        assert want.den == VLaurent({0: 1, 4: 2, 8: 1})
        r = want.reduced()
        assert (got.num, got.den) == (r.num, r.den)
        assert got.den == VLaurent({0: 1, 4: 1})

    @pytest.mark.parametrize(
        "net, formula, n",
        [
            (tet_network(6), tet_2n, 3),
            (theta_network(8, 8, 8), lambda n: theta_2n(n).exact(), 4),
        ],
        ids=["tet-n3", "theta-8-8-8"],
    )
    def test_projector_heavy_networks(self, net, formula, n):
        # 1,855,524 and 2,046,330 joins with every state kept; dropping the
        # states a projector annihilates leaves 7,128 and 10,010.
        assert bracket_closed(net) == formula(n)

    def test_theta_degenerate_edge(self):
        # Theta(n, n, 0) is the closed n-projector
        assert bracket_closed(theta_network(2, 2, 0)) == VFraction.from_poly(delta_n(2))

    def test_inadmissible_vertex_rejected(self):
        with pytest.raises(DomainError):
            theta_network(1, 1, 1)
        with pytest.raises(DomainError):
            theta_network(1, 2, 5)
        with pytest.raises(DomainError):
            theta_network(-1, 1, 0)

    def test_theta_serialization_is_pinned(self):
        assert theta_network(1, 1, 2).serialize() == (
            "box A color 1\nbox B color 1\nbox C color 2\n"
            "arc B.a0 C.a0\narc C.a1 A.a0\narc C.b0 B.b0\narc A.b0 C.b1\n"
        )

    def test_tet_inadmissible(self):
        # All edges colored 1 gives odd vertex sums
        with pytest.raises(DomainError):
            tet_network(1)


class TestBraidNetworks:
    def test_eight_five_jones_coefficients(self):
        # sigma_1^3 sigma_2^-1 sigma_1^3 sigma_2^-1 closes to 8_5 (KnotInfo's
        # braid word); the absolute values sum to its determinant, 21.
        net = braid_network((1, 1, 1, -2, 1, 1, 1, -2), 3, 1)
        jones = bracket_closed(net).to_vlaurent().div_exact(delta_n(1))
        coeffs = [c for _, c in sorted(jones.terms.items(), reverse=True)]
        assert coeffs == [1, -1, 3, -3, 3, -4, 3, -2, 1]
        assert sum(map(abs, coeffs)) == 21

    def test_tail85_oracle_check(self, monkeypatch):
        ok, detail = run_check("tail85_oracle", {"n_max": 2})
        assert ok, detail
        # A wrong second coefficient is caught at n = 1.
        monkeypatch.setattr(qidentities, "tail_85", lambda order: QSeries([1] * order))
        assert run_check("tail85_oracle", {"n_max": 2}) == (
            False, "8_5 braid closure differs from tail_85 at n=1"
        )

    def test_bad_letters_rejected(self):
        for word, strands in (([0], 3), ([3], 3), ([-3], 3), ([1], 1)):
            with pytest.raises(DomainError):
                braid_network(word, strands, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        word=st.lists(st.sampled_from((1, 2, -1, -2)), max_size=6),
        at=st.integers(0, 6),
        letter=st.sampled_from((1, 2, -1, -2)),
        sign=st.sampled_from((1, -1)),
    )
    def test_braid_moves_keep_the_bracket(self, word, at, letter, sign):
        # Cancelling letters (Reidemeister II), the braid relation (III) and
        # conjugation (turning the closure) are regular isotopies.
        at = min(at, len(word))

        def bracket(w):
            return bracket_closed(braid_network(w, 3, 1))

        want = bracket(word)
        assert bracket(word[:at] + [letter, -letter] + word[at:]) == want
        assert bracket(word[at:] + word[:at]) == want
        s1, s2 = sign, 2 * sign
        assert bracket(word[:at] + [s1, s2, s1] + word[at:]) == bracket(
            word[:at] + [s2, s1, s2] + word[at:]
        )


class TestCapacity:
    @pytest.mark.parametrize(
        "net, work, step",
        [
            (tet_network(8), 122_980, 4),  # tet n=4
            (torus_knot_network(3, 5), 122_486, 25),
            (braid_network((1, 1, 1, -2, 1, 1, 1, -2), 3, 3), 101_181, 50),  # 8_5
        ],
        ids=["tet-n4", "torus-3-5", "eight-five-n3"],
    )
    def test_work_limit(self, net, work, step):
        nodes = len(net.boxes) + len(net.crossings)
        with pytest.raises(
            CapacityError,
            match=rf"^contraction work {work} \(states x terms\) exceeds limit "
            rf"100000 at node {step} of {nodes}$",
        ):
            bracket_closed(net)

    @pytest.mark.parametrize("f, n", [(3, 3), (6, 2), (20, 2), (5, 3)])
    def test_under_work_limit_evaluates(self, f, n):
        # 27, 80 and 45 crossings: the work bound, not the crossing count,
        # decides what runs.
        got = bracket_closed(torus_knot_network(f, n)).to_vlaurent()
        got = normalize(got.div_exact(delta_n(n)))
        assert got == normalize(colored_jones_torus(f, n))

    def test_work_limit_is_checked_before_the_step(self, monkeypatch):
        # torus (3,3) needs exactly 3217 joins, 4 of them in the last step.
        # One less refuses it before that step runs; at 3217 it evaluates.
        net = torus_knot_network(3, 3)
        want = bracket_closed(net)
        steps = []
        real_join = networks.join

        def counting_join(*args):
            steps.append(1)
            return real_join(*args)

        monkeypatch.setattr(networks, "join", counting_join)
        monkeypatch.setattr(networks, "MAX_CONTRACTION_WORK", 3216)
        with pytest.raises(CapacityError, match=r"work 3217 .* limit 3216 at node 29 of 29"):
            bracket_closed(net)
        refused = len(steps)
        monkeypatch.setattr(networks, "MAX_CONTRACTION_WORK", 3217)
        steps.clear()
        assert bracket_closed(net) == want
        assert (refused, len(steps)) == (3213, 3217)

    def test_box_color_limit(self):
        assert MAX_BOX_COLOR == 8
        with pytest.raises(CapacityError, match=r"color 9 exceeds limit 8"):
            bracket_closed(closed_projector(9))

    def test_oversized_box_rejected_before_validation(self):
        # The box has no arcs, so validation would fail too; the size
        # check runs first and names both the size and the limit.
        net = ClosedNetwork.parse("box p color 2000\n")
        with pytest.raises(CapacityError, match=r"color 2000 exceeds limit 8"):
            bracket_closed(net)


class TestValidation:
    def test_unused_port(self):
        net = ClosedNetwork()
        net.add_box("p", 1)
        with pytest.raises(DomainError):
            bracket_closed(net)

    def test_double_used_port(self):
        net = ClosedNetwork()
        net.add_box("p", 1)
        net.add_arc(("p", "a0"), ("p", "b0"))
        net.add_arc(("p", "a0"), ("p", "b0"))
        with pytest.raises(DomainError):
            net.validate()

    def test_duplicate_names(self):
        net = ClosedNetwork()
        net.add_box("p", 1)
        with pytest.raises(DomainError):
            net.add_crossing("p")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("box p color 1\narc p.a0 q.b0\n", "unknown node 'q'"),
            ("box p color 1\narc p.a0 p.a1\n", "no port 'a1' on node 'p'"),
            ("cross x over nesw\narc x.nw x.up\n", "no port 'up' on node 'x'"),
            ("box p color 1\n", "port p.a0 used 0 times"),
            ("box p color 1\narc p.a0 p.b0\narc p.b0 p.a0\n", "port p.a0 used 2 times"),
            # An endpoint fault is reported before any port count, and the
            # first faulty endpoint in arc order wins.
            ("box p color 2\narc p.a0 p.a0\narc p.b0 q.a0\narc p.a2 r.b0\n",
             "unknown node 'q'"),
            ("box p color 2\narc p.a0 p.a0\narc p.b0 p.b2\narc s.a0 p.b1\n",
             "no port 'b2' on node 'p'"),
            # Port counts: boxes before crossings, each in declaration order,
            # ports in the order of ports_of.
            ("cross x over nesw\nbox p color 2\narc p.a1 p.b0\narc p.b1 p.b1\n",
             "port p.a0 used 0 times"),
            ("box p color 2\nbox r color 1\narc p.a0 p.b0\narc p.a1 p.b0\n",
             "port p.b0 used 2 times"),
            ("box p color 1\ncross x over nesw\narc p.a0 p.b0\narc x.nw x.ne\n",
             "port x.se used 0 times"),
        ],
        ids=["unknown-node", "box-port", "crossing-port", "unused", "used-twice",
             "first-endpoint-unknown", "first-endpoint-port", "boxes-first",
             "port-order", "crossing-count"],
    )
    def test_validation_messages(self, text, message):
        net = ClosedNetwork.parse(text)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            net.validate()
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            bracket_closed(net)


class TestTextFormat:
    def test_round_trip(self):
        net = torus_knot_network(3, 1)
        text = net.serialize()
        again = ClosedNetwork.parse(text)
        assert again.serialize() == text
        assert bracket_closed(again) == bracket_closed(net)

    def test_round_trip_with_loops_and_boxes(self):
        net = theta_network(2, 2, 2)
        net.add_loops(2)
        again = ClosedNetwork.parse(net.serialize())
        assert bracket_closed(again) == bracket_closed(net)

    def test_comments_and_errors(self):
        net = ClosedNetwork.parse(
            "# a lone loop\nloops 1\n"
        )
        assert bracket_closed(net) == DELTA
        with pytest.raises(DomainError):
            ClosedNetwork.parse("bogus statement here\n")
        with pytest.raises(DomainError):
            ClosedNetwork.parse("box p color x\n")
        with pytest.raises(DomainError):
            ClosedNetwork.parse("arc p.a0\n")

    def test_errors_keep_line_number(self):
        for text in (
            "box p color 1\nbox p color 2\n",
            "box p color 1\nbox q color 0\n",
            "box p color 1\ncross x over up\n",
            "box p color 1\nloops -1\n",
        ):
            with pytest.raises(DomainError, match=r"^line 2: "):
                ClosedNetwork.parse(text)

    def test_port_names_checked_against_color(self):
        closed_projector(10).validate()
        for port in ("a10", "a01", "c0", "a", "a-1", "a" + "9" * 5000):
            net = closed_projector(10)
            net.arcs[0] = (("p", port), ("p", "b0"))
            with pytest.raises(DomainError, match="no port"):
                net.validate()


def _admissible(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and a <= b + c and b <= a + c and c <= a + b


@st.composite
def _random_networks(draw):
    """A theta, tetrahedron or (2, f) torus network with admissible colours
    within the oracle's capacity, plus random free loops."""
    small = st.integers(0, 3)
    kind = draw(st.sampled_from(("theta", "tet", "torus")))
    if kind == "theta":
        # (x+y, y+z, z+x) runs over every admissible triple.
        x, y, z = draw(small), draw(small), draw(small)
        net = theta_network(x + y, y + z, z + x)
    elif kind == "tet":
        # Admissible at V1, then V2, then V3 by construction; V4 is filtered.
        x, y, z = draw(small), draw(small), draw(small)
        c = {"e12": x + y, "e13": y + z, "e14": z + x}
        t, u = draw(st.integers(0, c["e12"])), draw(small)
        c["e24"], c["e23"] = t + u, c["e12"] - t + u
        k = draw(st.integers(0, min(c["e23"], c["e13"])))
        c["e34"] = c["e23"] + c["e13"] - 2 * k
        assume(_admissible(c["e34"], c["e24"], c["e14"]))
        net = tet_network(c)
    else:
        n = draw(small)
        f = draw(st.integers(1, 12 // max(n * n, 1)))
        net = braid_network([draw(st.sampled_from((1, -1)))] * f, 2, n)
    assume(max(net.boxes.values(), default=0) <= 8)
    assume(sum(net.boxes.values()) <= 24)
    net.add_loops(draw(st.integers(0, MAX_FREE_LOOPS)))
    return net


@settings(max_examples=200, deadline=None)
@given(net=_random_networks())
def test_parse_inverts_serialize(net):
    net.validate()
    text = net.serialize()
    again = ClosedNetwork.parse(text)
    assert again.serialize() == text
    assert again.boxes == net.boxes
    assert again.crossings == net.crossings
    assert again.arcs == net.arcs
    assert again.free_loops == net.free_loops


# -- colour-1 boxes: f(1) is the identity strand ------------------------------


def _ring(net: ClosedNetwork, k: int, prefix: str) -> None:
    """Add a ring of k colour-1 boxes, each a0 joined to the next one's b0."""
    names = [net.add_box(f"{prefix}{j}", 1) for j in range(k)]
    for j, name in enumerate(names):
        net.add_arc((name, "a0"), (names[(j + 1) % k], "b0"))


@st.composite
def _with_strand_boxes(draw):
    """A random network, and a copy with chains of colour-1 boxes (either
    way round) on random arcs and rings of them beside it."""
    net = draw(_random_networks())
    out = ClosedNetwork()
    out.boxes, out.crossings = dict(net.boxes), dict(net.crossings)
    out.free_loops = net.free_loops
    for i, (e1, e2) in enumerate(net.arcs):
        end = e1
        for j in range(draw(st.integers(0, 2))):
            name = out.add_box(f"s{i}_{j}", 1)
            near, far = draw(st.sampled_from((("a0", "b0"), ("b0", "a0"))))
            out.add_arc(end, (name, near))
            end = (name, far)
        out.add_arc(end, e2)
    rings = draw(st.lists(st.integers(1, 3), max_size=2))
    for r, k in enumerate(rings):
        _ring(out, k, f"r{r}_")
    return net, out, len(rings)


@settings(max_examples=60, deadline=None)
@given(pair=_with_strand_boxes())
def test_colour_one_boxes_are_plain_strands(pair):
    net, with_boxes, rings = pair
    # bracket_closed returns the gcd-reduced form; the product by delta may
    # share a factor with its denominator ([2] = v^-2 (1 + v^4) = -delta),
    # so it is reduced too before the stored forms are compared.
    want = (bracket_closed(net) * DELTA**rings).reduced()
    got = bracket_closed(with_boxes)
    assert (got.num, got.den) == (want.num, want.den)


class TestColourOneBoxes:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_ring_is_one_loop(self, k):
        net = ClosedNetwork()
        _ring(net, k, "p")
        got, want = bracket_closed(net), bracket_closed(loop_network(1))
        assert (got.num, got.den) == (want.num, want.den)

    def test_ring_count_limit(self):
        # Each ring is a factor of delta, as a declared loop is; a network
        # may hold MAX_FREE_LOOPS rings besides its declared loops.
        net = loop_network(MAX_FREE_LOOPS)
        for r in range(MAX_FREE_LOOPS):
            _ring(net, 1 + r % 2, f"r{r}_")
        assert bracket_closed(net) == DELTA ** (2 * MAX_FREE_LOOPS)
        _ring(net, 1, "last")
        with pytest.raises(
            CapacityError,
            match=rf"^{MAX_FREE_LOOPS + 1} rings of colour-1 boxes exceed limit "
            rf"{MAX_FREE_LOOPS}$",
        ):
            bracket_closed(net)

    def test_no_projector_for_colour_one(self, monkeypatch):
        # A colour-1 box is spliced out: no f(1) is built and no join runs.
        built = []
        real = networks.jones_wenzl
        monkeypatch.setattr(
            networks, "jones_wenzl", lambda n: built.append(n) or real(n)
        )
        monkeypatch.setattr(networks, "join", None)
        net = ClosedNetwork()
        _ring(net, 3, "p")
        assert bracket_closed(net) == DELTA
        assert bracket_closed(theta_network(1, 1, 0)) == DELTA
        assert built == []
        monkeypatch.undo()
        # In the (2, 3) torus at colour 1 only the three crossings expand,
        # in 10 joins (12 at five nodes when the two boxes expanded too).
        net = torus_knot_network(3, 1)
        monkeypatch.setattr(networks, "MAX_CONTRACTION_WORK", 9)
        with pytest.raises(
            CapacityError, match=r"^contraction work 10 .* at node 3 of 3$"
        ):
            bracket_closed(net)
        monkeypatch.setattr(networks, "MAX_CONTRACTION_WORK", 10)
        got, want = bracket_closed(net), _reference_bracket(net, max_work=100)
        assert (got.num, got.den) == (want.num, want.den)


class TestBubbleNetworks:
    def test_existence_constraints(self):
        with pytest.raises(DomainError):
            bubble_lhs_network(1, 1, 1, 1, 2, 1, "topbottom")  # m' must be 2
        with pytest.raises(DomainError):
            bubble_rhs_network(1, 1, 1, 1, 1, 1, 3, "leftright")

    # Each bubble below exists (m+k = m'+l, n+k = n'+l), so only the
    # closure is at fault.
    @pytest.mark.parametrize(
        "closure,colors,message",
        [
            ("topbottom", (1, 2, 1, 2), "topbottom closure needs m = n and m' = n'"),
            ("leftright", (1, 1, 2, 2), "leftright closure needs m = m' and n = n'"),
            ("sideways", (1, 1, 1, 1), "unknown closure 'sideways'"),
        ],
        ids=["topbottom-m-ne-n", "leftright-m-ne-mp", "unknown"],
    )
    def test_closure_refusals(self, closure, colors, message):
        m, n, mp, np_ = colors
        k, l = mp - m + 1, 1
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            bubble_lhs_network(m, n, mp, np_, k, l, closure)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            bubble_rhs_network(m, n, mp, np_, k, l, 0, closure)

    def test_bubble_oracle_contracts_each_network_once(self, monkeypatch):
        # 67 brackets over 26 closures, of 38 distinct networks.
        texts = []
        real = networks.bracket_closed

        def counting(net):
            texts.append(net.serialize())
            return real(net)

        monkeypatch.setattr(networks, "bracket_closed", counting)
        assert run_check("bubble_oracle", {"max_param": 2}) == (
            True, "bubble expansion matches the oracle on 26 closures"
        )
        assert len(texts) == len(set(texts)) == 38

    def test_bubble_oracle_compares_every_closure(self, monkeypatch):
        # A coefficient that is wrong only where it multiplies an i = 2 term
        # is caught at the first closure with such a term.
        real = skein_formulas.bubble_coeff
        monkeypatch.setattr(
            skein_formulas, "bubble_coeff",
            lambda m, n, k, l, i: real(m, n, k, l, i) * PochTerm(2 if i == 2 else 1, 0),
        )
        assert run_check("bubble_oracle", {"max_param": 2}) == (
            False, "bubble expansion fails at (2, 2, 2, 2, 2, 2, 'topbottom')"
        )

    def test_smallest_bubble_closures(self):
        # (1,1,1,1;1,1) closed top-bottom is the two-bead necklace, whose
        # value is Theta(1,1,2) = [3]; the left-right closure traces the
        # corner cables the other way and gives a different link.
        want = VFraction.from_poly(quantum_int(3))
        top = bracket_closed(bubble_lhs_network(1, 1, 1, 1, 1, 1, "topbottom"))
        assert top == want
        lhs = bracket_closed(bubble_lhs_network(1, 1, 1, 1, 1, 1, "leftright"))
        assert lhs != want


# -- a reference contraction with no pruning ---------------------------------

# (A-smoothing, B-smoothing) on the port indices of nw, ne, se, sw.
_REF_SMOOTHINGS = {
    "nesw": ((3, 2, 1, 0), (1, 0, 3, 2)),
    "nwse": ((1, 0, 3, 2), (3, 2, 1, 0)),
}


class _TooMuchWork(Exception):
    pass


def _reference_bracket(net: ClosedNetwork, max_work: int) -> VFraction:
    """The bracket by plain contraction: nodes in BFS order over the arc
    graph, every state kept (none dropped as annihilated by a projector)."""
    terms, den = {}, VLaurent.one()
    for name, color in net.boxes.items():
        f = jones_wenzl(color)
        terms[name] = list(f.terms.items())
        den = den * f.den
    for name, over in net.crossings.items():
        smooth_a, smooth_b = _REF_SMOOTHINGS[over]
        terms[name] = [
            (smooth_a, VLaurent.monomial(1, 1)),
            (smooth_b, VLaurent.monomial(1, -1)),
        ]
    ids: dict = {}
    ports = {
        name: [ids.setdefault((name, p), len(ids)) for p in net.ports_of(name)]
        for name in terms
    }
    owner = {p: name for name, ps in ports.items() for p in ps}
    pairing = {}
    for e1, e2 in net.arcs:
        pairing[ids[e1]], pairing[ids[e2]] = ids[e2], ids[e1]
    order: list = []
    for start in sorted(terms):
        if start in order:
            continue
        order.append(start)
        queue = [start]
        while queue:
            node = queue.pop(0)
            for nb in sorted({owner[pairing[p]] for p in ports[node]}):
                if nb not in order:
                    order.append(nb)
                    queue.append(nb)
    states = {tuple(sorted(pairing.items())): V_LOOP**net.free_loops}
    work = 0
    for name in order:
        work += len(states) * len(terms[name])
        if work > max_work:
            raise _TooMuchWork
        mine = set(ports[name])
        new: dict = {}
        for key, coeff in states.items():
            pr = dict(key)
            ends = [p for p in pr if p not in mine]
            for local, c in terms[name]:
                glue = {p: ports[name][j] for p, j in zip(ports[name], local)}
                partner, loops = join(pr, glue, ends)
                k = tuple(sorted((ends[i], ends[j]) for i, j in enumerate(partner)))
                c = coeff * c * V_LOOP**loops
                new[k] = new[k] + c if k in new else c
        states = new
    return VFraction(states.get((), VLaurent()), den).reduced()


def _old_cap_fixtures():
    """The networks the tests and suites evaluate that fit under the work
    cap in BFS order with no pruning."""
    yield "loops", loop_network(3)
    for over in ("nesw", "nwse"):
        yield f"kink-{over}", kinked_loop(over)
    for n in range(1, 5):
        yield f"closed-f{n}", closed_projector(n)
    for colors in ((1, 1, 2), (2, 2, 2), (2, 3, 3), (2, 2, 0), (4, 4, 4)):
        yield f"theta{colors}", theta_network(*colors)
    yield "tet-2", tet_network(2)
    yield "tet-4", tet_network(4)
    yield "tet-mixed", tet_network(
        {"e12": 2, "e13": 2, "e14": 2, "e23": 2, "e24": 4, "e34": 2}
    )
    for f, n in ((2, 1), (3, 1), (12, 1), (2, 2), (3, 2), (6, 2), (20, 2), (1, 3),
                 (3, 3)):
        yield f"torus-{f}-{n}", torus_knot_network(f, n)
    yield "torus-3-2-nwse", braid_network([-1] * 3, 2, 2)
    for m, n, mp, np_, k, l, closure in bubble_sweep_cases(2):
        yield f"bubble-lhs{(m, n, mp, np_, k, l, closure)}", bubble_lhs_network(
            m, n, mp, np_, k, l, closure
        )
        for i in range(0, min(m, n, l) + 1):
            yield f"bubble-rhs{(m, n, mp, np_, k, l, i, closure)}", (
                bubble_rhs_network(m, n, mp, np_, k, l, i, closure)
            )


@pytest.mark.parametrize(
    "net", [pytest.param(net, id=label) for label, net in _old_cap_fixtures()]
)
def test_contraction_matches_reference(net):
    want = _reference_bracket(net, max_work=100_000)
    got = bracket_closed(net)
    assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=25, deadline=None)
@given(net=_random_networks())
def test_random_contraction_matches_reference(net):
    try:
        want = _reference_bracket(net, max_work=5_000)
    except _TooMuchWork:
        assume(False)
    got = bracket_closed(net)
    assert (got.num, got.den) == (want.num, want.den)
