"""Closed-form skein evaluations against spec examples and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintails import skein_formulas
from skeintails.errors import ConsistencyError, DomainError
from skeintails.networks import (
    bracket_closed,
    bubble_lhs_network,
    bubble_rhs_network,
    tet_network,
    theta_network,
    torus_knot_network,
)
from skeintails.qcore import (
    VFraction,
    VLaurent,
    delta_n,
    mul_poch_ratio,
    poch_inf,
    quantum_int,
)
from skeintails.skein_formulas import (
    bubble_coeff,
    chain_tail,
    colored_jones_torus,
    nn_i_coeff,
    p_coeff,
    tet_2n,
    theta_2n,
)
from skeintails.qidentities import false_ag_rhs, false_theta, theta_f
from skeintails.tails_engine import normalize
from skeintails.verifycases import bubble_sweep_cases


class TestBubbleCoeff:
    def test_examples(self):
        assert bubble_coeff(1, 1, 1, 1, 0).exact() == VFraction(
            quantum_int(4).scale(-1), quantum_int(2) ** 2
        )
        assert bubble_coeff(1, 1, 1, 1, 1).exact() == VFraction(
            VLaurent.one(), quantum_int(2) ** 2
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bubble_coeff(1, 1, 1, 2, 0)  # k < l
        with pytest.raises(DomainError):
            bubble_coeff(2, 2, 2, 2, 3)  # i > min(m, n, l)
        with pytest.raises(DomainError):
            bubble_coeff(1, 1, 1, 0, 0)  # l < 1

    def test_i_equals_l_sign(self):
        # the i = l term has sign +1 and trivial q-power
        c = bubble_coeff(2, 2, 2, 2, 2).exact()
        want = VFraction(
            (quantum_int(2) * quantum_int(1) * quantum_int(2) * quantum_int(1)),
            (quantum_int(4) * quantum_int(4) * quantum_int(3) * quantum_int(3)),
        )
        assert c == want


class TestThetaTet:
    def test_theta_values(self):
        assert theta_2n(0).exact() == VFraction.one()
        want1 = VFraction(
            (quantum_int(4) * quantum_int(3)).scale(-1), quantum_int(2) ** 2
        )
        assert theta_2n(1).exact() == want1

    def test_theta_against_oracle(self):
        for n in (1, 2):
            got = bracket_closed(theta_network(2 * n, 2 * n, 2 * n))
            assert theta_2n(n).exact() == got

    def test_tet_base(self):
        assert tet_2n(0) == VFraction.one()

    def test_tet_against_oracle_n1(self):
        assert tet_2n(1) == bracket_closed(tet_network(2))

    def test_tet_against_oracle_n2(self):
        assert tet_2n(2) == bracket_closed(tet_network(4))


class TestBubbleOracle:
    def test_expansion_matches_oracle(self):
        cases = list(bubble_sweep_cases(2))
        assert len(cases) >= 20
        for m, n, mp, np_, k, l, closure in cases:
            lhs = bracket_closed(bubble_lhs_network(m, n, mp, np_, k, l, closure))
            rhs = VFraction.zero()
            for i in range(min(m, n, l) + 1):
                rhs = rhs + bubble_coeff(m, n, k, l, i).exact() * bracket_closed(
                    bubble_rhs_network(m, n, mp, np_, k, l, i, closure)
                )
            assert lhs == rhs, (m, n, mp, np_, k, l, closure)


class TestPCoeff:
    def test_definition(self):
        for n in (1, 2, 3):
            want = bubble_coeff(n, n, n, n, 0).exact() * VFraction(
                delta_n(2 * n), delta_n(n)
            )
            assert p_coeff(n, 0).exact() == want

    def test_p11(self):
        # ceil[1 1; 1 1]_1 * Delta_2/Delta_2 = 1/[2]^2
        assert p_coeff(1, 1).exact() == VFraction(VLaurent.one(), quantum_int(2) ** 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            p_coeff(0, 0)
        with pytest.raises(DomainError):
            p_coeff(2, 3)


class TestNNICoeff:
    def test_matches_bubble_coeff(self):
        # Equal terms, and (independent of the term's canonical form) equal
        # exact values.
        for n in range(1, 5):
            for i in range(n + 1):
                for j in range(i + 1):
                    got, want = nn_i_coeff(n, i, j), bubble_coeff(n, i, n, n, j)
                    assert got == want
                    assert got.exact() == want.exact()

    def test_j0_specialization(self):
        # (q;q)-form of the j = 0 coefficient, checked independently
        from skeintails.qcore import poch_finite

        for n in range(1, 5):
            for i in range(n + 1):
                pq = lambda t: poch_finite(1, 1, t)
                sign = -1 if n % 2 else 1
                want = VFraction.from_poly(
                    VLaurent.monomial(sign, -2 * n)
                ) * VFraction(
                    pq(i) * pq(n) ** 2 * pq(2 * n + i + 1),
                    pq(n + i + 1) * pq(n + i) * pq(2 * n),
                )
                assert nn_i_coeff(n, i, 0).exact() == want

    def test_j_above_i(self):
        with pytest.raises(DomainError):
            nn_i_coeff(3, 1, 2)


class TestColoredJonesTorus:
    def test_color_zero(self):
        for f in (1, 2, 3, 7):
            assert colored_jones_torus(f, 0) == VLaurent.one()

    def test_trefoil_color_one(self):
        # J~/Delta_1 of the (2,3) torus knot is the classical bracket value
        want = VLaurent({5: -1, -3: -1, -7: 1})
        assert colored_jones_torus(3, 1) == want

    def test_division_is_exact_for_many(self):
        for f in range(1, 8):
            for n in range(6):
                colored_jones_torus(f, n)  # raises ConsistencyError on failure

    def test_against_oracle(self):
        for f, n in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)]:
            bracket = bracket_closed(torus_knot_network(f, n))
            poly = bracket.to_vlaurent().div_exact(delta_n(n))
            assert normalize(poly) == normalize(colored_jones_torus(f, n))

    def test_f3_tail_prefix(self):
        # the (2,3) tails approach (q;q)_inf
        s = normalize(colored_jones_torus(3, 4))
        assert list(s.coeffs[:4]) == list(poch_inf(1, 4).coeffs)

    def test_domain(self):
        with pytest.raises(DomainError):
            colored_jones_torus(0, 1)
        with pytest.raises(DomainError):
            colored_jones_torus(0, 1, order=3)
        with pytest.raises(DomainError):
            colored_jones_torus(3, -1, order=3)
        with pytest.raises(DomainError):
            colored_jones_torus(3, 2, order=-1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 14), st.data())
    def test_order_is_the_normalized_prefix(self, f, n, data):
        k = data.draw(st.integers(1, 2 * n + 4))
        want = normalize(colored_jones_torus(f, n), k)
        assert colored_jones_torus(f, n, order=k) == want

    def test_order_path_refuses_a_remainder(self):
        # 1 - q sums to 0 but not on each class mod 2: (1 - q^2) does not
        # divide it.  1 - q^4 is divisible by (1 - q^2), to 1 + q^2.
        one_minus_q = VLaurent({0: 1, 4: -1})
        for num, m in ((one_minus_q, 2), (VLaurent({-8: 2, 12: 1}), 3)):
            with pytest.raises(ConsistencyError):
                skein_formulas._normalized_quotient(num, m, 4)
            with pytest.raises(ConsistencyError):
                mul_poch_ratio(num, (), [m])
        got = skein_formulas._normalized_quotient(VLaurent({0: 1, 16: -1}), 2, 4)
        assert got.coeffs == (1, 0, 1, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.dictionaries(
            st.integers(-8, 8), st.integers(-5, 5).filter(bool), min_size=1, max_size=6
        ),
        r=st.integers(0, 3),
        m=st.integers(1, 6),
        order=st.integers(0, 20),
        bump=st.none()
        | st.tuples(st.integers(-8, 12), st.integers(-3, 3).filter(bool)),
    )
    def test_order_path_divides_only_exactly(self, p, r, m, order, bump):
        """The order path's quotient (1 - q^m) | num agrees with the exact
        division: the prefix of the quotient when it divides, and
        ConsistencyError when it leaves a remainder."""
        num = VLaurent({4 * j + r: c for j, c in p.items()})
        num = num * VLaurent({0: 1, 4 * m: -1})
        if bump is not None:
            num = num + VLaurent({4 * bump[0] + r: bump[1]})
        try:
            exact = mul_poch_ratio(num, (), [m])
        except ConsistencyError:
            with pytest.raises(ConsistencyError):
                skein_formulas._normalized_quotient(num, m, order)
            return
        if exact.is_zero():
            return
        want = normalize(exact, order)
        assert skein_formulas._normalized_quotient(num, m, order) == want


class TestChainTail:
    def test_even_k1_is_poch(self):
        assert chain_tail("even", 1, 20) == poch_inf(1, 20)

    def test_odd_k1_is_entry9(self):
        # (q;q)_inf sum q^(l(l+1))/(q;q)_l^2 = Psi(q^3, q)
        assert chain_tail("odd", 1, 30) == false_theta(2, 30)
        assert chain_tail("odd", 1, 30) == false_ag_rhs(2, 30)

    def test_even_k2_is_rogers_ramanujan(self):
        assert chain_tail("even", 2, 40) == theta_f(2, 40)

    def test_domain(self):
        with pytest.raises(DomainError):
            chain_tail("even", 0, 10)
        with pytest.raises(DomainError):
            chain_tail("sideways", 1, 10)
