"""Temperley-Lieb diagram algebra and Jones-Wenzl projector laws."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintails.errors import CapacityError, DomainError
from skeintails.qcore import (
    V_LOOP,
    VFraction,
    VLaurent,
    delta_n,
    quantum_fact,
    quantum_int,
)
from skeintails.tl_oracle import (
    TLElement,
    _clasp,
    coeff_of,
    hook_matching,
    jones_wenzl,
)
from tl_diagrams import enumerate_matchings, is_planar, to_parens


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _diagram(element: TLElement) -> tuple[int, ...]:
    """The one diagram of a single-diagram element."""
    (d,) = element.terms
    return d


# The coefficients of f(4) and f(5), gcd-reduced, as computed by Wenzl's
# recursion over VFraction coefficients (before the TL layer moved to
# integer numerators over one denominator).  Keyed by the diagram's
# parenthesis word; each value is (numerator, denominator) as
# (v-exponent, coefficient) pairs.
_JW_GOLDEN = {
    4: {
        "(((())))": ([(0, 1)], [(0, 1)]),
        "((()()))": ([(2, 1), (6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1)]),
        "((())())": ([(4, 1)], [(0, 1), (8, 1)]),
        "((()))()": ([(6, 1)], [(0, 1), (4, 1), (8, 1), (12, 1)]),
        "(()(()))": ([(4, 1)], [(0, 1), (8, 1)]),
        "(()()())": ([(2, 1), (6, 1)], [(0, 1), (8, 1)]),
        "(()())()": ([(4, 1)], [(0, 1), (8, 1)]),
        "(())(())": ([(8, 1)], [(0, 1), (4, 1), (8, 2), (12, 1), (16, 1)]),
        "(())()()": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 2), (12, 1), (16, 1)]),
        "()((()))": ([(6, 1)], [(0, 1), (4, 1), (8, 1), (12, 1)]),
        "()(()())": ([(4, 1)], [(0, 1), (8, 1)]),
        "()(())()": ([(2, 1), (6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1)]),
        "()()(())": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 2), (12, 1), (16, 1)]),
        "()()()()": (
            [(4, 1), (8, 2), (12, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 1), (16, 1)],
        ),
    },
    5: {
        "((((()))))": ([(0, 1)], [(0, 1)]),
        "(((()())))": (
            [(2, 1), (6, 1), (10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "(((())()))": (
            [(4, 1), (8, 1), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "(((()))())": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "(((())))()": ([(8, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "((()(())))": (
            [(4, 1), (8, 1), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "((()()()))": (
            [(2, 1), (6, 2), (10, 2), (14, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "((()())())": (
            [(4, 1), (8, 2), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "((()()))()": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "((())(()))": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "((())()())": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "((())())()": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "((()))(())": (
            [(12, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "((()))()()": (
            [(10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(()((())))": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "(()(()()))": (
            [(4, 1), (8, 2), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "(()(())())": (
            [(2, 1), (6, 2), (10, 2), (14, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "(()(()))()": (
            [(4, 1), (8, 1), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "(()()(()))": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(()()()())": (
            [(4, 1), (8, 3), (12, 4), (16, 3), (20, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(()()())()": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(()())(())": (
            [(10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(()())()()": (
            [(8, 1), (12, 2), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(())((()))": (
            [(12, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(())(()())": (
            [(10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(())(())()": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(())()(())": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "(())()()()": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()(((())))": ([(8, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "()((()()))": ([(6, 1), (10, 1)], [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)]),
        "()((())())": (
            [(4, 1), (8, 1), (12, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "()((()))()": (
            [(2, 1), (6, 1), (10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 1), (12, 1), (16, 1)],
        ),
        "()(()(()))": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()(()()())": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()(()())()": (
            [(4, 1), (8, 1), (12, 3), (16, 1), (20, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()(())(())": (
            [(8, 1), (12, 1), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()(())()()": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()()((()))": (
            [(10, 1), (14, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()()(()())": (
            [(8, 1), (12, 2), (16, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()()(())()": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()()()(())": (
            [(6, 1), (10, 2), (14, 2), (18, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
        "()()()()()": (
            [(4, 1), (8, 3), (12, 4), (16, 3), (20, 1)],
            [(0, 1), (4, 1), (8, 2), (12, 2), (16, 2), (20, 1), (24, 1)],
        ),
    },
}


class TestMatchings:
    def test_counts_are_catalan(self):
        for n in range(11):
            assert len(enumerate_matchings(n)) == catalan(n)

    def test_all_planar_and_distinct(self):
        for n in range(7):
            ms = enumerate_matchings(n)
            assert len(set(ms)) == len(ms)
            assert all(is_planar(m) for m in ms)

    def test_parens_encoding_is_canonical(self):
        ms = enumerate_matchings(4)
        words = [to_parens(m) for m in ms]
        assert len(set(words)) == len(words)
        assert words == sorted(words)
        assert all(w.count("(") == 4 for w in words)

    def test_identity_multiplication(self):
        ident = TLElement.identity(3)
        assert (ident * ident).terms == {(3, 4, 5, 0, 1, 2): VLaurent.one()}

    def test_cup_cap_squared(self):
        e1 = TLElement.generator(2, 1)
        assert (e1 * e1).terms == {_diagram(e1): V_LOOP}

    def test_zigzag(self):
        e1, e2 = TLElement.generator(3, 1), TLElement.generator(3, 2)
        # bottom cup (0,1), strand bottom2 -> top3, top cap (4,5); no loop
        assert (e1 * e2).terms == {(1, 0, 3, 2, 5, 4): VLaurent.one()}

    def test_strand_mismatch(self):
        with pytest.raises(DomainError, match="strand-count mismatch"):
            TLElement.identity(2) * TLElement.identity(3)


class TestTLAlgebra:
    def test_generator_relations(self):
        # e_i^2 = delta e_i and e_i e_{i+1} e_i = e_i, on 4 strands
        delta = VFraction.from_poly(VLaurent({2: -1, -2: -1}))
        for i in (1, 2, 3):
            e = TLElement.generator(4, i)
            assert e * e == e.scale(delta)
        e1, e2 = TLElement.generator(4, 1), TLElement.generator(4, 2)
        assert e1 * e2 * e1 == e1
        assert e2 * e1 * e2 == e2

    def test_far_generators_commute(self):
        e1, e3 = TLElement.generator(4, 1), TLElement.generator(4, 3)
        assert e1 * e3 == e3 * e1


def _cross_equal(a: TLElement, b: TLElement) -> bool:
    """Equality by full cross-multiplication, the reference for ``==``."""
    if a.n != b.n or a.terms.keys() != b.terms.keys():
        return False
    return all(c * b.den == b.terms[m] * a.den for m, c in a.terms.items())


_laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-4, 4).filter(bool), min_size=1, max_size=4
).map(VLaurent)


@st.composite
def _equality_pairs(draw):
    """An element over den * m_a and the same one, maybe perturbed, over
    den * m_b: with m_a = 1 one denominator divides the other, with two
    drawn multipliers usually neither does."""
    n = draw(st.integers(1, 3))
    chosen = draw(st.lists(st.sampled_from(enumerate_matchings(n)), min_size=1, unique=True))
    terms, den = {d: draw(_laurents) for d in chosen}, draw(_laurents)
    m_a = draw(st.sampled_from([VLaurent.one(), draw(_laurents)]))
    m_b = draw(_laurents)
    a = TLElement(n, {d: c * m_a for d, c in terms.items()}, den * m_a)
    b_terms = {d: c * m_b for d, c in terms.items()}
    if draw(st.booleans()):
        d = draw(st.sampled_from(chosen))
        b_terms[d] = b_terms[d] + draw(_laurents)
    return a, TLElement(n, b_terms, den * m_b)


class TestEquality:
    @settings(max_examples=300, deadline=None)
    @given(pair=_equality_pairs())
    def test_matches_cross_multiplication(self, pair):
        a, b = pair
        assert (a == b) == _cross_equal(a, b)
        assert (b == a) == _cross_equal(a, b)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_idempotence_both_ways(self, n):
        f = jones_wenzl(n)
        ff = f * f
        assert ff.den == f.den * f.den  # so one denominator divides the other
        assert ff == f and f == ff
        assert _cross_equal(ff, f)
        g = TLElement(n, dict(ff.terms), ff.den * VLaurent({0: 1, 4: 1}))
        assert g != f and f != g
        assert not _cross_equal(g, f)


def _fresh(x: TLElement) -> TLElement:
    """A copy of x with no kept packings."""
    return TLElement(x.n, dict(x.terms), x.den)


def _big(n: int) -> TLElement:
    """The identity times 2**45: its products need wider slots than the
    products of the small elements here."""
    return TLElement.identity(n).scale(2**45)


def _assert_kept_packings_hold(x: TLElement, partners) -> None:
    """x times each partner, on both sides, equals the same product of
    fresh copies; x with terms ends up packed at two widths or more."""
    for y in (x, _big(x.n), *partners):
        for x_left in (True, False):
            got = x * y if x_left else y * x
            fx, fy = _fresh(x), _fresh(y)
            want = fx * fy if x_left else fy * fx
            assert (got.terms, got.den) == (want.terms, want.den)
    assert len(x._packed) >= 2 or not x.terms


def _tensors(n: int) -> list[TLElement]:
    return [jones_wenzl(m).tensor_with(jones_wenzl(n - m)) for m in range(n + 1)]


@st.composite
def _cache_cases(draw):
    """An element of TL_n, n = 0..5 (a projector, or random numerators,
    maybe none), and partners: generators, projector tensors, scalars."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        x = _fresh(jones_wenzl(n))
    else:
        chosen = draw(st.lists(st.sampled_from(enumerate_matchings(n)), unique=True))
        x = TLElement(n, {d: draw(_laurents) for d in chosen}, draw(_laurents))
    pool = [TLElement.generator(n, i) for i in range(1, n)] + _tensors(n)
    pool += [TLElement.identity(n).scale(c) for c in (3, -(2**20))]
    return x, draw(st.lists(st.sampled_from(pool), max_size=4))


class TestPackingCache:
    @settings(max_examples=100, deadline=None)
    @given(case=_cache_cases())
    def test_kept_packings_never_change_a_product(self, case):
        _assert_kept_packings_hold(*case)

    def test_every_small_projector_and_the_empty_element(self):
        # At n = 0 the left and right packings share their offset.
        for n in range(6):
            partners = [TLElement.generator(n, i) for i in range(1, n)] + _tensors(n)
            _assert_kept_packings_hold(_fresh(jones_wenzl(n)), partners)
            _assert_kept_packings_hold(TLElement(n), partners)


class TestJonesWenzl:
    def test_base_and_first_unfolding(self):
        f1 = jones_wenzl(1)
        assert f1 == TLElement.identity(1)
        f2 = jones_wenzl(2)
        e1 = _diagram(TLElement.generator(2, 1))
        assert coeff_of(f2, _diagram(TLElement.identity(2))) == VFraction.one()
        assert coeff_of(f2, e1) == VFraction(VLaurent.one(), quantum_int(2))

    def test_identity_coefficient_is_one(self):
        for n in range(1, 7):
            ident = _diagram(TLElement.identity(n))
            assert coeff_of(jones_wenzl(n), ident) == VFraction.one()

    def test_idempotence(self):
        for n in range(1, 7):
            f = jones_wenzl(n)
            assert f * f == f

    def test_annihilation(self):
        for n in range(2, 7):
            f = jones_wenzl(n)
            for i in range(1, n):
                e = TLElement.generator(n, i)
                assert (e * f).is_zero()
                assert (f * e).is_zero()

    def test_trace_closure(self):
        for n in range(1, 7):
            assert jones_wenzl(n).trace_close() == VFraction.from_poly(delta_n(n))

    def test_partial_closure(self):
        for total in range(2, 7):
            for m in range(1, total):
                n = total - m
                closed = jones_wenzl(total).partial_close(m)
                ratio = VFraction(delta_n(total), delta_n(n))
                assert closed == jones_wenzl(n).scale(ratio)

    def test_absorption(self):
        for total in range(2, 7):
            for m in range(1, total):
                tensor = jones_wenzl(m).tensor_with(jones_wenzl(total - m))
                f = jones_wenzl(total)
                assert f * tensor == f
                assert tensor * f == f

    def test_denominator_is_quantum_factorial(self):
        for n in range(8):
            f = jones_wenzl(n)
            assert f.den == quantum_fact(n)
            assert len(f.terms) == catalan(n)
            for c in f.terms.values():
                assert isinstance(c, VLaurent)
                assert all(type(k) is int for k in c.terms.values())

    def test_clasp_build_equals_wenzl_recursion(self):
        # Wenzl's step f(n) = p + ([n-1]/[n]) p e_{n-1} p, p = f(n-1) x 1,
        # over [n]! with the exact division by [n-1]!, is the reference:
        # the single-clasp build must store the same numerators and [n]!.
        prev = TLElement.identity(1)
        for n in range(2, 9):
            p = prev.tensor_strand()
            pep = p * TLElement.generator(n, n - 1) * p
            qn, qn1 = quantum_int(n), quantum_int(n - 1)
            terms = {m: c * qn for m, c in p.terms.items()}
            for m, c in pep.terms.items():
                s = terms.get(m)
                c = (c * qn1).div_exact(p.den)
                terms[m] = c if s is None else s + c
            prev = TLElement(n, terms, p.den * qn)
            f = jones_wenzl(n)
            assert (f.terms, f.den) == (prev.terms, prev.den)

    def test_clasp_diagrams_are_generator_words(self):
        # w_a = e_{n-1} e_{n-2} ... e_a is one diagram with numerator 1.
        for n in range(2, 9):
            assert _clasp(n, n) == _diagram(TLElement.identity(n))
            for a in range(1, n):
                word = TLElement.generator(n, n - 1)
                for i in range(n - 2, a - 1, -1):
                    word = word * TLElement.generator(n, i)
                assert word.terms == {_clasp(n, a): VLaurent.one()}
                assert word.den == VLaurent.one()

    def test_golden_coefficients(self):
        for n, table in _JW_GOLDEN.items():
            f = jones_wenzl(n)
            words = {to_parens(m): m for m in enumerate_matchings(n)}
            assert set(words) == set(table)
            for word, (num, den) in table.items():
                want = VFraction(VLaurent(dict(num)), VLaurent(dict(den)))
                assert coeff_of(f, words[word]) == want

    def test_numerators_must_be_laurent(self):
        ident = _diagram(TLElement.identity(1))
        with pytest.raises(DomainError):
            TLElement(1, {ident: VFraction.one()})
        with pytest.raises(DomainError):
            TLElement(1, {ident: VLaurent.one()}, VLaurent.zero())

    def test_capacity_limit(self):
        # Refused before anything is built.
        with pytest.raises(CapacityError, match=r"^projector color 9 exceeds limit 8$"):
            jones_wenzl(9)
        with pytest.raises(DomainError):
            jones_wenzl(-1)

    def test_concurrent_construction_is_consistent(self):
        # the memo cache must behave as if computed once
        from concurrent.futures import ThreadPoolExecutor

        import skeintails.tl_oracle as tl

        tl._jw_cache.clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: jones_wenzl(5), range(16)))
        assert all(r == results[0] for r in results)
        assert results[0].trace_close() == VFraction.from_poly(delta_n(5))


class TestMorrisonHooks:
    def test_hook_is_planar(self):
        for n in range(1, 4):
            assert is_planar(hook_matching(n))

    def test_hook_coefficients(self):
        # coeff of the fully nested turn-back diagram in f(2n) = ([n]!)^2/[2n]!
        for n in (1, 2, 3):
            got = coeff_of(jones_wenzl(2 * n), hook_matching(n))
            want = VFraction(quantum_fact(n) ** 2, quantum_fact(2 * n))
            assert got == want

    def test_hook_n1_value(self):
        assert coeff_of(jones_wenzl(2), hook_matching(1)) == VFraction(
            VLaurent.one(), quantum_int(2)
        )

    def test_coeff_of_mismatch(self):
        with pytest.raises(DomainError, match="strand-count mismatch"):
            coeff_of(jones_wenzl(2), _diagram(TLElement.identity(3)))
