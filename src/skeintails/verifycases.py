"""Named verification checks: the bridge between acceptance criteria,
builtin CLI suites, and the test suite.

Every check is a pure function params -> (ok, detail).  The detail string
names the first failing comparison (for series, the first mismatching
exponent), so a red case is immediately actionable.

Each check imports the modules it calls in its own body, so a verify
process loads only what its cases reach: a suite of q-series identities
never compiles the diagram oracle.  Annotations name ``qcore`` types
without importing them; ``from __future__ import annotations`` leaves
them unevaluated.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import CapacityError, DomainError, SkeinError

CheckResult = tuple[bool, str]

# Largest ``n_max`` a suite may give each check that reads one, checked
# before any value is built.  Each comment gives the time of a one-case
# verify process at the cap (three runs, 2 cores, CPython 3.11.7; about
# 0.05 s of it is the start-up of the process), and where the cap is not
# the 10 s budget, what refuses the next step.  The tail checks were capped
# near 10 s when their closed forms were built as exact products; they now
# read them only to the order they compare, peak at 14 MiB, and keep those
# caps.  The worst accepted case is jw_laws at 8.
MAX_N_MAX: dict[str, int] = {
    "morrison": 4,  # 0.13-0.17 s (builds f(8) cold); at 5 f(10) is over MAX_BOX_COLOR
    "jw_laws": 8,  # 8.1-9.2 s (6.7-7.0 s when quiet); at 9 f(9) is over MAX_BOX_COLOR
    "theta_oracle": 4,  # 0.44-0.47 s; at 5 the colour 10 is over MAX_BOX_COLOR
    "tail_lemma_fact": 70,  # 0.08 s
    "tail_lemma_bubble0": 70,  # 0.09-0.10 s
    "tail_lemma_psum": 28,  # 0.14 s
    "tail_lemma_psum_nn0": 24,  # 0.14 s
    "nn_i_sweep": 14,  # 0.13-0.14 s
    "torus_stabilization": 50,  # 0.13-0.14 s at k_max 3
    "lambda_theorem": 11,  # 0.10 s
    "theta_tail": 60,  # 0.11-0.12 s
    "tail85_oracle": 2,  # 0.18-0.19 s; at 3 the work cap refuses the braid (101,181 joins)
}

# Largest ``max_param`` a suite may give each check that reads one, in the
# same way: bubble_oracle at 4 runs 140 closures in 0.53 s (three runs); at
# 5 a box of colour 9 is refused after 0.7-0.8 s of contractions
# (in-process, two runs).
MAX_MAX_PARAM: dict[str, int] = {
    "bubble_oracle": 4,
}

# Largest ``f`` (crossings of the (2, f) torus diagram) a suite may give
# torus_oracle, in the same way.  The time grows about quadratically in f
# and is worst at colour n = 2: f = 400 takes 7.9-10.0 s (four runs) and
# 450 11.6 s, and f = 1000 is refused by the work cap only after 38 s.  At
# n = 1, f = 400 takes 0.2 s (3000: 4.8 s); at n = 3, f = 20 takes 3-4 s
# and f = 25..300 are refused within 5.6 s; n = 4..8 are refused within
# 3.2 s at every f tried.
MAX_F: dict[str, int] = {
    "torus_oracle": 400,
}

# Largest colour ``n`` a suite may give each check that reads one.  The
# diagrams carry boxes of colour n (torus_oracle) or 2n (tet_oracle), which
# bracket_closed refuses above tl_oracle.MAX_BOX_COLOR (8), but only after
# the network is built: f * n^2 crossings for the torus (uncapped, f = 1,
# n = 1000 took 4.8 s and 489 MiB before its refusal), linear in n for the
# tetrahedron (n = 10,000: 0.18 s and 53 MiB).
MAX_N: dict[str, int] = {
    "torus_oracle": 8,
    "tet_oracle": 4,
}

# The suite parameters capped above, each with its table of limits.
_CAPPED = (
    ("n_max", MAX_N_MAX),
    ("max_param", MAX_MAX_PARAM),
    ("f", MAX_F),
    ("n", MAX_N),
)

# Parameters that must be at least 1 in every check, or a check would
# compare nothing and pass: below 1 each capped parameter and k_max leave a
# check's loop empty (at colour n = 0 both sides of torus_oracle and
# tet_oracle are the empty diagram, 1), and at order 0 a series comparison
# has no coefficients.
_AT_LEAST_ONE = (*(key for key, _ in _CAPPED), "k_max", "order")


def _series_diff_detail(a: QSeries, b: QSeries) -> str:
    lo = min(a.shift, b.shift)
    hi = max(a.shift + a.order, b.shift + b.order)
    for e in range(lo, hi):
        try:
            ca, cb = a.coeff(e), b.coeff(e)
        except SkeinError:
            break
        if ca != cb:
            return f"first mismatch at exponent q^{e}: {ca} != {cb}"
    return "series differ in shift/order metadata"


def _eq_series(a: QSeries, b: QSeries, label: str) -> CheckResult:
    if a == b:
        return True, f"{label}: equal ({a.order} coefficients)"
    return False, f"{label}: {_series_diff_detail(a, b)}"


def _resolve_series(spec: dict, order: int) -> QSeries:
    from .qidentities import named_series
    from .skein_formulas import chain_tail
    from .tails_engine import graph_family_tail

    spec = dict(spec)
    if "family" in spec:
        family = spec.pop("family")
        return graph_family_tail(family, spec, order)
    if "chain" in spec:
        parity = spec.pop("chain")
        return chain_tail(parity, int(spec["k"]), order)
    name = spec.pop("series")
    return named_series(name, spec, order)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def check_series_equal(params: dict) -> CheckResult:
    order = int(params["order"])
    a = _resolve_series(params["a"], order)
    b = _resolve_series(params["b"], order)
    return _eq_series(a, b, f"{params['a']} vs {params['b']}")


def check_andrews_gordon(params: dict) -> CheckResult:
    from .qidentities import ag_rhs, theta_f

    k, order = int(params["k"]), int(params["order"])
    return _eq_series(
        theta_f(k, order),
        ag_rhs(k, order),
        f"theta_f({k}) vs ag_rhs({k}) at order {order}",
    )


def check_false_theta_identity(params: dict) -> CheckResult:
    from .qidentities import false_ag_rhs, false_theta

    k, order = int(params["k"]), int(params["order"])
    return _eq_series(
        false_theta(k, order),
        false_ag_rhs(k, order),
        f"false_theta({k}) vs false_ag_rhs({k}) at order {order}",
    )


def check_jacobi_triple(params: dict) -> CheckResult:
    from .qcore import poch_inf
    from .qidentities import MonomialArg, theta_general

    order = int(params.get("order", 40))
    a = MonomialArg(-1, 2)
    b = MonomialArg(-1, 1)
    lhs = theta_general(a, b, order)
    return _eq_series(lhs, poch_inf(1, order), f"f(-q^2,-q) vs (q;q)_inf at {order}")


def check_theta_symmetry(params: dict) -> CheckResult:
    from .qidentities import MonomialArg, theta_general

    order = int(params.get("order", 30))
    a = MonomialArg(-1, 4)
    b = MonomialArg(-1, 1)
    lhs = theta_general(a, b, order)
    rhs = theta_general(b, a, order)
    return _eq_series(lhs, rhs, "f(a,b) vs f(b,a)")


def check_jacobi_step5(params: dict) -> CheckResult:
    from .qcore import poch_inf_step, series_mul
    from .qidentities import MonomialArg, theta_general

    order = int(params.get("order", 25))
    lhs = theta_general(MonomialArg(-1, 3), MonomialArg(-1, 2), order)
    rhs = series_mul(
        series_mul(poch_inf_step(3, 5, order), poch_inf_step(2, 5, order)),
        poch_inf_step(5, 5, order),
    ).with_order(order)
    return _eq_series(lhs, rhs, "f(-q^3,-q^2) vs 5-step products")


# ---------------------------------------------------------------------------
# Projector-law checks
# ---------------------------------------------------------------------------


def check_morrison(params: dict) -> CheckResult:
    from .qcore import VFraction, quantum_fact
    from .tl_oracle import coeff_of, hook_matching, jones_wenzl

    n_max = int(params.get("n_max", 3))
    for n in range(1, n_max + 1):
        got = coeff_of(jones_wenzl(2 * n), hook_matching(n))
        want = VFraction(quantum_fact(n) ** 2, quantum_fact(2 * n))
        if got != want:
            return False, f"hook coefficient in f({2*n}) differs at n={n}"
    return True, f"hook coefficient equals ([n]!)^2/[2n]! for n <= {n_max}"


def check_jw_laws(params: dict) -> CheckResult:
    from .qcore import VFraction, delta_n
    from .tl_oracle import TLElement, jones_wenzl

    n_max = int(params.get("n_max", 6))
    for n in range(1, n_max + 1):
        f = jones_wenzl(n)
        if not (f * f) == f:
            return False, f"f({n}) not idempotent"
        for i in range(1, n):
            e = TLElement.generator(n, i)
            if not (e * f).is_zero() or not (f * e).is_zero():
                return False, f"annihilation fails for e_{i} f({n})"
        if f.trace_close() != VFraction.from_poly(delta_n(n)):
            return False, f"trace of f({n}) is not Delta_{n}"
    for total in range(2, n_max + 1):
        for m in range(1, total):
            n = total - m
            closed = jones_wenzl(total).partial_close(m)
            target = jones_wenzl(n).scale(VFraction(delta_n(total), delta_n(n)))
            if closed != target:
                return False, f"partial closure fails for ({m},{n})"
            tensor = jones_wenzl(m).tensor_with(jones_wenzl(n))
            if jones_wenzl(total) * tensor != jones_wenzl(total):
                return False, f"absorption fails for ({m},{n})"
    return True, f"idempotence, annihilation, trace, closure, absorption to n={n_max}"


# ---------------------------------------------------------------------------
# Oracle equivalence checks
# ---------------------------------------------------------------------------


def bubble_sweep_cases(max_param: int = 2):
    for k in range(1, max_param + 1):
        for l in range(1, k + 1):
            for m in range(0, max_param + 1):
                for n in range(0, max_param + 1):
                    mp, np_ = m + k - l, n + k - l
                    if max(mp, np_) > max_param:
                        continue
                    if m == n and mp == np_:
                        yield (m, n, mp, np_, k, l, "topbottom")
                    if m == mp and n == np_:
                        yield (m, n, mp, np_, k, l, "leftright")


def check_bubble_oracle(params: dict) -> CheckResult:
    from functools import cache

    from .networks import bracket_closed, bubble_lhs_network, bubble_rhs_network
    from .qcore import VFraction
    from .skein_formulas import bubble_coeff

    max_param = int(params.get("max_param", 2))
    # Many closures share diagrams and coefficients, so each distinct
    # network (by its serialized text) is contracted once, and each distinct
    # coefficient is built once.
    brackets: dict[str, VFraction] = {}

    @cache
    def coeff(*args) -> VFraction:
        return bubble_coeff(*args).exact()

    def bracket(net) -> VFraction:
        text = net.serialize()
        if text not in brackets:
            brackets[text] = bracket_closed(net)
        return brackets[text]

    count = 0
    for m, n, mp, np_, k, l, closure in bubble_sweep_cases(max_param):
        lhs = bracket(bubble_lhs_network(m, n, mp, np_, k, l, closure))
        rhs = VFraction.zero()
        for i in range(0, min(m, n, l) + 1):
            rhs = rhs + coeff(m, n, k, l, i) * bracket(
                bubble_rhs_network(m, n, mp, np_, k, l, i, closure)
            )
        if lhs != rhs:
            return False, f"bubble expansion fails at {(m, n, mp, np_, k, l, closure)}"
        count += 1
    return True, f"bubble expansion matches the oracle on {count} closures"


def check_torus_oracle(params: dict) -> CheckResult:
    from .networks import bracket_closed, torus_knot_network
    from .qcore import delta_n
    from .skein_formulas import colored_jones_torus
    from .tails_engine import normalize

    f, n = int(params["f"]), int(params["n"])
    bracket = bracket_closed(torus_knot_network(f, n))
    poly = bracket.to_vlaurent().div_exact(delta_n(n))
    lhs = normalize(poly)
    rhs = normalize(colored_jones_torus(f, n))
    if lhs == rhs:
        return True, f"(2,{f}) torus diagram matches the formula at color {n}"
    return False, f"(2,{f}) n={n}: oracle and formula normalize differently"


def check_theta_oracle(params: dict) -> CheckResult:
    from .networks import bracket_closed, theta_network
    from .skein_formulas import theta_2n

    n_max = int(params.get("n_max", 2))
    for n in range(1, n_max + 1):
        got = bracket_closed(theta_network(2 * n, 2 * n, 2 * n))
        if got != theta_2n(n).exact():
            return False, f"theta network differs from theta_2n at n={n}"
    return True, f"theta_2n matches the theta-network bracket for n <= {n_max}"


def check_tet_oracle(params: dict) -> CheckResult:
    from .networks import bracket_closed, tet_network
    from .skein_formulas import tet_2n

    n = int(params.get("n", 1))
    got = bracket_closed(tet_network(2 * n))
    want = tet_2n(n)
    if got == want:
        return True, f"tet_2n({n}) matches the tetrahedron bracket"
    return False, f"tet_2n({n}) differs from the tetrahedron bracket"


def check_oracle_basics(params: dict) -> CheckResult:
    from .networks import bracket_closed, closed_projector, kinked_loop, loop_network
    from .qcore import V_LOOP, VFraction, VLaurent, delta_n

    delta = VFraction.from_poly(V_LOOP)
    if bracket_closed(loop_network()) != delta:
        return False, "a single loop is not delta"
    a3 = VFraction.from_poly(VLaurent.monomial(-1, 3)) * delta
    am3 = VFraction.from_poly(VLaurent.monomial(-1, -3)) * delta
    if (
        bracket_closed(kinked_loop("nesw")) != a3
        or bracket_closed(kinked_loop("nwse")) != am3
    ):
        return False, "kinked loops do not give -A^(+-3) delta"
    for n in range(1, 5):
        if bracket_closed(closed_projector(n)) != VFraction.from_poly(delta_n(n)):
            return False, f"closed f({n}) is not Delta_{n}"
    return True, "loop, kinks, and closed projectors evaluate correctly"


# ---------------------------------------------------------------------------
# Tail checks
# ---------------------------------------------------------------------------


def _tail_check(
    n_max: int,
    terms: Callable[[int], list[PochTerm]],
    target: QSeries,
    fail: str,
    ok: str,
) -> CheckResult:
    """The sum of ``terms(n)``, read to n + 1 q-coefficients, agrees with
    the target to order n for n <= n_max; the detail is ``ok``, or ``fail``
    and the first n where they differ.

    The target is built once, to n_max + 1 coefficients.  A (q^c; q)_n
    target is ``poch_inf(c, n_max + 1)``: to n + 1 coefficients (q^c; q)_n
    equals (q^c; q)_inf for c >= 1, as both apply the same factors
    (1 - q^a) with a <= n and the rest are 1 there.
    """
    from .tails_engine import agree_to_order, sum_fraction_products_x

    for n in range(1, n_max + 1):
        s = sum_fraction_products_x(terms(n), n + 1)
        if not agree_to_order(s, target, n):
            return False, f"{fail} at n={n}"
    return True, ok


def check_tail_lemma_fact(params: dict) -> CheckResult:
    from .qcore import poch_inf
    from .skein_formulas import hook_coeff

    n_max = int(params.get("n_max", 20))
    return _tail_check(
        n_max,
        lambda n: [hook_coeff(n)],
        poch_inf(1, n_max + 1),
        "([n]!)^2/[2n]! tail fails",
        f"([n]!)^2/[2n]! agrees with (q;q)_n to order n for n <= {n_max}",
    )


def check_tail_lemma_bubble0(params: dict) -> CheckResult:
    from .qcore import poch_inf
    from .skein_formulas import bubble_coeff

    n_max = int(params.get("n_max", 20))
    return _tail_check(
        n_max,
        lambda n: [bubble_coeff(n, n, n, n, 0)],
        poch_inf(1, n_max + 1),
        "bubble coefficient tail fails",
        f"ceil[n n; n n]_0 agrees with (q;q)_n to order n for n <= {n_max}",
    )


def check_tail_lemma_psum(params: dict) -> CheckResult:
    from .qidentities import false_theta
    from .skein_formulas import p_coeff

    n_max = int(params.get("n_max", 12))
    return _tail_check(
        n_max,
        lambda n: [p_coeff(n, i) for i in range(n + 1)],
        false_theta(2, n_max + 1),
        "sum of P(n,i) tail fails",
        f"sum_i P(n,i) agrees with Psi(q^3,q) to order n for n <= {n_max}",
    )


def check_tail_lemma_psum_nn0(params: dict) -> CheckResult:
    from .qidentities import theta_f
    from .skein_formulas import nn_i_coeff, p_coeff

    n_max = int(params.get("n_max", 12))
    return _tail_check(
        n_max,
        lambda n: [p_coeff(n, i) * nn_i_coeff(n, i, 0) for i in range(n + 1)],
        theta_f(2, n_max + 1),
        "sum of P(n,i) ceil[n i; n n]_0 tail fails",
        f"sum_i P(n,i) ceil_0 agrees with f(-q^4,-q) to order n for n <= {n_max}",
    )


def check_nn_i_sweep(params: dict) -> CheckResult:
    from .skein_formulas import bubble_coeff, nn_i_coeff

    n_max = int(params.get("n_max", 4))
    for n in range(1, n_max + 1):
        for i in range(0, n + 1):
            for j in range(0, i + 1):
                if nn_i_coeff(n, i, j) != bubble_coeff(n, i, n, n, j):
                    return False, f"nn_i_coeff differs from bubble_coeff at {(n,i,j)}"
    return True, f"nn_i_coeff matches bubble_coeff(n,i,n,n,j) for n <= {n_max}"


def check_torus_stabilization(params: dict) -> CheckResult:
    from .qidentities import false_theta, theta_f
    from .skein_formulas import chain_tail, colored_jones_torus
    from .tails_engine import stabilization_report

    k_max = int(params.get("k_max", 3))
    n_max = int(params.get("n_max", 12))

    def torus(f: int) -> tuple[tuple[bool, ...], QSeries]:
        # P_n is read only to the n coefficients that are compared.
        return stabilization_report(
            lambda n: colored_jones_torus(f, n, order=n), n_max
        )

    for k in range(1, k_max + 1):
        verdicts, tail = torus(2 * k + 1)
        want = theta_f(k, n_max)
        if not all(verdicts):
            return False, f"f={2*k+1} does not stabilize"
        if tail != want:
            return False, f"f={2*k+1} tail is not theta_f({k})"
        if chain_tail("even", k, n_max) != want:
            return False, f"even chain k={k} differs from theta_f({k})"
        verdicts, tail = torus(2 * k)
        want = false_theta(k, n_max)
        if not all(verdicts):
            return False, f"f={2*k} does not stabilize"
        if tail != want:
            return False, f"f={2*k} tail is not false_theta({k})"
        if k >= 2 and chain_tail("odd", k - 1, n_max) != want:
            return False, f"odd chain k={k-1} differs from false_theta({k})"
    return True, f"torus tails and chains agree for k <= {k_max}, {n_max} coefficients"


def check_lambda_theorem(params: dict) -> CheckResult:
    from .qidentities import lambda_series
    from .skein_formulas import tet_theta_ratio

    n_max = int(params.get("n_max", 6))
    return _tail_check(
        n_max,
        tet_theta_ratio,
        lambda_series(n_max + 1),
        "tet/theta ratio differs from Lambda",
        f"tet_2n/theta_2n agrees with Lambda(q) to order n for n <= {n_max}",
    )


def check_theta_tail(params: dict) -> CheckResult:
    from .qcore import poch_inf
    from .skein_formulas import theta_2n

    n_max = int(params.get("n_max", 15))
    return _tail_check(
        n_max,
        lambda n: [theta_2n(n)],
        poch_inf(2, n_max + 1),
        "theta_2n tail fails",
        f"theta_2n(n) agrees with (q^2;q)_n to order n for n <= {n_max}",
    )


def check_product_laws(params: dict) -> CheckResult:
    from .qcore import (
        QSeries,
        poch_finite,
        poch_inf,
        series_div,
        series_mul,
        to_q_series,
    )
    from .qidentities import lambda_series, theta_f
    from .tails_engine import graph_family_tail, tail_product_1, tail_product_23

    order = int(params.get("order", 30))
    t = theta_f(2, order)
    unit1 = tail_product_1(t, poch_inf(2, order), order)
    if unit1 != t.with_order(order):
        return False, "tail_product_1 unit law fails"
    inv_1mq = series_div(QSeries.one(order), to_q_series(poch_finite(1, 1, 1), order))
    unit23 = tail_product_23(t, inv_1mq, order)
    if unit23 != t.with_order(order):
        return False, "tail_product_23 unit law fails"
    # Wheel with four triangles: glue four tetrahedral sectors along the
    # shared triangle, then one edge gluing: Lambda^4 (q;q)_inf.
    tet = graph_family_tail("tet2n", {}, order)
    glued = tet
    for _ in range(3):
        glued = tail_product_1(glued, tet, order)
    wheel = tail_product_23(glued, QSeries.one(order), order)
    direct = graph_family_tail("g_m", {"m": 4}, order)
    lam = lambda_series(order)
    explicit = poch_inf(1, order)
    for _ in range(4):
        explicit = series_mul(explicit, lam).with_order(order)
    if wheel != direct or direct != explicit:
        return False, "wheel tail Lambda^4 (q;q)_inf not reproduced"
    return True, f"unit laws and the four-triangle wheel hold at order {order}"


def check_tail85(params: dict) -> CheckResult:
    from .qidentities import tail_85

    order = int(params.get("order", 30))
    s = tail_85(order)
    if s.shift != 0 or s.coeff(0) != 1:
        return False, "8_5 tail does not start with 1 at q^0"
    return True, f"8_5 tail: integral, leading 1 at order {order}"


def check_tail85_oracle(params: dict) -> CheckResult:
    from .networks import bracket_closed, braid_network
    from .qidentities import tail_85
    from .tails_engine import agree_to_order, normalize

    # sigma_1^3 sigma_2^-1 sigma_1^3 sigma_2^-1 is the braid word of 8_5 in
    # KnotInfo; with sigma_i drawn "nesw", the low-v end of its bracket is
    # the one whose reduced Tait graph is the (3, 3, 2) theta graph.
    n_max = int(params.get("n_max", 2))
    for n in range(1, n_max + 1):
        net = braid_network((1, 1, 1, -2, 1, 1, 1, -2), 3, n)
        bracket = bracket_closed(net)
        # The unnormalized <K_n>, read from its low-v end; tail_85 is not
        # divided by Delta_n either.
        got = normalize(bracket.to_vlaurent(), n + 1)
        if not agree_to_order(got, tail_85(n + 1), n + 1):
            return False, f"8_5 braid closure differs from tail_85 at n={n}"
    return True, f"8_5 braid closure agrees with tail_85 to n+1 terms for n <= {n_max}"


def check_chain_examples(params: dict) -> CheckResult:
    from .qcore import poch_inf
    from .qidentities import false_ag_rhs, theta_f
    from .skein_formulas import chain_tail

    order = int(params.get("order", 30))
    if chain_tail("even", 1, order) != poch_inf(1, order):
        return False, "even chain k=1 is not (q;q)_inf"
    if chain_tail("odd", 1, order) != false_ag_rhs(2, order):
        return False, "odd chain k=1 is not the Entry-9 sum"
    if chain_tail("even", 2, order) != theta_f(2, order):
        return False, "even chain k=2 is not f(-q^4,-q)"
    return True, "chain tails match their named series"


CHECKS: dict[str, Callable[[dict], CheckResult]] = {
    "series_equal": check_series_equal,
    "andrews_gordon": check_andrews_gordon,
    "false_theta_identity": check_false_theta_identity,
    "jacobi_triple": check_jacobi_triple,
    "theta_symmetry": check_theta_symmetry,
    "jacobi_step5": check_jacobi_step5,
    "morrison": check_morrison,
    "jw_laws": check_jw_laws,
    "bubble_oracle": check_bubble_oracle,
    "torus_oracle": check_torus_oracle,
    "theta_oracle": check_theta_oracle,
    "tet_oracle": check_tet_oracle,
    "oracle_basics": check_oracle_basics,
    "tail_lemma_fact": check_tail_lemma_fact,
    "tail_lemma_bubble0": check_tail_lemma_bubble0,
    "tail_lemma_psum": check_tail_lemma_psum,
    "tail_lemma_psum_nn0": check_tail_lemma_psum_nn0,
    "nn_i_sweep": check_nn_i_sweep,
    "torus_stabilization": check_torus_stabilization,
    "lambda_theorem": check_lambda_theorem,
    "theta_tail": check_theta_tail,
    "product_laws": check_product_laws,
    "tail85": check_tail85,
    "tail85_oracle": check_tail85_oracle,
    "chain_examples": check_chain_examples,
}


def run_check(name: str, params: dict) -> CheckResult:
    try:
        fn = CHECKS[name]
    except KeyError:
        raise SkeinError(f"unknown check {name!r}") from None
    for key in _AT_LEAST_ONE:
        if key in params and (value := int(params[key])) < 1:
            raise DomainError(f"{key} must be >= 1, got {value}")
    for key, caps in _CAPPED:
        if name in caps and key in params:
            value, limit = int(params[key]), caps[name]
            if value > limit:
                raise CapacityError(f"{key} {value} exceeds limit {limit}")
    return fn(params)
