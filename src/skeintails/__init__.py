"""skeintails: exact Kauffman-bracket skein evaluations and q-series tails.

An exact-arithmetic engine for the stable coefficients ("tails") of quantum
spin networks and (2, f) torus-link colored Jones polynomials, with a
brute-force Temperley-Lieb diagram oracle cross-checking every closed-form
formula, and coefficient-by-coefficient verification of the Andrews-Gordon
identities for the Ramanujan theta and false theta functions.
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    DivergentProductError,
    DomainError,
    PrecisionError,
    RepresentationError,
    SkeinError,
)
from .qcore import (
    QSeries,
    VFraction,
    VLaurent,
    delta_n,
    fraction_to_q_series,
    poch_finite,
    poch_inf,
    poch_inf_step,
    qbinom,
    quantum_fact,
    quantum_int,
    series_div,
    series_mul,
    to_q_series,
)
from .tl_oracle import (
    TLElement,
    coeff_of,
    hook_matching,
    jones_wenzl,
)
from .networks import (
    ClosedNetwork,
    braid_network,
    bracket_closed,
    bubble_lhs_network,
    bubble_rhs_network,
    closed_projector,
    kinked_loop,
    loop_network,
    spin_network,
    tet_network,
    theta_network,
    torus_knot_network,
)
from .skein_formulas import (
    bubble_coeff,
    chain_tail,
    colored_jones_torus,
    nn_i_coeff,
    p_coeff,
    tet_2n,
    theta_2n,
)
from .qidentities import (
    MonomialArg,
    ag_rhs,
    false_ag_rhs,
    false_theta,
    lambda_series,
    named_series,
    psi_general,
    tail_85,
    theta_f,
    theta_general,
)
from .tails_engine import (
    SeriesGenerator,
    StabilizationReport,
    agree_to_order,
    graph_family_tail,
    normalize,
    stabilization_report,
    tail_product_1,
    tail_product_23,
    torus_jones_generator,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
