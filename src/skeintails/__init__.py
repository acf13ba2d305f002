"""skeintails: exact Kauffman-bracket skein evaluations and q-series tails.

An exact-arithmetic engine for the stable coefficients ("tails") of quantum
spin networks and (2, f) torus-link colored Jones polynomials, with a
brute-force Temperley-Lieb diagram oracle cross-checking every closed-form
formula, and coefficient-by-coefficient verification of the Andrews-Gordon
identities for the Ramanujan theta and false theta functions.

Every public name below is loaded from its module on first use (PEP 562),
so ``import skeintails`` compiles no module that a caller does not reach.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CapacityError",
        "ConsistencyError",
        "DivergentProductError",
        "DomainError",
        "PrecisionError",
        "RepresentationError",
        "SkeinError",
    ),
    "qcore": (
        "PochTerm",
        "QSeries",
        "VFraction",
        "VLaurent",
        "delta_n",
        "fraction_to_q_series",
        "poch_finite",
        "poch_inf",
        "poch_inf_step",
        "qbinom",
        "quantum_fact",
        "quantum_int",
        "series_div",
        "series_mul",
        "to_q_series",
    ),
    "tl_oracle": ("TLElement", "coeff_of", "hook_matching", "jones_wenzl"),
    "networks": (
        "ClosedNetwork",
        "braid_network",
        "bracket_closed",
        "bubble_lhs_network",
        "bubble_rhs_network",
        "closed_projector",
        "kinked_loop",
        "loop_network",
        "spin_network",
        "tet_network",
        "theta_network",
        "torus_knot_network",
    ),
    "skein_formulas": (
        "bubble_coeff",
        "chain_tail",
        "colored_jones_torus",
        "nn_i_coeff",
        "p_coeff",
        "tet_2n",
        "theta_2n",
    ),
    "qidentities": (
        "MonomialArg",
        "ag_rhs",
        "false_ag_rhs",
        "false_theta",
        "lambda_series",
        "named_series",
        "psi_general",
        "tail_85",
        "theta_f",
        "theta_general",
    ),
    "tails_engine": (
        "agree_to_order",
        "graph_family_tail",
        "normalize",
        "stabilization_report",
        "tail_product_1",
        "tail_product_23",
    ),
}

# Public name -> the module that defines it.
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

# The public names and the modules that define them.
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
