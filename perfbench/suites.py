"""Seeded verify-suite generator for the four benchmark workloads.

Each workload is a list of cases in the builtin verify JSON format.  The
seed shuffles the case order and draws an offset d in {-1, 0, +1} for each
window pair: the pair's two cases move their parameter by +d and -d.  The
two cases of a pair cost about the same, so a seed changes which case is a
little larger, not how much work the whole suite is.  Cases whose cost
grows steeply with their parameter have no window.  The same seed gives
byte-identical files.

Sizes are chosen so that one ``verify --jobs 1`` process takes a few
seconds on a 2-core machine: a run of the benchmark then holds several
processes of each kind and reports their median.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# (case id, check, params, (windowed param, window pair) or None)
WORKLOADS: dict[str, list[tuple[str, str, dict, tuple[str, str] | None]]] = {
    # qcore series kernels under the qidentities multi-sums; no VFraction,
    # no TL products, no networks.  Twelve balanced cases.
    "identities": [
        *[(f"ag-k{k}", "andrews_gordon", {"k": k, "order": 36}, ("order", f"k{k}"))
          for k in (2, 3, 4, 5)],
        *[(f"false-theta-k{k}", "false_theta_identity", {"k": k, "order": 36},
           ("order", f"k{k}")) for k in (2, 3, 4, 5)],
        ("jacobi-triple", "jacobi_triple", {"order": 80}, ("order", "jacobi")),
        ("jacobi-step5", "jacobi_step5", {"order": 70}, ("order", "jacobi")),
        ("product-laws", "product_laws", {"order": 32}, ("order", "products")),
        ("tail85", "tail85", {"order": 36}, ("order", "products")),
    ],
    # Cold Jones-Wenzl builds f(1..6) and TL products over VFraction
    # reduction.  n_max has no window: one step changes the cost tenfold.
    "projectors": [
        ("jw-laws", "jw_laws", {"n_max": 5}, None),
        ("morrison", "morrison", {"n_max": 3}, None),
    ],
    # networks.bracket_closed: (2,12) at color 1 is 4096 crossing states
    # with trivial boxes; (2,3) at color 2 is the ROADMAP fixture; theta,
    # tetrahedron and bubble closures are boxes without crossings.
    "oracle": [
        ("oracle-basics", "oracle_basics", {}, None),
        ("torus-f12-n1", "torus_oracle", {"f": 12, "n": 1}, None),
        ("torus-f3-n2", "torus_oracle", {"f": 3, "n": 2}, None),
        ("torus-f2-n2", "torus_oracle", {"f": 2, "n": 2}, None),
        ("theta-oracle", "theta_oracle", {"n_max": 2}, None),
        ("tet-oracle-n1", "tet_oracle", {"n": 1}, None),
        ("bubble-oracle", "bubble_oracle", {"max_param": 2}, None),
    ],
    # skein_formulas closed forms and tails_engine sums; large VLaurent
    # products with little gcd work.
    "tails": [
        ("lemma-fact", "tail_lemma_fact", {"n_max": 16}, ("n_max", "poch")),
        ("lemma-bubble0", "tail_lemma_bubble0", {"n_max": 12}, None),
        ("lemma-psum", "tail_lemma_psum", {"n_max": 8}, None),
        ("lemma-psum-nn0", "tail_lemma_psum_nn0", {"n_max": 8}, None),
        ("nn-i-sweep", "nn_i_sweep", {"n_max": 3}, None),
        ("torus-stabilization", "torus_stabilization", {"k_max": 3, "n_max": 12}, None),
        ("lambda-theorem", "lambda_theorem", {"n_max": 5}, None),
        ("theta-tail", "theta_tail", {"n_max": 12}, ("n_max", "poch")),
    ],
}

EMPTY_SUITE = {"suite": "perfbench-empty", "cases": []}


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def make_suite(workload: str, seed: int) -> dict:
    """The suite of one workload for one seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pairs = sorted({w[1] for *_, w in spec if w})
    offset = {pair: rng.choice((-1, 0, 1)) for pair in pairs}
    cases = []
    for case_id, check, params, window in spec:
        params = dict(params)
        if window:
            key, pair = window
            params[key] += offset[pair]
            offset[pair] = -offset[pair]
        cases.append({"id": case_id, "check": check, "params": params})
    rng.shuffle(cases)
    return {"suite": f"perfbench-{workload}-seed{seed}", "cases": cases}


def write_suites(workload: str, seed: int, out_dir: Path) -> tuple[Path, Path, dict]:
    """Write the workload suite and the empty suite; return both paths and the suite."""
    suite = make_suite(workload, seed)
    suite_path = out_dir / "suite.json"
    empty_path = out_dir / "empty.json"
    suite_path.write_text(_dump(suite))
    empty_path.write_text(_dump(EMPTY_SUITE))
    return suite_path, empty_path, suite
