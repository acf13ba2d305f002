#!/bin/bash
# CLI smoke test of the installed `skeintails` entry point, run by the
# tier-1 CI workflow from the root of a checkout (`bash ci/smoke.sh`).  To
# run it without installing the package, put a `skeintails` on PATH that
# runs `python -m skeintails.cli "$@"` with src/ on PYTHONPATH.  Scratch
# files go to a temporary directory that is removed on exit.
#
# The tests call cli.main in-process; this runs the installed entry
# point.  `set -e` stops the script at the first nonzero exit.
# oracle-small builds projectors up to f(6) and contracts networks
# with boxes; the first two oracle runs are the closed f(2) and the
# ring of two colour-1 boxes of docs/network-format.md (the boxes
# are spliced out as plain strands and close one free loop).  The
# n = 4 tetrahedron must be refused by
# the contraction work bound (exit 2 at 122,980 joins, about 0.3 s
# with f(8) built cold; the timeout guards against a hang), and the
# 27-crossing (3,3) torus must evaluate.  The 8_5 braid closure at
# n = 3 (72 crossings) must be refused too (101,181 joins at node
# 50 of 75, about 2.5 s).
# The depth-4 multi-sum at the order cap takes about 8 s; the
# timeout guards the per-depth summation.  builtin:tails builds the
# most VFraction values of the builtin suites.  A non-integer flag
# and a zero exponent denominator must exit 2, not end in a
# traceback.  The normalized (2,5) torus value at n = 3 has lowest
# v-exponent -69, so it reaches its tail only by dropping a framing
# power of A that is not a power of q.  A network file that is not
# UTF-8 must exit 2.  The traced runs of perfbench/spans.py wrap
# every function its WRAPPED table names, so they fail if one is
# gone; the oracle-small run also calls every wrapped TL and network
# function (products, closures, tensors, coeff_of, bracket_closed),
# about 3 s traced, and the tails run calls the wrapped closed forms
# bubble_coeff, theta_2n, p_coeff and nn_i_coeff, and the tail sums
# on the PochTerm values they return.
# A multi-sum k above qidentities.MAX_AG_K must exit 2 at once (the
# timeout guards against running the sum).  The normalized trefoil
# at n = 1 spans four coefficients; --order 12 pads it with zeros,
# so its last CSV row is q^11.  A suite n_max above its check's
# cap (its row of verifycases.CHECKS) must exit 2 at once, and
# [150]! must build in well under the timeout (about 0.1 s with the
# dense Pochhammer kernel, 11.5 s as a chain of VLaurent products).
# A bubble_oracle max_param above its cap must exit 2 at once,
# before any contraction.  So must a torus_oracle f above its cap,
# whose time grows about quadratically in f, and a torus_oracle or
# tet_oracle colour n above its cap, before the network is built:
# uncapped, the (2,1) torus at n = 1000 built f * n^2 crossings for
# 4.8 s and 489 MiB before its boxes were refused.
# bubble_oracle at its cap (4) must pass: the tests and builtin
# suites stop at max_param 2, and only this run draws the bubble
# table at box colours up to 8
# (140 closures, about 0.5 s).  jw_laws at its cap (8) must pass
# too: the builtin suites stop at n_max 6, and only this run checks
# idempotence, annihilation, closure and absorption for f(7) and
# f(8) (about 7 s; f(8) * f(8) alone is 1430^2 diagram pairs), and
# morrison at its cap (4) checks the hook coefficient of f(8)
# against ([4]!)^2/[8]!, which no other run reaches (0.05 s more).
# tails-cap runs one case per closed-form tail check at its cap
# (torus_stabilization k_max 3 / n_max 50, lambda_theorem 11,
# nn_i_sweep 14, tail_lemma_psum 28, tail_lemma_psum_nn0 24,
# tail_lemma_fact 70, tail_lemma_bubble0 70, theta_tail 60), which
# the builtin suites do not reach: 0.2-0.4 s and 14-16 MiB peak,
# each closed form, torus value and (q^c;q)_n target read only to
# the order its check compares.  Built whole as exact fractions
# they took seconds; the timeout catches such a return, or a hang.
# A verify --order below 1 must exit 2: a series comparison at order 0 compares no
# coefficients and would pass.  A g_m graph family with m above
# tails_engine.MAX_FAMILY_M must exit 2 at once: each unit of m is
# one more series product, and m = 10**9 ran for hours.  A suite
# key its check does not declare (a misspelled "nmax") must exit 2
# at once: it used to be dropped, and the check passed at its default.
# So must a `series` flag its series does not declare (a misspelled
# --cc printed (q;q)_inf), and a key of a series_equal spec that its
# series does not declare.
set -e
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

skeintails verify builtin:jacobi --jobs 2
skeintails series theta_f --k 2 --order 20
test "$(skeintails jones --f 5 --n 3 --normalized --order 6)" = "1 - q - q^5"
timeout 120 skeintails series false_ag_rhs --k 5 --order 5000 > /dev/null
skeintails verify builtin:tails
code=0; skeintails series theta_f --k abc --order 5 || code=$?
test "$code" = 2
code=0; skeintails series theta_general --a_sign 1 --a_num 1 --a_den 0 --b_sign 1 --b_num 1 --order 5 || code=$?
test "$code" = 2
skeintails verify builtin:oracle-small
printf 'box p color 2\narc p.a0 p.b0\narc p.a1 p.b1\n' > "$tmp/closed-f2.net"
test "$(skeintails oracle "$tmp/closed-f2.net")" = "v^4 + 1 + v^-4"
printf 'box p color 1\nbox r color 1\narc p.a0 r.b0\narc r.a0 p.b0\n' > "$tmp/ring-f1.net"
test "$(skeintails oracle "$tmp/ring-f1.net")" = "-v^2 - v^-2"
python -c "from skeintails.networks import tet_network; print(tet_network(8).serialize(), end='')" > "$tmp/tet-n4.net"
code=0; timeout 60 skeintails oracle "$tmp/tet-n4.net" || code=$?
test "$code" = 2
python -c "from skeintails.networks import torus_knot_network; print(torus_knot_network(3, 3).serialize(), end='')" > "$tmp/torus-3-3.net"
skeintails oracle "$tmp/torus-3-3.net" > /dev/null
python -c "from skeintails.networks import braid_network; print(braid_network((1,1,1,-2,1,1,1,-2), 3, 3).serialize(), end='')" > "$tmp/eight-five-n3.net"
code=0; timeout 10 skeintails oracle "$tmp/eight-five-n3.net" || code=$?
test "$code" = 2
printf '\xff\xfe' > "$tmp/not-utf8.net"
code=0; skeintails oracle "$tmp/not-utf8.net" || code=$?
test "$code" = 2
python3 perfbench/spans.py builtin:jacobi "$tmp/spans.bin" "$tmp/spans-report.json"
python3 perfbench/spans.py builtin:oracle-small "$tmp/spans.bin" "$tmp/spans-report.json"
python3 perfbench/spans.py builtin:tails "$tmp/spans.bin" "$tmp/spans-report.json"
code=0; timeout 10 skeintails series ag_rhs --k 1000000 --order 10 || code=$?
test "$code" = 2
test "$(skeintails jones --f 3 --n 1 --normalized --order 12 --format csv | tail -n 1)" = "11,0,1"
printf '{"suite": "s", "cases": [{"id": "huge", "check": "tail_lemma_fact", "params": {"n_max": 100000}}]}' > "$tmp/n-max-cap.json"
code=0; timeout 10 skeintails verify "$tmp/n-max-cap.json" || code=$?
test "$code" = 2
timeout 20 python -c "from skeintails.qcore import quantum_fact; quantum_fact(150)"
printf '{"suite": "s", "cases": [{"id": "huge", "check": "bubble_oracle", "params": {"max_param": 100}}]}' > "$tmp/max-param-cap.json"
code=0; timeout 10 skeintails verify "$tmp/max-param-cap.json" || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "huge", "check": "torus_oracle", "params": {"f": 100000, "n": 1}}]}' > "$tmp/f-cap.json"
code=0; timeout 10 skeintails verify "$tmp/f-cap.json" || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "huge", "check": "torus_oracle", "params": {"f": 1, "n": 1000000}}]}' > "$tmp/torus-n-cap.json"
code=0; timeout 10 skeintails verify "$tmp/torus-n-cap.json" || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "huge", "check": "tet_oracle", "params": {"n": 1000000}}]}' > "$tmp/tet-n-cap.json"
code=0; timeout 10 skeintails verify "$tmp/tet-n-cap.json" || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "cap", "check": "bubble_oracle", "params": {"max_param": 4}}]}' > "$tmp/bubble-cap.json"
timeout 60 skeintails verify "$tmp/bubble-cap.json"
printf '{"suite": "s", "cases": [{"id": "cap", "check": "jw_laws", "params": {"n_max": 8}}, {"id": "morrison-cap", "check": "morrison", "params": {"n_max": 4}}]}' > "$tmp/jw-cap.json"
timeout 120 skeintails verify "$tmp/jw-cap.json"
printf '{"suite": "s", "cases": [{"id": "torus", "check": "torus_stabilization", "params": {"k_max": 3, "n_max": 50}}, {"id": "lambda", "check": "lambda_theorem", "params": {"n_max": 11}}, {"id": "nn-i", "check": "nn_i_sweep", "params": {"n_max": 14}}, {"id": "psum", "check": "tail_lemma_psum", "params": {"n_max": 28}}, {"id": "psum-nn0", "check": "tail_lemma_psum_nn0", "params": {"n_max": 24}}, {"id": "fact", "check": "tail_lemma_fact", "params": {"n_max": 70}}, {"id": "bubble0", "check": "tail_lemma_bubble0", "params": {"n_max": 70}}, {"id": "theta", "check": "theta_tail", "params": {"n_max": 60}}]}' > "$tmp/tails-cap.json"
timeout 60 skeintails verify "$tmp/tails-cap.json"
code=0; timeout 10 skeintails verify builtin:jacobi --order 0 || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "huge", "check": "series_equal", "params": {"order": 20, "a": {"family": "g_m", "m": 1000000000}, "b": {"series": "poch_inf", "c": 1}}}]}' > "$tmp/family-m-cap.json"
code=0; timeout 10 skeintails verify "$tmp/family-m-cap.json" || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "typo", "check": "theta_tail", "params": {"nmax": 100000}}]}' > "$tmp/unknown-key.json"
code=0; timeout 10 skeintails verify "$tmp/unknown-key.json" || code=$?
test "$code" = 2
code=0; timeout 10 skeintails series poch_inf --cc 3 --order 5 || code=$?
test "$code" = 2
printf '{"suite": "s", "cases": [{"id": "typo", "check": "series_equal", "params": {"order": 5, "a": {"series": "poch_inf", "cc": 3}, "b": {"series": "poch_inf"}}}]}' > "$tmp/unknown-spec-key.json"
code=0; timeout 10 skeintails verify "$tmp/unknown-spec-key.json" || code=$?
test "$code" = 2
