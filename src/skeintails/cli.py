"""Command-line front end.

Subcommands:

  series  NAME [--k 2 ...] --order N [--format text|json|csv]
  verify  SUITE [--order N] [--jobs J] [--out PATH]
  jones   --f F --n N [--normalized [--order N]] [--format text|json|csv]
  oracle  FILE [--format text|json]

Exit codes: 0 all passed / value printed, 1 verification failure, 2 usage,
parse, or capacity error (``verify`` opens its ``--out`` report before any
case runs, so an unwritable path is a usage error).  Every ``--order``, and
every ``order`` in a suite file, is capped at MAX_SERIES_ORDER before any
series is built, and in a verify case an order below 1 is an error case,
like a ``k_max`` below 1; a suite's ``n_max`` is capped per check at
``verifycases.MAX_N_MAX`` (``bubble_oracle``'s ``max_param`` at
``verifycases.MAX_MAX_PARAM``, ``torus_oracle``'s ``f`` at
``verifycases.MAX_F``, the colour ``n`` of ``torus_oracle`` and
``tet_oracle`` at ``verifycases.MAX_N``, and each of them below at 1)
before any value is built; and ``jones`` caps its inputs at MAX_JONES_N and MAX_JONES_SIZE.
``jones --normalized --order N`` reads the value only to its first N
coefficients; without ``--order`` it prints the whole normalized value.
``oracle`` refuses a box colour above ``tl_oracle.MAX_BOX_COLOR``, more than
``networks.MAX_FREE_LOOPS`` free loops, and a network whose contraction
work would exceed ``networks.MAX_CONTRACTION_WORK``.  A suite case
with a malformed or missing parameter, or without a ``check``, is reported
as an ``error`` case (exit 2); the other cases still run.  Output is
byte-deterministic for fixed inputs: the verify runner evaluates cases one
after another, in suite order.  ``--jobs J`` (J >= 1) is accepted for
compatibility and does not change how cases run: threads gave no speed-up
on this CPU-bound pure-Python code.

Start-up: this module imports only ``errors`` and the standard library.
Each subcommand imports the modules it calls (``series`` the q-series
sums, ``jones`` the closed forms, ``oracle`` the diagram oracle), and each
verify check imports its own (``verifycases``), so a process compiles only
what its cases reach.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import CapacityError, DomainError, SkeinError

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2

# Largest ``jones --n``, and largest f * n**2 (the crossing count of the
# cabled (2, f) diagram; the degree of the result grows with it).  At the
# corners, f=10 n=100 runs ~2 s and prints ~136 kB, f=100000 n=1 runs
# ~0.5 s and prints ~1.1 MB; beyond them run time and output grow without
# bound (f=1000000 n=3: 20 s, 51 MB).
MAX_JONES_N = 100
MAX_JONES_SIZE = 100_000


def _check_order(order: int | None) -> None:
    """Reject an ``--order`` above MAX_SERIES_ORDER before anything is allocated."""
    if order is None:
        return
    from .qcore import MAX_SERIES_ORDER

    if order > MAX_SERIES_ORDER:
        raise CapacityError(f"order {order} exceeds limit {MAX_SERIES_ORDER}")


def _series_text(s) -> str:
    return s.format(max_terms=1_000_000)


def _series_csv(s) -> str:
    lines = ["exponent,numerator,denominator"]
    for j, c in enumerate(s.coeffs):
        lines.append(f"{s.shift + j},{c},1")
    return "\n".join(lines)


def _emit_series(s, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(s.to_json_obj(), sort_keys=True), file=out)
    elif fmt == "csv":
        print(_series_csv(s), file=out)
    else:
        print(_series_text(s), file=out)


def _cmd_series(args, extra: dict[str, int], out) -> int:
    from .qidentities import SERIES_REGISTRY, named_series

    if args.name not in SERIES_REGISTRY:
        print(f"error: unknown series {args.name!r}; known: "
              f"{', '.join(sorted(SERIES_REGISTRY))}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        _check_order(args.order)
        s = named_series(args.name, extra, args.order)
    except SkeinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    _emit_series(s, args.format, out)
    return _EXIT_PASS


def _load_suite(spec: str) -> tuple[str, list[dict]]:
    if spec.startswith("builtin:"):
        from importlib import resources

        name = spec.split(":", 1)[1]
        ref = resources.files("skeintails") / "suites" / f"{name}.json"
        if not ref.is_file():
            raise DomainError(f"no builtin suite {name!r}")
        data = json.loads(ref.read_text())
    else:
        with open(spec) as fh:
            data = json.load(fh)
    cases = data["cases"]
    ids = [c["id"] for c in cases]
    if len(set(ids)) != len(ids):
        raise DomainError("case ids are not unique")
    return data.get("suite", spec), cases


def _run_case(case: dict, order_override: int | None) -> dict:
    try:
        params = dict(case.get("params", {}))
        if order_override is not None and "order" in params:
            params["order"] = order_override
        # An order written in the suite file is capped like --order.
        order = params.get("order")
        _check_order(None if order is None else int(order))
        from .verifycases import run_check

        ok, detail = run_check(case["check"], params)
        status = "pass" if ok else "fail"
    except (SkeinError, KeyError, TypeError, ValueError, OverflowError) as exc:
        # KeyError/TypeError/ValueError: a missing or malformed parameter;
        # OverflowError: an infinite number (JSON 1e400) given to int().
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    return {"id": case["id"], "status": status, "detail": detail}


def _cmd_verify(args, out) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return _EXIT_USAGE
    _check_order(args.order)
    try:
        suite_name, cases = _load_suite(args.suite)
    except (
        OSError, KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError,
        DomainError,
    ) as exc:
        print(f"error: cannot load suite: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    # Opened before any case runs, so a bad path costs nothing.
    try:
        report_file = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    with report_file as fh:
        results = [_run_case(c, args.order) for c in cases]
        report = {
            "suite": suite_name,
            "cases": results,
            "passed": all(r["status"] == "pass" for r in results),
        }
        if fh is not None:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        print(f"[{r['status'].upper():5s}] {r['id']}: {r['detail']}", file=out)
    print(
        f"{sum(r['status'] == 'pass' for r in results)}/{len(results)} cases passed",
        file=out,
    )
    if any(r["status"] == "error" for r in results):
        return _EXIT_USAGE
    return _EXIT_PASS if report["passed"] else _EXIT_FAIL


def _cmd_jones(args, out) -> int:
    if args.f < 1 or args.n < 0:
        print("error: need --f >= 1 and --n >= 0", file=sys.stderr)
        return _EXIT_USAGE
    if args.n > MAX_JONES_N:
        raise CapacityError(f"n {args.n} exceeds limit {MAX_JONES_N}")
    size = args.f * args.n**2
    if size > MAX_JONES_SIZE:
        raise CapacityError(f"f*n^2 = {size} exceeds limit {MAX_JONES_SIZE}")
    _check_order(args.order)
    from .skein_formulas import colored_jones_torus
    from .tails_engine import normalize

    if args.normalized:
        if args.order is None:
            s = normalize(colored_jones_torus(args.f, args.n))
        else:
            s = colored_jones_torus(args.f, args.n, order=args.order)
        _emit_series(s, args.format, out)
    else:
        value = colored_jones_torus(args.f, args.n)
        if args.format == "json":
            print(json.dumps(value.to_json_obj(), sort_keys=True), file=out)
        elif args.format == "csv":
            lines = ["v_exponent,numerator,denominator"]
            for e, c in sorted(value.terms.items()):
                lines.append(f"{e},{c},1")
            print("\n".join(lines), file=out)
        else:
            print(value.format(), file=out)
    return _EXIT_PASS


def _cmd_oracle(args, out) -> int:
    from .networks import ClosedNetwork, bracket_closed

    try:
        with open(args.file) as fh:
            net = ClosedNetwork.parse(fh.read())
        value = bracket_closed(net)
    except (OSError, UnicodeDecodeError, DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args.format == "json":
        obj = {
            "numerator": value.num.to_json_obj(),
            "denominator": value.den.to_json_obj(),
        }
        print(json.dumps(obj, sort_keys=True), file=out)
    else:
        if value.is_poly():
            print(value.num.format(), file=out)
        else:
            print(f"({value.num.format()}) / ({value.den.format()})", file=out)
    return _EXIT_PASS


def _parse_unknown_int_flags(unknown: list[str]) -> dict[str, int]:
    """Turn ['--k', '2', '--c', '5'] into {'k': 2, 'c': 5}."""
    params: dict[str, int] = {}
    i = 0
    while i < len(unknown):
        tok = unknown[i]
        if not tok.startswith("--"):
            raise DomainError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        else:
            i += 1
            if i >= len(unknown):
                raise DomainError(f"flag --{key} needs a value")
            val = unknown[i]
        try:
            params[key.replace("-", "_")] = int(val)
        except ValueError:
            raise DomainError(f"flag --{key} needs an integer, got {val!r}") from None
        i += 1
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeintails",
        description="Exact skein evaluations, q-series tails, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a named q-series")
    p.add_argument("name")
    p.add_argument("--order", "-N", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="builtin:NAME or a JSON file path")
    p.add_argument("--order", "-N", type=int, default=None)
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted, >= 1; cases always run serially"
    )
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("jones", help="colored Jones of the (2,f) torus link")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--order", "-N", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser(
        "oracle",
        help="evaluate a closed network file (exit 2 if over a fixed size limit)",
    )
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "series":
            args, unknown = parser.parse_known_args(argv)
            extra = _parse_unknown_int_flags(unknown)
            return _cmd_series(args, extra, out)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "jones":
            return _cmd_jones(args, out)
        if args.command == "oracle":
            return _cmd_oracle(args, out)
    except SkeinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    parser.error("no command")
    return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
