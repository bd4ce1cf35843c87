"""Command-line front end: eval, enumerate, verify.

Exit codes: 0 success (or verified Pass), 1 usage or parse problems,
2 budget exhausted, 3 counterexample found, 4 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .core import ApproxSystem
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    SearchTimeout,
)
from .evaluate import apply, default_budget_schedule, eval_name, make_budget_schedule
from .names import name_of_point
from .numerics import Point, Rat, as_rat, decimal_str
from .systems import (
    cosine_system,
    division_system,
    load_formula,
    maximal_division_system,
    semialgebraic_system,
    squaring_system,
)
from .verify import (
    Outcome,
    Verdict,
    cosine_oracle,
    division_oracle,
    squaring_oracle,
    verify_condition1,
    verify_condition2,
)

_BUILTIN_SYSTEMS = {
    "division": division_system,
    "maximal-division": maximal_division_system,
    "cosine": cosine_system,
    "square": squaring_system,
}

_ORACLES = {
    "division": division_oracle,
    "cosine": cosine_oracle,
    "square": squaring_oracle,
}

# which oracle audits which built-in system
_ORACLE_FOR_SYSTEM = {
    "division": "division",
    "maximal-division": "division",
    "cosine": "cosine",
    "square": "square",
}

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_TIMEOUT = 2
_EXIT_COUNTER_EXAMPLE = 3
_EXIT_INCONCLUSIVE = 4


class _UsageError(Exception):
    pass


def _at_least(flag: str, value: Optional[int], least: int = 0):
    """Usage error unless the option is unset or at least `least`."""
    if value is not None and value < least:
        kind = "a natural number" if least == 0 else "positive"
        raise _UsageError(f"{flag} must be {kind}")


def _parse_point(text: str) -> Point:
    try:
        return tuple(as_rat(part) for part in text.split(","))
    except FormatError as exc:
        raise _UsageError(str(exc)) from exc


def _resolve_system(spec: str) -> ApproxSystem:
    if spec in _BUILTIN_SYSTEMS:
        return _BUILTIN_SYSTEMS[spec]()
    if spec.endswith(".json") or os.path.exists(spec):
        formula, nvars = load_formula(spec)
        return semialgebraic_system(formula, nvars, name=os.path.basename(spec))
    raise _UsageError(
        f"unknown system {spec!r}: expected one of "
        f"{sorted(_BUILTIN_SYSTEMS)} or a formula file path"
    )


def _precision_index(args) -> int:
    if args.eps is not None and args.prec_index is not None:
        raise _UsageError("--prec-index and --eps are mutually exclusive")
    if args.eps is not None:
        eps = as_rat(args.eps)
        if eps <= 0:
            raise _UsageError("--eps must be positive")
        # least n with 1/(n+1) <= eps
        return max(0, math.ceil(Fraction(1) / eps) - 1)
    if args.prec_index is None:
        raise _UsageError("one of --prec-index or --eps is required")
    _at_least("--prec-index", args.prec_index)
    return args.prec_index


def _budget_schedule(args):
    if args.budget is not None:
        _at_least("--budget", args.budget)
        return lambda i: args.budget
    base_text = os.environ.get("APPROXSYS_DEFAULT_BUDGET")
    if base_text is not None:
        try:
            base = int(base_text)
        except ValueError as exc:
            raise _UsageError(
                f"APPROXSYS_DEFAULT_BUDGET must be an integer, got {base_text!r}"
            ) from exc
        if base <= 0:
            raise _UsageError("APPROXSYS_DEFAULT_BUDGET must be positive")
        return make_budget_schedule(base)
    return default_budget_schedule


def _print_eval(value: Rat, n: int, steps: Optional[int], args):
    digits = args.digits if args.digits is not None else len(str(n + 1)) + 2
    if args.output == "json":
        doc = {
            "value": str(value),
            "decimal": decimal_str(value, digits),
            "precision_index": n,
            "search_steps": steps,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"value = {value}")
        print(f"decimal ~ {decimal_str(value, digits)}")
        print(f"precision_index = {n}")
        if steps is not None:
            print(f"search_steps = {steps}")


def _cmd_eval(args) -> int:
    _at_least("--digits", args.digits)
    n = _precision_index(args)
    schedule = _budget_schedule(args)
    if (args.system is None) == (args.compose is None):
        raise _UsageError("eval needs exactly one of --system or --compose")
    if args.point is None:
        raise _UsageError("--point is required")
    point = _parse_point(args.point)

    if args.compose is not None:
        chain = [_resolve_system(nm.strip()) for nm in args.compose.split(",")]
        for system in chain:
            if system.dim_in != 1:
                raise _UsageError(
                    f"--compose chains unary systems; {system.name} has "
                    f"dimension {system.dim_in}"
                )
        if len(point) != 1:
            raise _UsageError("--compose expects a one-dimensional --point")
        f = name_of_point(point)
        for system in reversed(chain):
            f = eval_name(system, f, schedule)
        value = f.approx(n)[0]
        _print_eval(value, n, None, args)
        return _EXIT_OK

    system = _resolve_system(args.system)
    if len(point) != system.dim_in:
        raise _UsageError(
            f"{system.name} expects a point of dimension {system.dim_in}, "
            f"got {len(point)}"
        )
    result = apply(system, name_of_point(point), n, schedule(n))
    _print_eval(result.value, result.precision_index, result.search_steps, args)
    return _EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.system is None:
        raise _UsageError("--system is required")
    _at_least("--count", args.count)
    _at_least("--scan-cap", args.scan_cap)
    system = _resolve_system(args.system)
    members = system.members_prefix(args.count, args.scan_cap)
    if args.output == "json":
        doc = {
            "system": system.name,
            "members": [
                {
                    "a": [str(c) for c in q.a],
                    "m": q.m,
                    "b": str(q.b),
                    "n": q.n,
                }
                for q in members
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for idx, q in enumerate(members):
            coords = ", ".join(str(c) for c in q.a)
            print(f"#{idx}: a=({coords}) m={q.m} b={q.b} n={q.n}")
        if len(members) < args.count:
            print(f"(scan horizon reached after {len(members)} members)")
    return _EXIT_OK


def _verdict_lines(label: str, verdict: Verdict) -> List[str]:
    lines = [
        f"{label}: outcome = {verdict.outcome.value}, samples = {verdict.samples}"
        + (f", seed = {verdict.seed}" if verdict.seed is not None else "")
    ]
    if verdict.diagnostics:
        lines.append(f"{label}: {verdict.diagnostics}")
    if verdict.witness is not None:
        lines.append(f"{label}: witness = {json.dumps(verdict.witness, sort_keys=True)}")
    return lines


def _cmd_verify(args) -> int:
    if args.system is None:
        raise _UsageError("--system is required")
    _at_least("--quads", args.quads, least=1)
    _at_least("--xi-per-quad", args.xi_per_quad, least=1)
    _at_least("--scan-cap", args.scan_cap)
    _at_least("--cond2-n", args.cond2_n)
    system = _resolve_system(args.system)
    if args.oracle is not None:
        oracle = _ORACLES[args.oracle]()
    elif args.system in _ORACLE_FOR_SYSTEM:
        oracle = _ORACLES[_ORACLE_FOR_SYSTEM[args.system]]()
    else:
        raise _UsageError(
            "formula systems need --oracle to say what they claim to compute"
        )
    if args.cond2_xi is not None:
        xi = _parse_point(args.cond2_xi)
        if len(xi) != system.dim_in:
            raise _UsageError(
                f"--cond2-xi must have dimension {system.dim_in}"
            )

    verdicts = {}
    verdicts["condition1"] = verify_condition1(
        system, oracle, quad_samples=args.quads, xi_samples=args.xi_per_quad,
        seed=args.seed, scan_cap=args.scan_cap,
    )
    if args.cond2_xi is not None:
        verdicts["condition2"] = verify_condition2(
            system, oracle, xi, args.cond2_n, seed=args.seed,
        )

    if args.output == "json":
        doc = {label: v.to_json_dict() for label, v in verdicts.items()}
        print(json.dumps(doc, sort_keys=True))
    else:
        for label, v in verdicts.items():
            for line in _verdict_lines(label, v):
                print(line)

    outcomes = [v.outcome for v in verdicts.values()]
    if Outcome.COUNTER_EXAMPLE in outcomes:
        return _EXIT_COUNTER_EXAMPLE
    if Outcome.INCONCLUSIVE in outcomes:
        return _EXIT_INCONCLUSIVE
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxsys",
        description="Exact real computation through enumerable approximation systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", help="built-in system name or formula file path")
        p.add_argument("--output", choices=("plain", "json"), default="plain")

    p_eval = sub.add_parser("eval", help="evaluate a system at an exact rational point")
    common(p_eval)
    p_eval.add_argument("--point", help="comma-separated rational coordinates, e.g. 1,3")
    p_eval.add_argument("--prec-index", type=int, help="output precision index n")
    p_eval.add_argument("--eps", help="precision as a rational bound, e.g. 1/1000")
    p_eval.add_argument("--budget", type=int, help="fixed search budget in steps")
    p_eval.add_argument("--digits", type=int, help="decimal digits to display")
    p_eval.add_argument(
        "--compose",
        help="comma-separated chain of unary systems, outermost first",
    )

    p_enum = sub.add_parser("enumerate", help="list the first members of a system")
    common(p_enum)
    p_enum.add_argument("--count", type=int, default=10)
    p_enum.add_argument("--scan-cap", type=int, help="max codes to scan")

    p_verify = sub.add_parser("verify", help="audit a system against a reference oracle")
    common(p_verify)
    p_verify.add_argument("--quads", type=int, default=1000)
    p_verify.add_argument("--xi-per-quad", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--scan-cap", type=int, help="max codes to scan")
    p_verify.add_argument("--oracle", choices=sorted(_ORACLES))
    p_verify.add_argument("--cond2-xi", help="also audit productivity at this point")
    p_verify.add_argument("--cond2-n", type=int, default=4)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for timeouts here
        return _EXIT_OK if exc.code == 0 else _EXIT_USAGE

    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_verify(args)
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return _EXIT_TIMEOUT
    except (_UsageError, FormatError, DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
