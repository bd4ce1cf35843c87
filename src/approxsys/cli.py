"""Command-line front end: eval, enumerate, verify.

A thin shell over the library: `eval --system` and `eval --compose` run
one `apply`, and a usage error is the package's FormatError.

Exit codes: 0 success (or verified Pass), 1 any package error but a
timeout (usage, parse, dimension, domain), 2 budget exhausted,
3 counterexample found, 4 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .core import ApproxSystem
from .errors import ApproxSysError, FormatError, SearchTimeout, at_least, same_dim
from .evaluate import apply, default_budget_schedule, eval_name, make_budget_schedule
from .names import name_of_point
from .numerics import as_point, as_rat, decimal_str
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

# each built-in system and the oracle that audits it; `--oracle` names an
# oracle by its own name, the system it was written for
_BUILTINS = {
    "division": (division_system, division_oracle),
    "maximal-division": (maximal_division_system, division_oracle),
    "cosine": (cosine_system, cosine_oracle),
    "square": (squaring_system, squaring_oracle),
}

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_OUT_OF_BUDGET = 2
_EXIT_COUNTER_EXAMPLE = 3
_EXIT_INCONCLUSIVE = 4


def _resolve_system(spec: str) -> ApproxSystem:
    if spec in _BUILTINS:
        return _BUILTINS[spec][0]()
    if spec.endswith(".json") or os.path.exists(spec):
        formula, nvars = load_formula(spec)
        return semialgebraic_system(formula, nvars, name=os.path.basename(spec))
    raise FormatError(
        f"unknown system {spec!r}: expected one of "
        f"{sorted(_BUILTINS)} or a formula file path"
    )


def _precision_index(args) -> int:
    if args.eps is not None and args.prec_index is not None:
        raise FormatError("--prec-index and --eps are mutually exclusive")
    if args.eps is not None:
        eps = as_rat(args.eps)
        if eps <= 0:
            raise FormatError("--eps must be positive")
        # least n with 1/(n+1) <= eps
        return max(0, math.ceil(Fraction(1) / eps) - 1)
    if args.prec_index is None:
        raise FormatError("one of --prec-index or --eps is required")
    return args.prec_index


def _budget_schedule(args):
    if args.budget is not None:
        return lambda i: args.budget
    base_text = os.environ.get("APPROXSYS_DEFAULT_BUDGET")
    if base_text is not None:
        try:
            base = int(base_text)
        except ValueError as exc:
            raise FormatError(
                f"APPROXSYS_DEFAULT_BUDGET must be an integer, got {base_text!r}"
            ) from exc
        at_least(1, APPROXSYS_DEFAULT_BUDGET=base)
        return make_budget_schedule(base)
    return default_budget_schedule


def _cmd_eval(args) -> int:
    at_least(0, **{"--digits": args.digits, "--prec-index": args.prec_index,
                   "--budget": args.budget})
    n = _precision_index(args)
    schedule = _budget_schedule(args)
    if (args.system is None) == (args.compose is None):
        raise FormatError("eval needs exactly one of --system or --compose")
    if args.point is None:
        raise FormatError("--point is required")
    point = as_point(args.point.split(","))
    specs = [args.system] if args.compose is None else [s.strip() for s in args.compose.split(",")]
    outer, *inner = map(_resolve_system, specs)
    # the innermost system reads the point; each other one, the next one's output
    f = name_of_point(point)
    for system in reversed(inner):
        f = eval_name(system, f, schedule)
    result = apply(outer, f, n, schedule(n))
    value = result.value
    steps = result.search_steps if args.compose is None else None
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
    return _EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.system is None:
        raise FormatError("--system is required")
    at_least(0, **{"--count": args.count, "--scan-cap": args.scan_cap})
    system = _resolve_system(args.system)
    members = system.members_prefix(args.count, args.scan_cap)
    if args.output == "json":
        doc = {"system": system.name, "members": [q.to_json_dict() for q in members]}
        print(json.dumps(doc, sort_keys=True))
    else:
        lines = [f"#{idx}: a=({', '.join(map(str, q.a))}) m={q.m} b={q.b} n={q.n}\n"
                 for idx, q in enumerate(members)]
        if len(members) < args.count:
            lines.append(f"(scan horizon reached after {len(members)} members)\n")
        sys.stdout.write("".join(lines))
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
        raise FormatError("--system is required")
    at_least(1, **{"--quads": args.quads, "--xi-per-quad": args.xi_per_quad})
    at_least(0, **{"--scan-cap": args.scan_cap, "--cond2-n": args.cond2_n})
    system = _resolve_system(args.system)
    builtin = _BUILTINS.get(args.oracle or args.system)
    if builtin is None:
        raise FormatError(
            "formula systems need --oracle to say what they claim to compute"
        )
    oracle = builtin[1]()
    if args.cond2_xi is not None:
        xi = as_point(args.cond2_xi.split(","))
        same_dim("--cond2-xi", len(xi), f"system {system.name}", system.dim_in)

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
        help="comma-separated chain of systems, outermost first; every system "
        "but the innermost is unary",
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
    p_verify.add_argument("--oracle", choices=sorted({o().name for _, o in _BUILTINS.values()}))
    p_verify.add_argument("--cond2-xi", help="also audit productivity at this point")
    p_verify.add_argument("--cond2-n", type=int, default=4)

    return parser


# Built once per process: each parse_args call fills a fresh namespace, so
# one parser serves every main call.
_PARSER = _build_parser()

# The options whose value is a rational or a point, which may start with "-".
_SIGNED_OPTIONS = ("--point", "--eps", "--cond2-xi")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _glue_signed_values(argv: List[str]) -> List[str]:
    """Rewrite `--point -1/2` as `--point=-1/2`.

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number such as -3 or -0.25, so `-1/2` or `-1,3` would
    leave the option before it without a value.  No option of this CLI
    starts with "-" and a digit or a dot.
    """
    out: List[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(_glue_signed_values(sys.argv[1:] if argv is None else argv))
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
        return _EXIT_OUT_OF_BUDGET
    except ApproxSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
