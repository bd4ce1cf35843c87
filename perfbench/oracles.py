"""Correctness oracles that share no code with approxsys.

A result b claimed at precision index n is correct when |b - f(x)| < 1/(n+1).
Division and squaring are checked in exact rational arithmetic.  Cosine and
every composition are enclosed with mpmath's rigorous interval arithmetic and
compared exactly against the enclosure's endpoints: the check passes only
when every point of the enclosure is within the bound, fails when none is,
and otherwise refines the enclosure.  A straddle that survives the last
refinement raises Unresolved, which check_value reports as a failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Tuple

from mpmath import iv

# Working precision of the first enclosure, in bits beyond what the bound
# itself needs; each refinement multiplies the precision by REFINE_FACTOR.
BASE_PREC = 64
REFINE_FACTOR = 4
MAX_PREC = 1 << 16


class Unresolved(Exception):
    """The enclosure still straddled the bound at MAX_PREC."""


def within_exact(value: Fraction, truth: Fraction, n: int) -> bool:
    return abs(value - truth) < Fraction(1, n + 1)


def _mpf_to_fraction(mpf_tuple) -> Fraction:
    sign, man, exp, bc = mpf_tuple
    if not man and bc:
        raise ValueError("infinite or undefined interval endpoint")
    x = Fraction(man) * Fraction(2) ** exp
    return -x if sign else x


def interval_endpoints(x) -> Tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath interval; ValueError if unbounded."""
    lo, hi = x._mpi_
    return _mpf_to_fraction(lo), _mpf_to_fraction(hi)


def within_enclosure(value: Fraction, n: int, enclose: Callable[[], object]) -> bool:
    """Check |value - truth| < 1/(n+1) for the truth enclose() brackets.

    `enclose` is called under a working precision set here and must return
    an mpmath interval containing the true value.
    """
    bound = Fraction(1, n + 1)
    prec = BASE_PREC + 2 * (n + 1).bit_length()
    saved = iv.prec
    try:
        while prec <= MAX_PREC:
            iv.prec = prec
            try:
                lo, hi = interval_endpoints(enclose())
            except ValueError:
                prec *= REFINE_FACTOR
                continue
            farthest = max(abs(value - lo), abs(value - hi))
            if farthest < bound:
                return True
            nearest = Fraction(0) if lo <= value <= hi else min(abs(value - lo), abs(value - hi))
            if nearest >= bound:
                return False
            prec *= REFINE_FACTOR
    finally:
        iv.prec = saved
    raise Unresolved(f"enclosure still straddles 1/{n + 1} at {MAX_PREC} bits")


def iv_rat(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


# Interval forms of the built-in functions, keyed like the CLI's system names.
# mpmath's integer power of an interval that straddles 0 returns [0, max^2].
IV_STEPS = {
    "cosine": lambda args: iv.cos(args[0]),
    "square": lambda args: args[0] ** 2,
    "division": lambda args: args[0] / args[1],
}


def chain_enclosure(chain: Sequence[str], point: Sequence[Fraction]) -> Callable[[], object]:
    """Enclosure of chain[0](chain[1](...chain[-1](point))), innermost last."""

    def enclose():
        args = [iv_rat(c) for c in point]
        for step in reversed(chain):
            args = [IV_STEPS[step](args)]
        return args[0]

    return enclose


def exact_truth(system: str, point: Sequence[Fraction]) -> Fraction:
    """Exact value for the rational-valued built-ins."""
    if system in ("division", "maximal-division"):
        return point[0] / point[1]
    if system == "square":
        return point[0] * point[0]
    raise KeyError(system)


def check_value(chain: Sequence[str], point: Sequence[Fraction], n: int, value: Fraction) -> bool:
    """Oracle verdict for a chain of built-ins evaluated at an exact point;
    an unresolved straddle is a failed check."""
    if len(chain) == 1 and chain[0] != "cosine":
        return within_exact(value, exact_truth(chain[0], point), n)
    steps = ["division" if s == "maximal-division" else s for s in chain]
    try:
        return within_enclosure(value, n, chain_enclosure(steps, point))
    except Unresolved:
        return False
