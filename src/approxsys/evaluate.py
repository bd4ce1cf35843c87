"""Evaluation through approximation systems, and the converse extraction.

`apply` turns a system plus a name of the input point into one certified
output approximation; `eval_name` strings those into an output name.  In the
other direction, `operator_from_system` packages an evaluator as an abstract
name operator, and `system_from_operator` recovers an approximation system
from any such operator by brute certification.

Every value `apply` returns is membership-certified: a quadruple
(f(l), l, b, n) was confirmed in the system with the very index l at which
the name was read, so soundness of the system transfers to the result with
no further trust in the search order, which has two phases:

  phase A  witness ladder: ask the system for a candidate b at input
           precisions l = (n+1)*2^t - 1, t <= 12, and certify it (the
           exact quotient for division, the simplest dyadic near a Taylor
           midpoint for cosine, a cell of the b-line for every formula
           system, the operator's own value for an extracted system);
  phase B  a plain dovetailed sweep of (l, j, s) codes at full precision,
           which guarantees completeness: if any certifiable answer exists,
           enough budget eventually finds it.  A system without a witness
           gets only this phase.

Each membership probe costs one budget step, uniformly across phases, which
makes results deterministic and monotone in the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple, Union

from .core import ApproxSystem, Membership, Quadruple, decode_quadruple
from .errors import DimensionError, DomainError, SearchTimeout
from .names import OrdinaryName
from .numerics import Point, Rat, cantor_split, decode_rat, decode_tuple

# Phase A input-precision ladder: l = (n+1)*2^t - 1 for t = 0..12.
_LADDER_RUNGS = 13


@dataclass(frozen=True)
class EvalResult:
    """One certified approximation: |value - f(point)| < 1/(precision_index+1)."""

    value: Rat
    precision_index: int
    search_steps: int


class _Probes:
    __slots__ = ("used", "budget")

    def __init__(self, budget: int):
        self.used = 0
        self.budget = budget


def _probe(system: ApproxSystem, quad: Quadruple, s: int, probes: _Probes) -> bool:
    if probes.used >= probes.budget:
        raise SearchTimeout(probes.budget)
    probes.used += 1
    return system.membership(quad, s) is Membership.YES


def apply(system: ApproxSystem, f: OrdinaryName, n: int, budget: int,
          _probes: Optional[_Probes] = None) -> EvalResult:
    """One certified output approximation at precision index n.

    Raises DomainError on a negative n or budget, before reading the name,
    and SearchTimeout when `budget` membership probes are spent without a
    certificate; the spent budget is the only failure information available
    (invalid name, point outside the domain, and too-small budget are
    indistinguishable by design).
    """
    if n < 0 or budget < 0:
        raise DomainError(f"precision index {n} and budget {budget} must be natural numbers")
    if f.dim != system.dim_in:
        raise DimensionError(
            f"{system.name}: name of dimension {f.dim}, system expects {system.dim_in}"
        )
    probes = _probes if _probes is not None else _Probes(budget)

    # phase A: certified witnesses at geometrically finer input precision
    if system.provides_witness:
        for t in range(_LADDER_RUNGS):
            l = (n + 1) * (1 << t) - 1
            a = f.approx(l)
            b = system.witness(a, l, n)
            if b is None:
                continue
            if _probe(system, Quadruple(a, l, b, n), l, probes):
                return EvalResult(b, n, probes.used)

    # phase B: exhaustive dovetailing at the requested precision
    for g in count():
        l, j, s = decode_tuple(g, 3)
        quad = Quadruple(f.approx(l), l, decode_rat(j), n)
        if _probe(system, quad, s, probes):
            return EvalResult(quad.b, n, probes.used)


def make_budget_schedule(base: int) -> Callable[[int], int]:
    def schedule(n: int) -> int:
        return base * (1 << n)

    return schedule


default_budget_schedule = make_budget_schedule(10_000)


def eval_name(system: ApproxSystem, f: OrdinaryName,
              budget_schedule: Optional[Callable[[int], int]] = None) -> OrdinaryName:
    """The output name: index i carries apply(system, f, i, schedule(i)).

    Memoized by the name machinery, so composing systems re-evaluates
    nothing.  Output points are one-dimensional.
    """
    schedule = budget_schedule if budget_schedule is not None else default_budget_schedule

    def fun(i: int) -> Point:
        return (apply(system, f, i, schedule(i)).value,)

    return OrdinaryName(fun, dim=1)


# --- name operators -----------------------------------------------------------

@dataclass(frozen=True)
class Value:
    """Successful operator run: a rational output approximation."""

    v: Rat


@dataclass(frozen=True)
class OutOfBudget:
    """The step budget ran out; a larger budget may do better."""


@dataclass(frozen=True)
class OracleMiss:
    """The run needed the input name at `index`, beyond the given fragment."""

    index: int


class NameOperator:
    """Abstract budgeted computation on finite name fragments.

    run(fragment, output_index, steps) must be deterministic, and a Value
    outcome must persist under any fragment extension and any budget
    increase (with the same value).
    """

    def run(self, fragment: Tuple[Point, ...], output_index: int, steps: int):
        raise NotImplementedError


class _FragmentMiss(Exception):
    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


class _FragmentName(OrdinaryName):
    """Name backed by a finite fragment; reads past the end raise."""

    def __init__(self, fragment: Tuple[Point, ...], dim: int):
        def fun(i: int) -> Point:
            if i < len(fragment):
                return fragment[i]
            raise _FragmentMiss(i)

        super().__init__(fun, dim)


class _SystemOperator(NameOperator):
    """Wrap apply(system, -, output_index, steps) as a name operator.

    The memo keeps one record (event, probes_used) per (fragment, output
    index): the Value or OracleMiss the deepest run so far fired and the
    probe count at which it fired, or None and the budget after a timeout.
    Only a timeout is rerun, and only with more budget; otherwise the record
    answers, giving exactly what a fresh run with the requested budget would
    return, because the probe sequence is deterministic and budget-monotone.
    """

    def __init__(self, system: ApproxSystem):
        self._system = system
        self._memo: Dict[Tuple[Tuple[Point, ...], int],
                         Tuple[Optional[Union[Value, OracleMiss]], int]] = {}

    def run(self, fragment: Tuple[Point, ...], output_index: int, steps: int):
        fragment = tuple(tuple(c) for c in fragment)
        key = (fragment, output_index)
        event, used = self._memo.get(key, (None, None))
        if used is None or (event is None and steps > used):
            probes = _Probes(steps)
            name = _FragmentName(fragment, self._system.dim_in)
            try:
                event = Value(apply(self._system, name, output_index, steps, _probes=probes).value)
            except _FragmentMiss as miss:
                event = OracleMiss(miss.index)
            except SearchTimeout:
                event = None
            used = probes.used
            self._memo[key] = (event, used)
        return event if event is not None and steps >= used else OutOfBudget()


def operator_from_system(system: ApproxSystem) -> NameOperator:
    return _SystemOperator(system)


# --- systems from operators -----------------------------------------------------

# Candidate points per fragment slot: indices 0..16 are dyadic roundings of a
# at geometrically finer grids; each larger index is computed directly as an
# offset of a by a rational vector inside the slot's admissibility ball.
_DYADIC_CANDIDATES = 17


class _OperatorSystem(ApproxSystem):
    """Approximation facts certified by running a name operator.

    (a, m, b, n) is accepted when some fragment g of length l+1 with
    2l+1 <= m and dist(g(k), a) < 1/(2k+2) for all k makes
    T.run(g, 2n+1, s) = Value(v) with |v - b| < 1/(2n+2).  Such a fragment
    is a name prefix of *every* point within 1/(m+1) of a (the two strict
    halves add to 1/(k+1)), so when T is the evaluator of a sound system the
    accepted quadruple is itself sound: |v - f(point)| < 1/(2n+2) and the
    triangle inequality lands b within 1/(n+1).
    """

    def __init__(self, operator: NameOperator, dim: int):
        super().__init__()
        if dim <= 0:
            raise DimensionError("system dimension must be positive")
        self._T = operator
        self.dim_in = dim
        self.name = "operator-system"
        self.provides_witness = True

    def _candidate(self, a: Point, k: int, c: int) -> Point:
        """Candidate c for slot k: a point strictly inside the 1/(2k+2) ball at a.

        c < 17 rounds a to the grid 2^-h, h = bit_length(2k+2) + c.  Larger c
        decodes (nums, d) from c - 17, sets q = d + 1 and returns
        a + t/(2k+2) with t_i = (nums_i mod (2q-1) - (q-1))/q, so |t_i| < 1.
        Every rational point of the open ball is some candidate, each at O(1)
        cost.
        """
        if c < _DYADIC_CANDIDATES:
            # rounding to the grid 2^-h, 2^h > 2k+2, moves a by less than 1/(2k+2);
            # floor(x 2^h + 1/2) for x = p/d is (2 p 2^h + d) // 2d
            scale = 1 << ((2 * k + 2).bit_length() + c)
            return tuple(Fraction((2 * x.numerator * scale + x.denominator) // (2 * x.denominator),
                                  scale) for x in a)
        *nums, d = decode_tuple(c - _DYADIC_CANDIDATES, self.dim_in + 1)
        q = d + 1
        return tuple(x + Fraction(num % (2 * q - 1) - (q - 1), q * (2 * k + 2))
                     for x, num in zip(a, nums))

    def witness(self, a: Point, m: int, n: int) -> Optional[Rat]:
        """T's value on the default ramp: candidate 0 at each slot k <= (m-1)/2."""
        self._check_dim(a)
        ramp = tuple(self._candidate(a, k, 0) for k in range((m + 1) // 2))
        res = self._T.run(ramp, 2 * n + 1, m) if ramp else None
        return res.v if isinstance(res, Value) else None

    def membership(self, quad: Quadruple, budget: int) -> Membership:
        self._check_dim(quad.a)
        a, m, b, n = quad.a, quad.m, quad.b, quad.n
        top = (m - 1) // 2  # largest fragment end l with 2l+1 <= m
        if top < 0:
            return Membership.NOT_YET
        out_idx = 2 * n + 1
        tol = Fraction(1, 2 * n + 2)
        ramp: List[Point] = []  # shared prefix of the all-defaults attempts
        for u in range(budget):
            if u <= top:
                ramp.append(self._candidate(a, u, 0))
                fragment = tuple(ramp)
            else:
                l, shift_code = cantor_split(u - top - 1)
                if l > top:
                    continue
                shifts = decode_tuple(shift_code, l + 1)
                fragment = tuple(self._candidate(a, k, c) for k, c in enumerate(shifts))
            res = self._T.run(fragment, out_idx, budget)
            if isinstance(res, Value) and abs(res.v - b) < tol:
                return Membership.YES
        return Membership.NOT_YET

    def enumerate(self, k: int) -> Optional[Quadruple]:
        quad_code, s = cantor_split(k)
        quad = decode_quadruple(quad_code, self.dim_in)
        return quad if self.membership(quad, s) is Membership.YES else None


def system_from_operator(operator: NameOperator, dim: int) -> ApproxSystem:
    return _OperatorSystem(operator, dim)
