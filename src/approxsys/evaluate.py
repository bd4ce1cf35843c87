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

  phase A  witnesses: read the name at the system's start index
           (modulus(None, n); n for a system without a modulus, 2n+1 for
           cosine), and at each of the first two points read ask the modulus
           for an index m at which the witness certifies there (the least for
           division and square); when m is finer than the index read, read
           again at m itself, with no cap.  Division, square and cosine state
           a modulus; maximal division, formula systems built without one and
           extracted systems do not.  Then ask the system for a candidate b
           and certify it (the exact quotient for division, the simplest
           dyadic near a Taylor midpoint for cosine, a cell of the b-line
           for every formula system, the operator's own value for an
           extracted system).  When that fails, a ladder reads the rungs
           l = (n+1)*2^t - 1 above the last index read, up to t = 12;
  phase B  a plain dovetailed sweep at full precision, which guarantees
           completeness: if any certifiable answer exists, enough budget
           eventually finds it.  It reads (l, j) = cantor_split(g) for a
           system with decide, whose membership ignores the budget s, and
           (l, j, s) = decode_tuple(g, 3) for any other.  A system whose
           witness is None gets only this phase.

Each membership probe costs one budget step, uniformly across phases, which
makes results deterministic and monotone in the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from typing import Callable, Iterator, Optional, Tuple

from .core import ApproxSystem, Membership, Quadruple, decode_quadruple
from .errors import SearchTimeout, at_least, positive_dim, same_dim
from .names import OrdinaryName
from .numerics import Point, Rat, cantor_split, decode_rat, decode_tuple

# Phase A's fallback ladder: l = (n+1)*2^t - 1 for t <= 12.  It caps only the
# ladder, never a read at the index a modulus names.
_LADDER_RUNGS = 13
# Phase A asks a system's modulus at the first this many points it reads.
_MODULUS_ASKS = 2


@dataclass(frozen=True)
class EvalResult:
    """One certified approximation: |value - f(point)| < 1/(precision_index+1)."""

    value: Rat
    precision_index: int
    search_steps: int


def apply(system: ApproxSystem, f: OrdinaryName, n: int, budget: int) -> EvalResult:
    """One certified output approximation at precision index n.

    Raises DomainError on a negative n or budget, before reading the name,
    and SearchTimeout when `budget` membership probes are spent without a
    certificate; the spent budget is the only failure information available
    (invalid name, point outside the domain, and too-small budget are
    indistinguishable by design).
    """
    if n < 0 or budget < 0:
        at_least(0, n=n, budget=budget)
    if f.dim != system.dim_in:
        same_dim("name", f.dim, f"system {system.name}", system.dim_in)
    used = 0

    # phase A: the witness at the index the modulus names, then a ladder
    if system.witness is not None:
        modulus = system.modulus
        if modulus is None:
            l, asks = n, 0
        else:
            l, asks = modulus(None, n), _MODULUS_ASKS
        while True:
            a = f.approx(l)
            if asks:
                asks -= 1
                m = modulus(a, n)
                if m is not None and m > l:
                    l = m
                    continue
            b = system.witness(a, l, n)
            if b is not None:
                if used == budget:
                    raise SearchTimeout(budget)
                used += 1
                if system.membership(Quadruple(a, l, b, n), l) is Membership.YES:
                    return EvalResult(b, n, used)
            t = ((l + 1) // (n + 1)).bit_length()  # the first rung above l
            if t >= _LADDER_RUNGS:
                break
            l = ((n + 1) << t) - 1

    # phase B: exhaustive dovetailing at the requested precision
    decidable = system.decide is not None  # then membership ignores s
    for g in count():
        l, j, s = (*cantor_split(g), 0) if decidable else decode_tuple(g, 3)
        quad = Quadruple(f.approx(l), l, decode_rat(j), n)
        if used == budget:
            raise SearchTimeout(budget)
        used += 1
        if system.membership(quad, s) is Membership.YES:
            return EvalResult(quad.b, n, used)


def make_budget_schedule(base: int) -> Callable[[int], int]:
    """base * (n + 1).bit_length() probes at precision index n."""

    def schedule(n: int) -> int:
        return base * (n + 1).bit_length()

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


class _SystemOperator(NameOperator):
    """Wrap apply(system, -, output_index, steps) as a name operator.

    It keeps no state: each run is one fresh `apply` on a name that reads
    the fragment, with `steps` as its budget.  A read past the fragment's
    end is an OracleMiss and a timeout is OutOfBudget.  The probe sequence
    is deterministic, and each index it reads depends only on the points
    read before it, so a Value persists under more budget and under any
    fragment extension.
    """

    def __init__(self, system: ApproxSystem):
        self._system = system

    def run(self, fragment: Tuple[Point, ...], output_index: int, steps: int):
        def read(i: int) -> Point:
            if i < len(fragment):
                return fragment[i]
            raise _FragmentMiss(i)

        name = OrdinaryName(read, self._system.dim_in)
        try:
            return Value(apply(self._system, name, output_index, steps).value)
        except _FragmentMiss as miss:
            return OracleMiss(miss.index)
        except SearchTimeout:
            return OutOfBudget()


def operator_from_system(system: ApproxSystem) -> NameOperator:
    return _SystemOperator(system)


# --- systems from operators -----------------------------------------------------

@lru_cache(maxsize=4096)
def _offset(c: int, dim: int) -> Tuple[Tuple[int, ...], int]:
    """(u, q) of candidate c in dimension dim: decodes (nums, d) from c and
    sets q = d + 1 and u_i = nums_i mod (2q-1) - (q-1), so |u_i| < q.  It is
    the same at every point and slot, and decoding is most of a candidate's
    cost, so it is cached."""
    *nums, d = decode_tuple(c, dim + 1)
    q = d + 1
    return tuple(num % (2 * q - 1) - (q - 1) for num in nums), q


class _OperatorSystem(ApproxSystem):
    """Approximation facts certified by running a name operator.

    (a, m, b, n) is accepted when some fragment g of length l+1 with
    2l+1 <= m and dist(g(k), a) < 1/(2k+2) for all k makes
    T.run(g, 2n+1, s) = Value(v) with |v - b| < 1/(2n+2).  Such a fragment
    is a name prefix of *every* point within 1/(m+1) of a (the two strict
    halves add to 1/(k+1)), so when T is the evaluator of a sound system the
    accepted quadruple is itself sound: |v - f(point)| < 1/(2n+2) and the
    triangle inequality lands b within 1/(n+1).

    The witness runs T on the constant fragment (a, ..., a), one such
    fragment that needs no candidate.  membership first tries that same run
    (_attempts), so a witness the evaluator confirms costs one operator run.
    """

    def __init__(self, operator: NameOperator, dim: int):
        super().__init__()
        self._T = operator
        self.dim_in = positive_dim(dim)
        self.name = "operator-system"

    def _candidate(self, a: Point, k: int, c: int) -> Point:
        """Candidate c for slot k: a + u/w for (u, q) = _offset(c, dim) and
        w = q(2k+2), a point strictly inside the 1/(2k+2) ball at a.
        Candidate 0 is a itself, and every rational point of the open ball is
        some candidate, each at O(1) cost.
        """
        us, q = _offset(c, self.dim_in)
        w = q * (2 * k + 2)
        # x + u/w for x = p/e is (p w + u e)/(e w)
        return tuple(Fraction(x.numerator * w + u * x.denominator, x.denominator * w)
                     for x, u in zip(a, us))

    def _ramp(self, a: Point, m: int) -> Tuple[Point, ...]:
        """The default fragment: a itself at each slot k with 2k+1 <= m."""
        return (a,) * ((m + 1) // 2)

    def witness(self, a: Point, m: int, n: int) -> Optional[Rat]:
        """T's value on the default ramp, run with m steps."""
        self._check_dim(a)
        res = self._T.run(self._ramp(a, m), 2 * n + 1, m)
        return res.v if isinstance(res, Value) else None

    def _attempts(self, a: Point, m: int, budget: int) -> Iterator[Tuple[Point, ...]]:
        """The fragments membership tries within `budget` attempts, in order.

        Attempt 0 is the default ramp: a Value on any prefix of it persists
        on all of it.  Attempt u >= 1 is the shifted fragment of slots 0..l
        with candidates decode_tuple(code, l + 1), for (l, code) =
        cantor_split(u - 1), skipped when 2l+1 > m.  Cantor diagonal
        t = l + code holds the attempts u = 1 + t(t+1)/2 + code for
        code = 0..t, with 2l+1 <= m from code = t - (m-1)//2 on, so the walk
        enters each diagonal there and a skipped attempt costs nothing.
        """
        if budget:
            yield self._ramp(a, m)
        # shifted fragments repeat few (slot, candidate) pairs: compute each once
        candidate = lru_cache(maxsize=None)(partial(self._candidate, a))
        t = 0
        while (first := 1 + t * (t + 1) // 2) < budget:
            for code in range(max(0, t - (m - 1) // 2), min(t + 1, budget - first)):
                l = t - code
                yield tuple(map(candidate, range(l + 1), decode_tuple(code, l + 1)))
            t += 1

    def membership(self, quad: Quadruple, budget: int) -> Membership:
        self._check_dim(quad.a)
        a, m, b, n = quad
        tol = Fraction(1, 2 * n + 2)
        for fragment in self._attempts(a, m, budget):
            res = self._T.run(fragment, 2 * n + 1, budget)
            if isinstance(res, Value) and abs(res.v - b) < tol:
                return Membership.YES
        return Membership.NOT_YET

    def enumerate(self, k: int) -> Optional[Quadruple]:
        quad_code, s = cantor_split(k)
        quad = decode_quadruple(quad_code, self.dim_in)
        return quad if self.membership(quad, s) is Membership.YES else None


def system_from_operator(operator: NameOperator, dim: int) -> ApproxSystem:
    return _OperatorSystem(operator, dim)
