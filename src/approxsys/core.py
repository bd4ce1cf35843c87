"""Approximation systems: enumerable sets of certified approximation facts.

A system over Q^N x N x Q x N is a set S of quadruples (a, m, b, n) read as
"if the target point is within 1/(m+1) of a, then b is within 1/(n+1) of the
target value".  Two semantic conditions make S useful:

 1. soundness: every quadruple's promise is true of the function described;
 2. productivity: for every output precision n there is an input precision m
    such that every a near the point admits some b with (a, m, b, n) in S.

This module fixes the computational interface only: systems expose a total
`enumerate` (k-th candidate or None) and a budgeted semi-decision
`membership`.  Decidable systems also expose `decide` and optionally a
`witness` hint used by the evaluator's fast path.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple

from .errors import DimensionError
from .numerics import (
    Point,
    Rat,
    cantor_join,
    cantor_split,
    decode_point,
    decode_rat,
    encode_point,
    encode_rat,
)


class Membership(Enum):
    """Budgeted membership verdicts; NOT_YET never asserts non-membership."""

    YES = "yes"
    NOT_YET = "not_yet"


@dataclass(frozen=True)
class Quadruple:
    a: Point
    m: int
    b: Rat
    n: int

    def __repr__(self):
        coords = ", ".join(str(c) for c in self.a)
        return f"Quadruple(a=({coords}), m={self.m}, b={self.b}, n={self.n})"


def encode_quadruple(q: Quadruple) -> int:
    """Code a quadruple as C(point, C(m, C(rat, n)))."""
    return cantor_join(
        encode_point(q.a),
        cantor_join(q.m, cantor_join(encode_rat(q.b), q.n)),
    )


def decode_quadruple(k: int, dim: int) -> Quadruple:
    i, rest = cantor_split(k)
    m, rest = cantor_split(rest)
    j, n = cantor_split(rest)
    return Quadruple(decode_point(i, dim), m, decode_rat(j), n)


# Internal granularity of the enumeration-prefix cache.
_SCAN_CHUNK = 1 << 16

# scan_cap=None means "a horizon proportional to the request": generous for
# the built-in systems, finite for pathological ones.
_DEFAULT_CAP_PER_MEMBER = 500
_DEFAULT_CAP_FLOOR = 100_000


class ApproxSystem:
    """Base interface; see module docstring for the semantics.

    Subclasses set `dim_in` and implement `enumerate`.  `decide` stays None
    for systems that are only enumerable; when set, membership is exact and
    independent of budget.
    """

    dim_in: int
    name: str = "system"
    decide: Optional[Callable[[Quadruple], bool]] = None
    provides_witness: bool = False
    # optional bulk scanner (lo, hi) -> [(k, member)], must agree with enumerate
    _fast_scan = None

    def __init__(self):
        # members found so far, in code order, and their codes
        self._prefix: List[Quadruple] = []
        self._codes = array("q")
        self._scanned = 0
        self._prefix_lock = threading.Lock()

    def _check_dim(self, quad: Quadruple):
        if len(quad.a) != self.dim_in:
            raise DimensionError(
                f"{self.name}: quadruple over dimension {len(quad.a)}, "
                f"system expects {self.dim_in}"
            )

    def enumerate(self, k: int) -> Optional[Quadruple]:
        """The k-th member candidate, or None when slot k is empty.

        Total: every member appears at some k, and everything returned is a
        member.
        """
        raise NotImplementedError

    def membership(self, quad: Quadruple, budget: int) -> Membership:
        """Semi-decide membership within `budget` units of work.

        YES is final.  NOT_YET only means the budget was too small; rerunning
        with a larger budget may upgrade it.
        """
        self._check_dim(quad)
        if self.decide is not None:
            return Membership.YES if self.decide(quad) else Membership.NOT_YET
        for k in range(budget + 1):
            if self.enumerate(k) == quad:
                return Membership.YES
        return Membership.NOT_YET

    def witness(self, a: Point, m: int, n: int) -> Optional[Rat]:
        """Optional hint: a b likely to make (a, m, b, n) a member.

        Never trusted: callers must confirm through membership.  Systems that
        can produce hints set provides_witness.
        """
        return None

    def members_prefix(self, count: int, scan_cap: Optional[int] = None) -> List[Quadruple]:
        """First `count` members in enumeration order.

        Scans codes below scan_cap and returns what was found (possibly fewer
        than requested, e.g. for sparse or empty systems).  The scan prefix is
        cached on the instance, so overlapping requests share work; members
        cached from beyond scan_cap are left out, so the result does not
        depend on earlier requests.
        """
        if scan_cap is None:
            scan_cap = _DEFAULT_CAP_PER_MEMBER * count + _DEFAULT_CAP_FLOOR
        with self._prefix_lock:
            while len(self._prefix) < count and self._scanned < scan_cap:
                hi = min(self._scanned + _SCAN_CHUNK, scan_cap)
                if self._fast_scan is not None:
                    found = self._fast_scan(self._scanned, hi)
                else:
                    found = [(k, q) for k in range(self._scanned, hi)
                             if (q := self.enumerate(k)) is not None]
                self._codes.extend(k for k, _ in found)
                self._prefix.extend(q for _, q in found)
                self._scanned = hi
            end = bisect_left(self._codes, scan_cap, 0, min(count, len(self._codes)))
            return self._prefix[:end]


class DecidableSystem(ApproxSystem):
    """System given by a total membership predicate.

    enumerate(k) decodes k to a quadruple and keeps it iff decide accepts;
    dovetailing over all of N therefore lists exactly the members.
    """

    def __init__(
        self,
        decide: Callable[[Quadruple], bool],
        dim: int,
        *,
        witness: Optional[Callable[[Point, int, int], Optional[Rat]]] = None,
        name: str = "system",
        fast_scan=None,
    ):
        super().__init__()
        if dim <= 0:
            raise DimensionError("system dimension must be positive")
        self.dim_in = dim
        self.name = name
        self.decide = decide
        self._witness = witness
        self.provides_witness = witness is not None
        self._fast_scan = fast_scan

    def enumerate(self, k: int) -> Optional[Quadruple]:
        q = decode_quadruple(k, self.dim_in)
        return q if self.decide(q) else None

    def witness(self, a: Point, m: int, n: int) -> Optional[Rat]:
        if self._witness is None:
            return None
        return self._witness(a, m, n)


def dovetail_enumerator(
    decide: Callable[[Quadruple], bool],
    dim: int,
    *,
    witness: Optional[Callable[[Point, int, int], Optional[Rat]]] = None,
    name: str = "system",
) -> DecidableSystem:
    """Package a decidable quadruple predicate as a full system."""
    return DecidableSystem(decide, dim, witness=witness, name=name)
