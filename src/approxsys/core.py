"""Approximation systems: enumerable sets of certified approximation facts.

A system over Q^N x N x Q x N is a set S of quadruples (a, m, b, n) read as
"if the target point is within 1/(m+1) of a, then b is within 1/(n+1) of the
target value".  Two semantic conditions make S useful:

 1. soundness: every quadruple's promise is true of the function described;
 2. productivity: for every output precision n there is an input precision m
    such that every a near the point admits some b with (a, m, b, n) in S.

This module fixes the computational interface only: systems expose a total
`enumerate` (k-th candidate or None) and a budgeted semi-decision
`membership`.  Three hints follow one rule, None or a function: `decide`,
an exact membership test; `witness`, a b for (a, m, n) for the
evaluator's fast path; and `modulus`, the input index m at which that
witness certifies at a.  Decidable systems may also state a `screen` for
their prefix scan: two keys, one of the point and one of the tail
(m, b, n), that are equal whenever decide accepts, so the scan decides
only the codes whose keys match.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from enum import Enum
from functools import lru_cache, partial
from itertools import compress, islice
from operator import eq, itemgetter
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from .errors import at_least, positive_dim, same_dim
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


class Quadruple(NamedTuple):
    """An immutable record (a, m, b, n) that unpacks as one.

    A named tuple because it is cheap to build: every probe of the evaluator
    and every code an enumeration decodes builds one.
    """

    a: Point
    m: int
    b: Rat
    n: int

    def __repr__(self):
        coords = ", ".join(str(c) for c in self.a)
        return f"Quadruple(a=({coords}), m={self.m}, b={self.b}, n={self.n})"

    def to_json_dict(self) -> dict:
        """The JSON record of the CLI's enumerate output and the audits' witnesses."""
        return {"a": [str(c) for c in self.a], "m": self.m, "b": str(self.b), "n": self.n}


def encode_quadruple(q: Quadruple) -> int:
    """Code a quadruple as C(point, C(m, C(rat, n)))."""
    return cantor_join(
        encode_point(q.a),
        cantor_join(q.m, cantor_join(encode_rat(q.b), q.n)),
    )


def decode_quadruple(k: int, dim: int) -> Quadruple:
    i, rest = cantor_split(k)
    return Quadruple(decode_point(i, dim), *_decode_tail(rest))


@lru_cache(maxsize=1 << 12)
def _decode_tail(rest: int) -> Tuple[int, Rat, int]:
    """(m, b, n) from the tail C(m, C(j, n)) of a quadruple code.

    Memoised like decode_point, for decode_quadruple's random access
    (enumerate(k)): the tail code grows only like the square root of the
    quadruple code (about 460 distinct tails among the first 10^5 codes).
    Prefix scans instead decode each tail once per diagonal (_walk).
    """
    m, rest = cantor_split(rest)
    j, n = cantor_split(rest)
    return m, decode_rat(j), n


# scan_cap=None means "a horizon proportional to the request": generous for
# the built-in systems, finite for pathological ones.
_DEFAULT_CAP_PER_MEMBER = 500
_DEFAULT_CAP_FLOOR = 100_000


# witness(a, m, n): a candidate b; modulus(a, n): a system's input index for
# output index n at the point a (see ApproxSystem)
Witness = Callable[[Point, int, int], Optional[Rat]]
Modulus = Callable[[Optional[Point], int], Optional[int]]


class ApproxSystem:
    """Base interface; see module docstring for the semantics.

    Subclasses set `dim_in` and implement `enumerate`.  Each hint is None
    or a function, which a subclass that has one sets or defines.  `decide`
    stays None for systems that are only enumerable; when set, membership
    is exact and independent of budget.  witness(a, m, n) is a b likely to
    make (a, m, b, n) a member, or None; `apply` tries it first.
    modulus(a, n) is the least input index m at which `witness` certifies
    at the point a (None: no rule there), and modulus(None, n) the index
    to read first, before any point is known.  witness and modulus are
    never trusted: the evaluator certifies through membership whatever
    they name.
    """

    dim_in: int
    name: str = "system"
    decide: Optional[Callable[[Quadruple], bool]] = None
    witness: Optional[Witness] = None
    modulus: Optional[Modulus] = None

    def __init__(self):
        # members found so far, in code order, and their codes
        self._prefix: List[Quadruple] = []
        self._codes = array("q")
        self._scanned = 0
        self._prefix_lock = threading.Lock()

    def _check_dim(self, a: Point):
        if len(a) != self.dim_in:
            same_dim("point", len(a), f"system {self.name}", self.dim_in)

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
        self._check_dim(quad.a)
        if self.decide is not None:
            return Membership.YES if self.decide(quad) else Membership.NOT_YET
        for k in range(budget + 1):
            if self.enumerate(k) == quad:
                return Membership.YES
        return Membership.NOT_YET

    def _walk(self, start: int, stop: int) -> Iterator[Tuple[int, Quadruple]]:
        """(code, member) for the members among codes start..stop-1, in code order.

        The scan of members_prefix.  Every walk calls its predicate (here
        enumerate, decide in DecidableSystem) in code order, never past the
        member the caller stops at, and at most once per code: here once
        per code, in DecidableSystem once per code its screen lets through.
        """
        codes = range(start, stop)
        return filter(itemgetter(1), zip(codes, map(self.enumerate, codes)))

    def members_prefix(self, count: int, scan_cap: Optional[int] = None) -> List[Quadruple]:
        """First `count` members in enumeration order.

        Scans codes below scan_cap, stopping at the count-th member, and
        returns what was found (possibly fewer than requested, e.g. for
        sparse or empty systems).  The scan prefix is cached on the instance
        and later requests resume where it stopped; members cached from
        beyond scan_cap are left out, so the result does not depend on
        earlier requests.  DomainError on a negative count or scan_cap.

        The loop below runs once per member found; the walk (_walk) does
        the per-code work.  The scan position moves past each member as it
        is listed, so when the predicate raises, the next request resumes
        one past the last member listed and decides again the codes up to
        the one that raised.
        """
        at_least(0, count=count, scan_cap=scan_cap)
        if scan_cap is None:
            scan_cap = _DEFAULT_CAP_PER_MEMBER * count + _DEFAULT_CAP_FLOOR
        with self._prefix_lock:
            codes, prefix = self._codes, self._prefix
            if len(prefix) < count and self._scanned < scan_cap:
                for code, q in islice(self._walk(self._scanned, scan_cap), count - len(prefix)):
                    codes.append(code)
                    prefix.append(q)
                    self._scanned = code + 1
                if len(prefix) < count:
                    self._scanned = scan_cap
            end = bisect_left(codes, scan_cap, 0, min(count, len(codes)))
            return prefix[:end]


class DecidableSystem(ApproxSystem):
    """System given by a total membership predicate.

    enumerate(k) decodes k to a quadruple and keeps it iff decide accepts;
    dovetailing over all of N therefore lists exactly the members.  decide,
    witness and membership raise DimensionError on a point of another
    dimension; the prefix scan, which decodes only points of dimension
    dim_in, calls the bare predicate instead (see _walk).  witness is the
    method below when one is given and None otherwise; modulus, a hint for
    the evaluator's read index (see ApproxSystem), is stored as given.

    screen, when given, is a pair (point_key, tail_key) with the contract
    that decide(q) implies point_key(q.a) == tail_key(q.m, q.b, q.n).  The
    prefix scan computes each key once per point or tail decoded, and
    builds a quadruple and calls decide only where the two are equal, so
    keys should be cheap to compare in C (ints, tuples of ints, None).  It
    changes no member, no code order and neither enumerate nor membership,
    which still call decide alone.
    """

    def __init__(
        self,
        decide: Callable[[Quadruple], bool],
        dim: int,
        *,
        witness: Optional[Witness] = None,
        name: str = "system",
        modulus: Optional[Modulus] = None,
        screen: Optional[Tuple[Callable[[Point], object],
                               Callable[[int, Rat, int], object]]] = None,
    ):
        super().__init__()
        self.dim_in = positive_dim(dim)
        self.name = name
        self.modulus = modulus
        self.screen = screen

        def checked(q: Quadruple) -> bool:
            if len(q.a) != dim:
                self._check_dim(q.a)
            return decide(q)

        self.decide = self._checked = checked
        self._bare = decide
        self._witness = witness
        if witness is None:
            self.witness = None

    def enumerate(self, k: int) -> Optional[Quadruple]:
        q = decode_quadruple(k, self.dim_in)
        return q if self.decide(q) else None

    def membership(self, quad: Quadruple, budget: int) -> Membership:
        """decide's verdict, YES or NOT_YET, whatever the budget."""
        return Membership.YES if self.decide(quad) else Membership.NOT_YET

    def _walk(self, start: int, stop: int) -> Iterator[Tuple[int, Quadruple]]:
        """ApproxSystem._walk's pairs, one Cantor diagonal at a time.

        Code k = C(i, r) lies on diagonal t = i + r at position r, and the
        diagonal pairs point codes t..0 with tails 0..t.  So each diagonal
        decodes one new point and one new tail into growing lists, and
        builds the quadruples of its codes below stop from their entries as
        one list `quads`.  compress keeps the members by map(decide, quads):
        decide is looked up once, here, as the bare predicate (every point
        decoded has dimension dim_in) unless the instance's `decide` was
        replaced (a tracer, say), and called once per quadruple built, in
        code order, and never past the member the caller stops at.

        Without a screen, a diagonal's quadruples are built in one C-level
        pass, one per code.  With a screen, each point's and each tail's key
        is computed when it is decoded; a diagonal first compares its keys
        in C to find the positions where they are equal, and builds
        quadruples only there, one Python step per match; decide never
        accepts the other codes, which cost no Python work.
        """
        decide = self._bare if self.decide is self._checked else self.decide
        dim, screen = self.dim_in, self.screen
        make = partial(tuple.__new__, Quadruple)
        i, r = cantor_split(start)
        t = i + r
        points = [decode_point(j, dim) for j in range(t + 1)]
        ms, bs, ns = map(list, zip(*map(_decode_tail, range(t + 1))))
        if screen is not None:
            point_key, tail_key = screen
            pkeys = list(map(point_key, points))
            tkeys = list(map(tail_key, ms, bs, ns))
        k = start
        while k < stop:
            # codes k..end-1 sit at positions r..last-1 of diagonal t
            end = min(stop, k + t + 1 - r)
            last = r + end - k
            if screen is None:
                codes = range(k, end)
                quads = list(map(make, zip(points[i::-1], ms[r:last], bs[r:last], ns[r:last])))
            else:
                # positions h of diagonal t whose keys match: point t - h, tail h
                hits = list(compress(range(r, last), map(eq, pkeys[i::-1], tkeys[r:last])))
                codes = [k - r + h for h in hits]
                quads = [make((points[t - h], ms[h], bs[h], ns[h])) for h in hits]
            yield from compress(zip(codes, quads), map(decide, quads))
            k = end
            t += 1
            i, r = t, 0
            points.append(decode_point(t, dim))
            m, b, n = _decode_tail(t)
            ms.append(m)
            bs.append(b)
            ns.append(n)
            if screen is not None:
                pkeys.append(point_key(points[t]))
                tkeys.append(tail_key(m, b, n))

    def witness(self, a: Point, m: int, n: int) -> Optional[Rat]:
        self._check_dim(a)
        return self._witness(a, m, n)
