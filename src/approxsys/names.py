"""Names: rational sequences converging to a point at a stated rate.

An *ordinary* name f of xi satisfies dist(f(i), xi) < 1/(i+1) for every i.
A *Cauchy* name h satisfies dist(h(i), h(k)) <= 2^-i for all i < k (so its
limit is within 2^-i of h(i)).  A name computed from a function memoizes:
each index is computed at most once, and concurrent readers observe one
consistent value per index.  A constant name (`name_of_point`) holds its
one point and has nothing to compute or memoize.

Nothing here can check that a name is genuine; consumers stay correct on
valid names and merely budget-bounded on invalid ones.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable

from .errors import at_least, positive_dim, same_dim
from .numerics import Point, as_point, dist


class _MemoSeq:
    """Memoized total function N -> Point with per-name locking."""

    def __init__(self, fun: Callable[[int], Point], dim: int):
        self._fun = fun
        self.dim = positive_dim(dim)
        self._cache: dict[int, Point] = {}
        self._lock = threading.RLock()

    def approx(self, i: int) -> Point:
        if i < 0:
            raise IndexError("name indices are natural numbers")
        with self._lock:
            value = self._cache.get(i)
            if value is None:
                value = as_point(self._fun(i))
                same_dim(f"point at index {i}", len(value), "name", self.dim)
                self._cache[i] = value
        return value


class OrdinaryName(_MemoSeq):
    """Name with the 1/(i+1) rate contract."""


class CauchyName(_MemoSeq):
    """Name with the 2^-i modulus contract."""


class _ConstantName(OrdinaryName):
    """Ordinary name whose every index carries the same exact point."""

    def __init__(self, point: Point):
        self.dim = positive_dim(len(point))
        self._point = point

    def approx(self, i: int) -> Point:
        if i < 0:
            raise IndexError("name indices are natural numbers")
        return self._point


def name_of_point(p) -> OrdinaryName:
    """The constant name of an exactly known rational point."""
    return _ConstantName(as_point(p))


def dyadic_name(p) -> OrdinaryName:
    """Truncation name: coordinates cut to the grid 2^-(i+2).

    floor(x * 2^(i+2)) / 2^(i+2) is within 2^-(i+2) below x, so the point at
    index i is within 2^-(i+2) < 1/(i+1) of p in the max metric.
    """
    point = as_point(p)

    def fun(i: int) -> Point:
        scale = 1 << (i + 2)
        return tuple(Fraction(math.floor(c * scale), scale) for c in point)

    return OrdinaryName(fun, dim=len(point))


def ordinary_to_cauchy(f: OrdinaryName) -> CauchyName:
    """Reindex an ordinary name to the 2^-i modulus.

    Index i reads f at the least j with 1/(j+1) <= (2/3) 2^-i, which is
    j = ceil(3 * 2^(i-1)) - 1 = ((3 << i) - 1) // 2: 1, 2, 5, 11, 23, ...
    The points at i < k are then within (2/3)(2^-i + 2^-k) <= 2^-i of each
    other.  At j - 1 the bound 1/j exceeds (2/3) 2^-i, and a read there and
    one at i + 1 on the other side of the point can be more than 2^-i apart.
    """
    return CauchyName(lambda i: f.approx(((3 << i) - 1) // 2), dim=f.dim)


def cauchy_to_ordinary(h: CauchyName) -> OrdinaryName:
    """Reindex a Cauchy name back to the 1/(n+1) rate.

    Index n reads h at i = bit_length(n+1), the least i with 2^-i < 1/(n+1).
    The limit is within 2^-i of h(i), so within 1/(n+1) strictly.  At i - 1,
    2^-(i-1) >= 1/(n+1), and a name with h(k) exactly 2^-k from its limit
    breaks the strict bound.
    """
    return OrdinaryName(lambda n: h.approx((n + 1).bit_length()), dim=h.dim)


def check_name_consistency(f: OrdinaryName, upto: int):
    """Search indices i < k <= upto for a pair refuting the ordinary contract.

    Any genuine name satisfies dist(f(i), f(k)) < 1/(i+1) + 1/(k+1) for all
    pairs (both points lie in a shared ball).  Returns the first violating
    (i, k) in lexicographic order, or None.  A None result is consistency up
    to the horizon, not validity.  DomainError on a negative horizon.
    """
    at_least(0, upto=upto)
    points = [f.approx(i) for i in range(upto + 1)]
    for i in range(upto + 1):
        for k in range(i + 1, upto + 1):
            bound = Fraction(1, i + 1) + Fraction(1, k + 1)
            if dist(points[i], points[k]) >= bound:
                return (i, k)
    return None
