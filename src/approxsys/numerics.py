"""Exact rational arithmetic, the max metric, and pairing codes.

Everything downstream works over Q^N with `fractions.Fraction` as the scalar
type.  No float ever enters a computation that feeds a correctness claim;
floats are rejected at the parsing boundary.

The coding layer fixes one bijection N x N -> N (the classic diagonal
pairing) and builds every other code from it: triples, tuples, signed
rationals, and points.  The rational code is total but not injective, which
is deliberate: decoding never fails, so enumeration loops need no error
paths.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

from .errors import DomainError, FormatError, at_least, positive_dim, same_dim

Rat = Fraction
Point = Tuple[Fraction, ...]

RatLike = Union[Fraction, int, str]


# "-3", "p/q" and "0.25", each optionally signed; no exponents or underscores,
# so a short literal cannot ask Fraction for a huge power of ten.
_RAT_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def as_rat(value: RatLike) -> Rat:
    """Parse a rational exactly.

    Accepts Fraction, int, and strings in the forms "p/q", "-3", "0.25"
    (finite decimal expansions only), with surrounding whitespace.  Floats
    are refused: they carry binary rounding the caller never asked for.
    """
    if isinstance(value, bool):
        raise FormatError(f"not a rational literal: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RAT_LITERAL.fullmatch(text := value.strip()):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:  # 1/0, or too many digits
            raise FormatError(f"not a rational literal: {value!r}") from exc
    raise FormatError(f"not a rational literal: {value!r}")


def as_point(value: Union[Point, Sequence[RatLike], RatLike]) -> Point:
    """Coerce a scalar or a sequence of rational literals to a point.

    A tuple of Fractions already is a point and comes back as it is.  Any
    other value that is not iterable is taken as a scalar, so one that is
    not a rational literal (a float, None) raises FormatError.
    """
    if type(value) is tuple and all(isinstance(c, Fraction) for c in value):
        return value
    if isinstance(value, (Fraction, int, str)) or not isinstance(value, Iterable):
        return (as_rat(value),)
    return tuple(as_rat(c) for c in value)


def rat_div(x: Rat, y: Rat) -> Rat:
    (px, qx), (py, qy) = x.as_integer_ratio(), y.as_integer_ratio()
    if py == 0:
        raise DomainError("division by zero")
    return Fraction(px * qy, qx * py)


def decimal_str(x: Rat, digits: int) -> str:
    """Decimal rendering of x, rounded to `digits` places (ties to even)."""
    at_least(0, digits=digits)
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def dist(p: Point, q: Point) -> Rat:
    """Max metric on Q^N."""
    same_dim("point p", len(p), "point q", len(q))
    positive_dim(len(p))
    return max(abs(a - b) for a, b in zip(p, q))


# --- pairing -----------------------------------------------------------------

def cantor_join(x: int, y: int) -> int:
    """Diagonal pairing N x N -> N: (x, y) |-> (x+y)(x+y+1)/2 + y."""
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_split(k: int) -> Tuple[int, int]:
    """Inverse of cantor_join; DomainError on a negative k."""
    try:
        t = (math.isqrt(8 * k + 1) - 1) // 2
    except ValueError:  # isqrt of a negative number: k < 0
        at_least(0, code=k)
    y = k - t * (t + 1) // 2
    return t - y, y


def encode_tuple(xs: Sequence[int]) -> int:
    """Left-nested join of a nonempty tuple: (x0, x1, x2) -> C(C(x0,x1),x2)."""
    it = iter(xs)
    try:
        acc = next(it)
    except StopIteration:
        raise DomainError("cannot encode the empty tuple") from None
    for x in it:
        acc = cantor_join(acc, x)
    return acc


def decode_tuple(code: int, length: int) -> Tuple[int, ...]:
    """Inverse of encode_tuple for a known tuple length."""
    if length < 1 or code < 0:
        at_least(1, length=length)
        at_least(0, code=code)
    rev = []
    for _ in range(length - 1):
        code, last = cantor_split(code)
        rev.append(last)
    rev.append(code)
    return tuple(reversed(rev))


# --- rational and point codes ------------------------------------------------

def encode_rat(x: Rat) -> int:
    """Code of a rational via the sign-split triple (r, s, t).

    A fraction p/q in lowest terms (q > 0) maps to r = max(p, 0),
    s = max(-p, 0), t = q - 1.  Decoding is total, so most naturals decode
    to *some* rational and many codes share a value.
    """
    p, q = x.numerator, x.denominator
    return encode_tuple((max(p, 0), max(-p, 0), q - 1))


# Decoded values are immutable, and decode_quadruple's random access decodes
# the same few point codes over and over, as the evaluator's phase B does
# rational codes, so both decoders are memoised, boundedly.  A prefix scan
# decodes each point code once per Cantor diagonal (DecidableSystem._walk),
# about 460 of them for the first 10^4 division members.
_DECODE_CACHE = 1 << 12


@lru_cache(maxsize=_DECODE_CACHE)
def decode_rat(j: int) -> Rat:
    r, s, t = decode_tuple(j, 3)
    return Fraction(r - s, t + 1)


def encode_point(p: Point) -> int:
    """Right-nested code of a point: (x, y, z) -> C(j(x), C(j(y), j(z)))."""
    positive_dim(len(p))
    codes = [encode_rat(c) for c in p]
    acc = codes[-1]
    for c in reversed(codes[:-1]):
        acc = cantor_join(c, acc)
    return acc


@lru_cache(maxsize=_DECODE_CACHE)
def decode_point(code: int, dim: int) -> Point:
    positive_dim(dim)
    coords = []
    for _ in range(dim - 1):
        first, code = cantor_split(code)
        coords.append(decode_rat(first))
    coords.append(decode_rat(code))
    return tuple(coords)
