"""Randomized audits of approximation systems against reference oracles.

The harness can refute but never fully confirm: Pass means "no violation
found at these sample sizes and seed".  CounterExample verdicts carry the
offending quadruple and point and are always genuine relative to the oracle's
accuracy contract.  When an inexact oracle cannot separate a distance from
the bound, the sample is queried again with a thousandth of the error, up to
three times; only if that still cannot separate them does the verdict degrade
to Inconclusive rather than guessing.

The soundness audit first asks the oracle to enclose its values on a ball
(`RefOracle.enclose`).  A ball whose enclosure lies inside the promise with
room eps to spare is proved: every sample of it would pass, so it is counted
with its samples and none is built or evaluated.  An inexact oracle is asked
at eps/1000, the accuracy of a sample's first margin re-query, and the room
is eps/1000 too: every sample of a ball proved so would pass, at the latest
after that one re-query, which is what sampling and refinement decide.  The
other balls are sampled.  Sample j of a ball comes from one blake2b digest
of the seed, the member's text (or condition 2's point and m) and j, so a
ball's points do not depend on the balls audited before it, and a proved
ball draws nothing.

Every audit raises DimensionError before any work on mismatched dimensions,
and DomainError on a negative index, budget or scan cap, or on a sample count
below 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from hashlib import blake2b
from itertools import chain, islice, product
from typing import Callable, List, NamedTuple, Optional, Tuple

from .core import ApproxSystem, Membership, Quadruple
from .errors import DomainError, at_least, same_dim
from .numerics import Point, Rat, as_point, rat_div
from .systems import _quotient_range


class Enclosure(NamedTuple):
    """Integer ends lo = lo[0]/lo[1] <= hi = hi[0]/hi[1], denominators > 0,
    of every value an eps-accurate oracle can give on an open ball.  An end
    flagged open is reached only on the ball's boundary."""

    lo: Tuple[int, int]
    hi: Tuple[int, int]
    lo_open: bool = False
    hi_open: bool = False


@dataclass(frozen=True)
class RefOracle:
    """Reference implementation: eval(xi, eps) is within eps of the truth.

    `exact` declares eps = 0 queries legal (the answer is the truth itself);
    inexact oracles must be called with eps > 0.  `enclose(a, m, eps)`
    bounds the oracle's values on the open ball of radius 1/(m+1) around a,
    or returns None; this class knows no bound, so the soundness audit
    samples every ball.  The built-in oracles enclose their functions.  The
    audit asks an inexact oracle at eps/1000, the accuracy of the first
    margin re-query, and an exact one at eps = 0.
    """

    eval: Callable[[Point, Rat], Rat]
    domain_test: Callable[[Point], bool]
    exact: bool
    name: str
    dim: int

    def enclose(self, a: Point, m: int, eps: Rat) -> Optional[Enclosure]:
        return None


class Outcome(Enum):
    PASS = "pass"
    COUNTER_EXAMPLE = "counter_example"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """`proved` counts the soundness audit's balls proved by enclosure (their
    samples are in `samples`); the JSON record leaves it out."""

    outcome: Outcome
    samples: int
    seed: Optional[int] = None
    witness: Optional[dict] = None
    diagnostics: str = ""
    proved: int = 0

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "samples": self.samples,
            "seed": self.seed,
            "witness": self.witness,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# --- reference oracles ----------------------------------------------------------

@lru_cache(maxsize=4096)
def _cos_sum(xn: int, xd: int, en: int, ed: int) -> Tuple[int, int]:
    """cos_taylor's sum at x = xn/xd, xd > 0, within err = en/ed, as
    integers total/scale, scale > 0.  Keyed by integers: hashing a
    `Fraction` costs more than a repeated sum saves."""
    if en <= 0:
        raise DomainError("cos_taylor needs a positive error bound")
    s, t = xn * xn, xd * xd
    total = scale = power = 1
    i = 0
    while True:
        c = t * (2 * i + 1) * (2 * i + 2)
        power *= s
        if s <= c and power * ed <= scale * c * en:
            return total, scale
        scale *= c
        total = total * c + (power if i % 2 else -power)
        i += 1


def cos_taylor(x: Rat, err: Rat) -> Rat:
    """Partial Taylor sum within err of cos x, exact rational arithmetic.

    Sums (-1)^i x^(2i)/(2i)! until the next term is at most err *and* the
    tail alternates with decreasing terms (x^2 <= (2i+1)(2i+2)), at which
    point the alternating series bound caps the remainder by that next term.
    Runs on integers: with x^2 = s/t and D = t^i (2i)!, the sum of the terms
    up to i is total/D and the next term is s^(i+1)/(D c) for
    c = t (2i+1)(2i+2).
    """
    return Fraction(*_cos_sum(*x.as_integer_ratio(), *err.as_integer_ratio()))


def _pi_bounds(bits: int) -> Tuple[int, int]:
    """Integers lo < pi 2^bits < hi, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).  Each arctangent's alternating
    series is summed until its next term is below 2^-bits; the truth lies
    strictly between that partial sum and the next one."""
    lo = hi = Fraction(0)
    for weight, x in ((16, 5), (-4, 239)):
        total, i = Fraction(0), 0
        while True:
            den = (2 * i + 1) * x ** (2 * i + 1)
            term = Fraction(1 if i % 2 == 0 else -1, den)
            if den >> bits:
                break
            total += term
            i += 1
        ends = sorted((weight * total, weight * (total + term)))
        lo, hi = lo + ends[0], hi + ends[1]
    return math.floor(lo * (1 << bits)), math.ceil(hi * (1 << bits))


_PI_BITS = 128
_PI_LO, _PI_HI = _pi_bounds(_PI_BITS)


class _DivisionOracle(RefOracle):
    def enclose(self, a: Point, m: int, eps: Rat) -> Optional[Enclosure]:
        """Interval division of the closed box's sides (Moore 1966), when
        the x2-side excludes 0: maximal division's corner range,
        `_quotient_range`, whose least and greatest corner quotients are the
        ends.  x1/x2 is strictly monotone in x1 there, so neither end is
        reached inside the open box."""
        if (ends := _quotient_range(a, m)) is None:
            return None
        x_lo, y_lo, x_hi, y_hi = ends
        return tuple.__new__(Enclosure, ((x_lo, y_lo), (x_hi, y_hi), True, True))


class _SquareOracle(RefOracle):
    def enclose(self, a: Point, m: int, eps: Rat) -> Optional[Enclosure]:
        """The squares of the closed interval's ends, both reached only on
        the boundary; when the interval holds 0 strictly, the least value is
        0, reached inside."""
        p, q = a[0].as_integer_ratio()
        M = m + 1
        low, high = sorted(((M * p - q) ** 2, (M * p + q) ** 2))
        D = M * M * q * q
        if M * abs(p) < q:
            return Enclosure((0, 1), (high, D), False, True)
        return Enclosure((low, D), (high, D), True, True)


class _CosineOracle(RefOracle):
    def enclose(self, a: Point, m: int, eps: Rat) -> Optional[Enclosure]:
        """The range of cos on the closed interval [|a| - r, |a| + r],
        r = 1/(m+1), which has cos's range on the ball since cos is even,
        widened by 2 eps: one eps for the end values' own error, one for
        the oracle's.  cos is monotone between multiples of pi, so the range
        is spanned by the two end values, and by 1 (or -1) where an even
        (odd) multiple k pi may lie inside; k >= 0, as the interval starts
        at -1 or above.  k pi lies in (k _PI_LO, k _PI_HI)/2^_PI_BITS, so
        each k from the least with k _PI_HI >= (|a| - r) 2^_PI_BITS to the
        greatest with k _PI_LO <= (|a| + r) 2^_PI_BITS may; two consecutive
        ones cover both parities.  Those k are decided first, and only the
        end values the range needs are summed: none when both parities may
        lie inside, and only cos(|a| + r), the least value, when the ball
        holds 0 (k = 0, that is (m+1)|a| <= 1) and no other multiple may."""
        p, q = a[0].as_integer_ratio()
        en, ed = eps.as_integer_ratio()
        M = m + 1
        p, d = M * abs(p), M * q  # the ends (p -+ q)/d
        k_lo = max(0, -((q - p << _PI_BITS) // (d * _PI_HI)))
        k_hi = (p + q << _PI_BITS) // (d * _PI_LO)
        top, bottom = (ed + 2 * en, ed), (-ed - 2 * en, ed)
        if k_lo < k_hi:
            return Enclosure(bottom, top)
        t2, s2 = _cos_sum(p + q, d, en, ed)
        if k_lo == k_hi == 0:
            return Enclosure((t2 * ed - 2 * en * s2, s2 * ed), top)
        t1, s1 = _cos_sum(p - q, d, en, ed)  # p > q, as k_lo > 0
        if t1 * s2 > t2 * s1:
            (t1, s1), (t2, s2) = (t2, s2), (t1, s1)
        lo, hi = (t1 * ed - 2 * en * s1, s1 * ed), (t2 * ed + 2 * en * s2, s2 * ed)
        if k_lo == k_hi:
            lo, hi = (bottom, hi) if k_lo % 2 else (lo, top)
        return Enclosure(lo, hi)


def division_oracle() -> RefOracle:
    return _DivisionOracle(eval=lambda xi, eps: rat_div(xi[0], xi[1]),
                           domain_test=lambda xi: xi[1] != 0, exact=True, name="division", dim=2)


def cosine_oracle() -> RefOracle:
    return _CosineOracle(eval=lambda xi, eps: cos_taylor(xi[0], eps),
                         domain_test=lambda xi: True, exact=False, name="cosine", dim=1)


def squaring_oracle() -> RefOracle:
    return _SquareOracle(eval=lambda xi, eps: xi[0] * xi[0],
                         domain_test=lambda xi: True, exact=True, name="square", dim=1)


# --- sampling -------------------------------------------------------------------

_RAND_DENOM = 1 << 24
_HUG = (1 << 12) - 1  # boundary-hugging magnitudes lie in [2^24 - _HUG, 2^24)


def _sample_ball(center: Point, m: int, count: int, key: str,
                 domain_test: Optional[Callable[[Point], bool]]) -> List[Point]:
    """Up to `count` rational points strictly inside the 1/(m+1) ball.

    Starts with the center itself and near-boundary corners at per-axis
    distance 1/(m+1) - 1/(m+1)^2 (none at m = 0, where every corner is the
    center), built lazily up to the count-th one kept.  Then random point j
    (from 1) is c + s t/(2^24 (m+1)) on each axis, from 32 bits of the
    blake2b digest of f"{key};{j};{block}", 16 axes per block: bit 0 gives
    the sign s, the rest the magnitude t, uniform below 2^24 for odd j and
    boundary-hugging, in [2^24 - _HUG, 2^24), for even j, since soundness
    violations concentrate near the boundary.
    """
    M = m + 1
    dim = len(center)
    ratios = [c.as_integer_ratio() for c in center]

    # A corner coordinate c +- (M - 1)/M^2 and a random one c +- (t/2^24)/M,
    # for c = cn/cd, are each built as one Fraction over cd M^2 or cd 2^24 M.
    corners = (tuple(Fraction(cn * M * M + s * (M - 1) * cd, cd * M * M)
                     for (cn, cd), s in zip(ratios, signs))
               for signs in product((1, -1), repeat=dim))
    specials = islice(chain((center,), corners), 1 + (min(1 << dim, 8) if m else 0))
    out = list(islice(specials if domain_test is None else filter(domain_test, specials), count))
    if len(out) == count:
        return out

    scale = _RAND_DENOM * M
    keyed = blake2b(key.encode(), digest_size=4 * min(16, dim))
    j = 0
    while len(out) < count and j < 64 * count + 64:
        j += 1
        bits = 0
        for block in range(0, dim, 16):
            digest = keyed.copy()
            digest.update(b";%d;%d" % (j, block))
            bits |= int.from_bytes(digest.digest(), "little") << (32 * block)
        coords = []
        for cn, cd in ratios:
            word, bits = bits & 0xFFFFFFFF, bits >> 32
            t = (word >> 1) % _RAND_DENOM if j % 2 else _RAND_DENOM - 1 - (word >> 1) % _HUG
            coords.append(Fraction(cn * scale + (-t if word & 1 else t) * cd, cd * scale))
        p = tuple(coords)
        if domain_test is None or domain_test(p):
            out.append(p)
    return out


# --- condition (1): soundness ----------------------------------------------------

_REFINE_ROUNDS = 3  # margin-band re-queries of one sample
_REFINE = 1000  # each re-query's eps is the last one's over _REFINE


def _side(pb: int, qb: int, approx: Rat, N: int, en: int, ed: int) -> int:
    """Where |b - approx| lies against 1/N with margin eps: 1 at or beyond
    1/N + eps, -1 below 1/N - eps, 0 in the margin band between.

    For b = pb/qb, approx = pa/qa and eps = en/ed, each test is multiplied
    through by N ed qb qa > 0.
    """
    pa, qa = approx.as_integer_ratio()
    gap = abs(pb * qa - pa * qb) * N * ed
    if gap < qb * qa * (ed - N * en):
        return -1
    return 1 if gap >= qb * qa * (ed + N * en) else 0


def _proves(box: Enclosure, pb: int, qb: int, N: int, en: int, ed: int) -> bool:
    """Whether [lo, hi] lies inside (b - 1/N + eps, b + 1/N - eps), where
    every sample passes, or, with eps = 0, touches it only at open ends.
    Each end p/q is tested multiplied through by N ed qb q > 0."""
    room = ed - N * en
    for (p, q), is_open, toward in ((box.lo, box.lo_open, -1), (box.hi, box.hi_open, 1)):
        gap, bound = toward * (p * qb - pb * q) * N * ed, qb * q * room
        if gap > bound or (gap == bound and (en or not is_open)):
            return False
    return True


def _text(point: Point) -> str:
    return ",".join(map(str, point))


def verify_condition1(system: ApproxSystem, oracle: RefOracle,
                      quad_samples: int = 1000, xi_samples: int = 10,
                      seed: int = 0, scan_cap: Optional[int] = None) -> Verdict:
    """Audit soundness on an enumeration prefix.

    For each drawn quadruple and each sampled point of its ball, compares
    |b - oracle(xi)| against 1/(n+1) with margin eps = 1/(10(n+1)^2) (zero
    for exact oracles): distance >= bound + eps refutes soundness.  A sample
    inside the margin band is queried again with eps/1000, up to
    `_REFINE_ROUNDS` times, and decided by the margin of its last query; one
    still in the band is recorded and reported Inconclusive unless a real
    counterexample also shows up.  A ball the oracle's enclosure proves, at
    eps/1000 for an inexact oracle (see the module docstring), counts its
    samples without evaluating them.
    """
    same_dim(f"system {system.name}", system.dim_in, f"oracle {oracle.name}", oracle.dim)
    at_least(1, quad_samples=quad_samples, xi_samples=xi_samples)
    quads = system.members_prefix(quad_samples, scan_cap)
    samples = proved = straddles = refined = 0
    zero = Fraction(0)  # every eps of an exact oracle
    proof_eps = {}  # an inexact oracle's eps/1000, by N
    for quad in quads:
        N = quad.n + 1
        pb, qb = quad.b.as_integer_ratio()
        if oracle.exact:
            en, ed, ped, peps = 0, 1, 1, zero
        else:
            en, ed = 1, 10 * N * N
            ped = _REFINE * ed  # an inexact oracle proves at eps/1000
            peps = proof_eps.get(N)
            if peps is None:
                peps = proof_eps[N] = Fraction(en, ped)
        box = oracle.enclose(quad.a, quad.m, peps)
        if box is not None and _proves(box, pb, qb, N, en, ped):
            proved += 1
            samples += xi_samples
            continue
        eps = zero if oracle.exact else Fraction(en, ed)
        key = f"{seed};{_text(quad.a)};{quad.m};{quad.b};{quad.n}"
        for xi in _sample_ball(quad.a, quad.m, xi_samples, key, oracle.domain_test):
            samples += 1
            approx = oracle.eval(xi, eps)
            side = _side(pb, qb, approx, N, en, ed)
            rounds, qd = 0, ed
            while side == 0 and rounds < _REFINE_ROUNDS:  # in the band: ask again at eps/1000
                rounds, qd = rounds + 1, qd * _REFINE
                approx = oracle.eval(xi, Fraction(en, qd))
                side = _side(pb, qb, approx, N, en, qd)
            straddles += side == 0
            refined += side < 0 < rounds
            if side > 0:
                witness = {"quad": quad.to_json_dict(), "xi": [str(c) for c in xi],
                           "oracle_value": str(approx), "distance": str(abs(quad.b - approx)),
                           "bound": str(Fraction(1, N))}
                return Verdict(Outcome.COUNTER_EXAMPLE, samples, seed, witness,
                               "sampled point violates the quadruple's promise", proved)
    if straddles:
        return Verdict(Outcome.INCONCLUSIVE, samples, seed,
                       diagnostics=f"{straddles} samples inside the oracle margin band", proved=proved)
    note = f", {refined} samples refined out of the oracle margin band" if refined else ""
    return Verdict(Outcome.PASS, samples, seed, diagnostics=f"checked {len(quads)} quadruples{note}",
                   proved=proved)


# --- condition (2): productivity --------------------------------------------------

def verify_condition2(system: ApproxSystem, oracle: RefOracle, xi: Point, n: int,
                      m_cap: int = 60, a_samples: int = 6, budget: int = 2000,
                      seed: int = 0) -> Verdict:
    """Search for an input precision m that serves every sampled a near xi.

    For each m <= m_cap, samples points a with dist(a, xi) < 1/(m+1) (not
    restricted to the oracle domain: productivity quantifies over all nearby
    rational points), keyed by (seed, xi, m), and hunts a b with
    (a, m, b, n) in the system among three candidates: the system's own
    witness, when it has one, and the oracle's value at a and at xi (asked
    once), each confirmed by membership within `budget`.  No enumeration is
    scanned.  Pass records the first m that served all samples; exhaustion
    is Inconclusive, never a refutation.
    """
    xi = as_point(xi)
    same_dim(f"system {system.name}", system.dim_in, f"oracle {oracle.name}", oracle.dim)
    same_dim("point xi", len(xi), f"system {system.name}", system.dim_in)
    at_least(0, n=n, m_cap=m_cap, budget=budget)
    at_least(1, a_samples=a_samples)
    quarter = Fraction(1, 4 * (n + 1))
    at_xi = [oracle.eval(xi, quarter)] if oracle.domain_test(xi) else []
    witness, samples = system.witness, 0
    for m in range(m_cap + 1):
        for a in _sample_ball(xi, m, a_samples, f"{seed};{_text(xi)};{m}", None):
            samples += 1
            w = None if witness is None else witness(a, m, n)
            candidates = [] if w is None else [w]
            if a is not xi and oracle.domain_test(a):  # the center a = xi is in at_xi
                candidates.append(oracle.eval(a, quarter))
            if not any(system.membership(Quadruple(a, m, b, n), budget) is Membership.YES
                       for b in dict.fromkeys(candidates + at_xi)):
                break
        else:
            return Verdict(Outcome.PASS, samples, seed, diagnostics=f"m={m} serves all sampled points")
    return Verdict(Outcome.INCONCLUSIVE, samples, seed,
                   diagnostics=f"no m <= {m_cap} served every sample within the budget")


# --- exhaustive grid check ---------------------------------------------------------

def brute_force_condition1_check(a: Point, m: int, b: Rat, n: int,
                                 oracle: RefOracle, grid: int = 10) -> bool:
    """Grid-exhaustive soundness check of one quadruple against an exact oracle.

    Places `grid` points per axis strictly inside the open ball (grid = 1
    degenerates to xi = a), skips points outside the oracle's domain, and
    checks |b - truth| < 1/(n+1) exactly.  False iff some grid point violates
    the promise.
    """
    if not oracle.exact:
        raise DomainError("brute_force_condition1_check needs an exact oracle")
    same_dim("point a", len(a), f"oracle {oracle.name}", oracle.dim)
    at_least(0, m=m, n=n)
    at_least(1, grid=grid)
    r = Fraction(1, m + 1)
    bound = Fraction(1, n + 1)
    offsets = [r * Fraction(2 * j + 1 - grid, grid) for j in range(grid)]
    for combo in product(offsets, repeat=len(a)):
        xi = tuple(c + o for c, o in zip(a, combo))
        if not oracle.domain_test(xi):
            continue
        if abs(b - oracle.eval(xi, Fraction(0))) >= bound:
            return False
    return True


# --- containment -------------------------------------------------------------------

def verify_containment(sub: ApproxSystem, sup: ApproxSystem, count: int = 1000,
                       scan_cap: Optional[int] = None, budget: int = 4096) -> Verdict:
    """Check that an enumeration prefix of `sub` is contained in `sup`.

    A decidable `sup` is asked through its `decide`, whatever the budget,
    and a missing member is a definite CounterExample; a merely enumerable
    `sup` is asked through `membership` within the budget, and absence is
    only Inconclusive.
    """
    same_dim(f"system {sub.name}", sub.dim_in, f"system {sup.name}", sup.dim_in)
    at_least(0, budget=budget)
    at_least(1, count=count)
    quads = sub.members_prefix(count, scan_cap)
    decide = sup.decide
    for idx, q in enumerate(quads):
        accepted = decide(q) if decide is not None else sup.membership(q, budget) is Membership.YES
        if not accepted:
            outcome = Outcome.COUNTER_EXAMPLE if decide is not None else Outcome.INCONCLUSIVE
            return Verdict(outcome, idx + 1, witness={"quad": q.to_json_dict()},
                           diagnostics=f"member #{idx} of {sub.name} not accepted by {sup.name}")
    return Verdict(Outcome.PASS, len(quads),
                   diagnostics=f"{len(quads)} members of {sub.name} accepted by {sup.name}")
