"""Randomized audits of approximation systems against reference oracles.

The harness can refute but never fully confirm: Pass means "no violation
found at these sample sizes and seed".  CounterExample verdicts carry the
offending quadruple and point and are always genuine relative to the oracle's
accuracy contract.  When an inexact oracle cannot separate a distance from
the bound, the sample is queried again with a thousandth of the error, up to
three times; only if that still cannot separate them does the verdict degrade
to Inconclusive rather than guessing.

An oracle that declares a Lipschitz constant L lets the soundness audit
certify a whole ball from the oracle's value c at its center a: when
|b - c| + L/(m+1) + 3 eps < 1/(n+1), every sample of the ball passes
whatever eps-accurate value the oracle would give for it, so the ball's
points are neither built nor evaluated (its random draws are still made, so
later balls see the same samples).  Verdicts, sample counts and witnesses are
those of evaluating every sample.

Every audit raises DimensionError before any work on mismatched dimensions,
and DomainError on a negative index, budget or scan cap, or on a sample count
below 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, islice, product
from typing import Callable, List, Optional

from .core import ApproxSystem, Membership, Quadruple
from .errors import DimensionError, DomainError
from .numerics import Point, Rat, rat_div


@dataclass(frozen=True)
class RefOracle:
    """Reference implementation: eval(xi, eps) is within eps of the truth.

    `exact` declares eps = 0 queries legal (the answer is the truth itself);
    inexact oracles must be called with eps > 0.  `lipschitz`, when given, is
    a constant L >= 0 with |f(x) - f(y)| <= L dist(x, y) in the max metric for
    all x, y in Q^dim, so the oracle's domain is all of Q^dim; the soundness
    audit then certifies whole balls from their centers.
    """

    eval: Callable[[Point, Rat], Rat]
    domain_test: Callable[[Point], bool]
    exact: bool
    name: str
    dim: int
    lipschitz: Optional[Rat] = None

    def __post_init__(self):
        if self.lipschitz is not None and self.lipschitz < 0:
            raise DomainError(f"a Lipschitz constant is at least 0, got {self.lipschitz}")


class Outcome(Enum):
    PASS = "pass"
    COUNTER_EXAMPLE = "counter_example"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    samples: int
    seed: Optional[int] = None
    witness: Optional[dict] = None
    diagnostics: str = ""

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


def _same_dim(left: str, left_dim: int, right: str, right_dim: int):
    if left_dim != right_dim:
        raise DimensionError(f"{left} has dimension {left_dim}, {right} has dimension {right_dim}")


def _at_least(least: int, **args: int):
    for name, value in args.items():
        if value < least:
            raise DomainError(f"{name} must be at least {least}, got {value}")


# --- reference oracles ----------------------------------------------------------

def cos_taylor(x: Rat, err: Rat) -> Rat:
    """Partial Taylor sum within err of cos x, exact rational arithmetic.

    Sums (-1)^i x^(2i)/(2i)! until the next term is at most err *and* the
    tail alternates with decreasing terms (x^2 <= (2i+1)(2i+2)), at which
    point the alternating series bound caps the remainder by that next term.
    Runs on integers: with x^2 = s/t and D = t^i (2i)!, the sum of the terms
    up to i is total/D and the next term is s^(i+1)/(D c) for
    c = t (2i+1)(2i+2).
    """
    en, ed = err.as_integer_ratio()
    if en <= 0:
        raise DomainError("cos_taylor needs a positive error bound")
    xn, xd = x.as_integer_ratio()
    s, t = xn * xn, xd * xd
    total = scale = power = 1
    i = 0
    while True:
        c = t * (2 * i + 1) * (2 * i + 2)
        power *= s
        if s <= c and power * ed <= scale * c * en:
            return Fraction(total, scale)
        scale *= c
        total = total * c + (power if i % 2 else -power)
        i += 1


def division_oracle() -> RefOracle:
    return RefOracle(
        eval=lambda xi, eps: rat_div(xi[0], xi[1]),
        domain_test=lambda xi: xi[1] != 0,
        exact=True,
        name="division",
        dim=2,
    )


def cosine_oracle() -> RefOracle:
    return RefOracle(
        eval=lambda xi, eps: cos_taylor(xi[0], eps),
        domain_test=lambda xi: True,
        exact=False,
        name="cosine",
        dim=1,
        lipschitz=Fraction(1),  # |cos x - cos y| <= |x - y|
    )


def squaring_oracle() -> RefOracle:
    return RefOracle(
        eval=lambda xi, eps: xi[0] * xi[0],
        domain_test=lambda xi: True,
        exact=True,
        name="square",
        dim=1,
    )


# --- sampling -------------------------------------------------------------------

_RAND_DENOM = 1 << 24


def _special_count(m: int, dim: int) -> int:
    """How many special points a ball has: its center, and up to 8 corners if m > 0."""
    return 1 + (min(1 << dim, 8) if m else 0)


def _offset(odd: int, draw: Callable[..., int]) -> int:
    """One axis's random numerator j, for the coordinate c + j/(2^24 (m+1)).

    Magnitudes are uniform on odd attempts and boundary-hugging on even ones.
    """
    j = draw(_RAND_DENOM) if odd else _RAND_DENOM - draw(1, 1 << 12)
    return j if draw(2) else -j


def _sample_ball(center: Point, m: int, count: int, rng: random.Random,
                 domain_test: Optional[Callable[[Point], bool]]) -> List[Point]:
    """Up to `count` rational points strictly inside the 1/(m+1) ball.

    Starts with the center itself and near-boundary corners at per-axis
    distance 1/(m+1) - 1/(m+1)^2 (none at m = 0, where that distance is 0
    and every corner is the center), then corner-biased random points:
    random offsets alternate between uniform and boundary-hugging
    magnitudes, which is where soundness violations concentrate.  The
    special points are built lazily, up to the count-th one kept, and rng
    is drawn from only when they run out.
    """
    M = m + 1
    ratios = [c.as_integer_ratio() for c in center]

    # A corner coordinate c +- (M - 1)/M^2 and a random one c +- (j/2^24)/M,
    # for c = cn/cd, are each built as one Fraction over cd M^2 or cd 2^24 M.
    corners = (tuple(Fraction(cn * M * M + s * (M - 1) * cd, cd * M * M)
                     for (cn, cd), s in zip(ratios, signs))
               for signs in product((1, -1), repeat=len(center)))
    specials = islice(chain((center,), corners), _special_count(m, len(center)))
    out = list(islice(specials if domain_test is None else filter(domain_test, specials), count))

    scale = _RAND_DENOM * M
    draw = rng.randrange
    attempts = 0
    while len(out) < count and attempts < 64 * count + 64:
        attempts += 1
        odd = attempts % 2
        p = tuple([Fraction(cn * scale + _offset(odd, draw) * cd, cd * scale) for cn, cd in ratios])
        if domain_test is None or domain_test(p):
            out.append(p)
    return out


def _skip_ball(m: int, dim: int, count: int, rng: random.Random):
    """Advance rng exactly as `_sample_ball(center, m, count, rng, None)` does
    for a center of dimension dim, building no point."""
    draw = rng.randrange
    for attempt in range(1, count - _special_count(m, dim) + 1):
        for _ in range(dim):
            _offset(attempt % 2, draw)


# --- condition (1): soundness ----------------------------------------------------

_REFINE_ROUNDS = 3  # margin-band re-queries of one sample, each at a thousandth of the last eps


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


def _refine(oracle: RefOracle, xi: Point, pb: int, qb: int, N: int, en: int, ed: int):
    """Query a sample in the margin band again, each time with a thousandth
    of the last eps, until it leaves the band or `_REFINE_ROUNDS` queries are
    spent; returns its last `_side` and the value that decided it."""
    for _ in range(_REFINE_ROUNDS):
        ed *= 1000
        approx = oracle.eval(xi, Fraction(en, ed))
        side = _side(pb, qb, approx, N, en, ed)
        if side:
            break
    return side, approx


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
    counterexample also shows up.  With an oracle that declares a Lipschitz
    constant, a ball whose center certifies it (see the module docstring)
    counts its samples without evaluating them.
    """
    _same_dim(f"system {system.name}", system.dim_in, f"oracle {oracle.name}", oracle.dim)
    _at_least(1, quad_samples=quad_samples, xi_samples=xi_samples)
    rng = random.Random(seed)
    quads = system.members_prefix(quad_samples, scan_cap)
    if oracle.lipschitz is not None:
        pl, ql = oracle.lipschitz.as_integer_ratio()
    samples = 0
    straddles = 0
    refined = 0
    for quad in quads:
        N = quad.n + 1
        en, ed = (0, 1) if oracle.exact else (1, 10 * N * N)
        eps = Fraction(en, ed)
        pb, qb = quad.b.as_integer_ratio()
        center = None  # the oracle's value at the ball's center, once computed
        if oracle.lipschitz is not None:
            # |b - c| + L/M + 3 eps < 1/N for the center's value c = pc/qc,
            # multiplied through by N ed qb qc ql M > 0
            center = oracle.eval(quad.a, eps)
            pc, qc = center.as_integer_ratio()
            M = quad.m + 1
            D = qb * qc
            if (abs(pb * qc - pc * qb) * ql * M * ed + D * (pl * ed + 3 * en * ql * M)) * N \
                    < D * ql * M * ed:
                samples += xi_samples
                _skip_ball(quad.m, len(quad.a), xi_samples, rng)
                continue
        for xi in _sample_ball(quad.a, quad.m, xi_samples, rng, oracle.domain_test):
            samples += 1
            if center is None:
                approx = oracle.eval(xi, eps)
            else:  # xi is the center: the domain is total, so it comes first
                approx, center = center, None
            side = _side(pb, qb, approx, N, en, ed)
            if side == 0:
                side, approx = _refine(oracle, xi, pb, qb, N, en, ed)
                straddles += side == 0
                refined += side < 0
            if side > 0:
                return Verdict(
                    Outcome.COUNTER_EXAMPLE,
                    samples=samples,
                    seed=seed,
                    witness={
                        "quad": quad.to_json_dict(),
                        "xi": [str(c) for c in xi],
                        "oracle_value": str(approx),
                        "distance": str(abs(quad.b - approx)),
                        "bound": str(Fraction(1, N)),
                    },
                    diagnostics="sampled point violates the quadruple's promise",
                )
    if straddles:
        return Verdict(
            Outcome.INCONCLUSIVE,
            samples=samples,
            seed=seed,
            diagnostics=f"{straddles} samples inside the oracle margin band",
        )
    return Verdict(
        Outcome.PASS,
        samples=samples,
        seed=seed,
        diagnostics=f"checked {len(quads)} quadruples"
                    + (f", {refined} samples refined out of the oracle margin band" if refined else ""),
    )


# --- condition (2): productivity --------------------------------------------------

def verify_condition2(system: ApproxSystem, oracle: RefOracle, xi: Point, n: int,
                      m_cap: int = 60, a_samples: int = 6, budget: int = 2000,
                      seed: int = 0) -> Verdict:
    """Search for an input precision m that serves every sampled a near xi.

    For each m <= m_cap, samples points a with dist(a, xi) < 1/(m+1) (not
    restricted to the oracle domain: productivity quantifies over all nearby
    rational points) and hunts a b with (a, m, b, n) in the system among
    three candidates: the system's own witness hint and the oracle's value
    at a and at xi, each confirmed by membership within `budget`.  No
    enumeration is scanned.  Pass records the first m that served all
    samples; exhaustion is Inconclusive, never a refutation.
    """
    _same_dim(f"system {system.name}", system.dim_in, f"oracle {oracle.name}", oracle.dim)
    _same_dim("point xi", len(xi), f"system {system.name}", system.dim_in)
    _at_least(0, n=n, m_cap=m_cap, budget=budget)
    _at_least(1, a_samples=a_samples)
    rng = random.Random(seed)
    quarter = Fraction(1, 4 * (n + 1))
    samples = 0
    for m in range(m_cap + 1):
        all_served = True
        for a in _sample_ball(xi, m, a_samples, rng, None):
            samples += 1
            candidates: List[Rat] = []
            w = system.witness(a, m, n)
            if w is not None:
                candidates.append(w)
            if oracle.domain_test(a):
                candidates.append(oracle.eval(a, quarter))
            if oracle.domain_test(xi):
                candidates.append(oracle.eval(xi, quarter))
            served = False
            for b in dict.fromkeys(candidates):
                if system.membership(Quadruple(a, m, b, n), budget) is Membership.YES:
                    served = True
                    break
            if not served:
                all_served = False
                break
        if all_served:
            return Verdict(
                Outcome.PASS,
                samples=samples,
                seed=seed,
                diagnostics=f"m={m} serves all sampled points",
            )
    return Verdict(
        Outcome.INCONCLUSIVE,
        samples=samples,
        seed=seed,
        diagnostics=f"no m <= {m_cap} served every sample within the budget",
    )


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
    _same_dim("point a", len(a), f"oracle {oracle.name}", oracle.dim)
    _at_least(0, m=m, n=n)
    _at_least(1, grid=grid)
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

    With a decidable `sup` a missing member is a definite CounterExample;
    when `sup` is merely enumerable, absence within the budget is only
    Inconclusive.
    """
    _same_dim(f"system {sub.name}", sub.dim_in, f"system {sup.name}", sup.dim_in)
    _at_least(0, budget=budget)
    _at_least(1, count=count)
    quads = sub.members_prefix(count, scan_cap)
    for idx, q in enumerate(quads):
        if sup.membership(q, budget) is not Membership.YES:
            return Verdict(
                Outcome.COUNTER_EXAMPLE if sup.decide is not None else Outcome.INCONCLUSIVE,
                samples=idx + 1,
                witness={"quad": q.to_json_dict()},
                diagnostics=f"member #{idx} of {sub.name} not accepted by {sup.name}",
            )
    return Verdict(
        Outcome.PASS,
        samples=len(quads),
        diagnostics=f"{len(quads)} members of {sub.name} accepted by {sup.name}",
    )
