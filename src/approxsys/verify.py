"""Randomized audits of approximation systems against reference oracles.

The harness can refute but never fully confirm: Pass means "no violation
found at these sample sizes and seed".  CounterExample verdicts carry the
offending quadruple and point and are always genuine relative to the oracle's
accuracy contract.  When an inexact oracle cannot separate a distance from
the bound, the verdict degrades to Inconclusive rather than guessing.
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
    inexact oracles must be called with eps > 0.
    """

    eval: Callable[[Point, Rat], Rat]
    domain_test: Callable[[Point], bool]
    exact: bool
    name: str
    dim: int


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
    specials = chain((center,), islice(corners, 8 if m else 0))
    out = list(islice(specials if domain_test is None else filter(domain_test, specials), count))

    scale = _RAND_DENOM * M
    attempts = 0
    while len(out) < count and attempts < 64 * count + 64:
        attempts += 1
        coords = []
        for cn, cd in ratios:
            if attempts % 2:
                j = rng.randrange(_RAND_DENOM)
            else:
                j = _RAND_DENOM - rng.randrange(1, 1 << 12)
            if not rng.randrange(2):
                j = -j
            coords.append(Fraction(cn * scale + j * cd, cd * scale))
        p = tuple(coords)
        if domain_test is None or domain_test(p):
            out.append(p)
    return out


# --- condition (1): soundness ----------------------------------------------------

def verify_condition1(system: ApproxSystem, oracle: RefOracle,
                      quad_samples: int = 1000, xi_samples: int = 10,
                      seed: int = 0, scan_cap: Optional[int] = None) -> Verdict:
    """Audit soundness on an enumeration prefix.

    For each drawn quadruple and each sampled point of its ball, compares
    |b - oracle(xi)| against 1/(n+1) with margin eps = 1/(10(n+1)^2) (zero
    for exact oracles): distance >= bound + eps refutes soundness; landing
    inside the margin band is recorded and reported Inconclusive unless a
    real counterexample also shows up.
    """
    _same_dim(f"system {system.name}", system.dim_in, f"oracle {oracle.name}", oracle.dim)
    _at_least(1, quad_samples=quad_samples, xi_samples=xi_samples)
    rng = random.Random(seed)
    quads = system.members_prefix(quad_samples, scan_cap)
    samples = 0
    straddles = 0
    for quad in quads:
        # |b - approx| >= 1/N +- eps for b = pb/qb, approx = pa/qa and
        # eps = en/ed, multiplied through by N ed qb qa > 0
        N = quad.n + 1
        en, ed = (0, 1) if oracle.exact else (1, 10 * N * N)
        eps = Fraction(en, ed)
        pb, qb = quad.b.as_integer_ratio()
        for xi in _sample_ball(quad.a, quad.m, xi_samples, rng, oracle.domain_test):
            samples += 1
            approx = oracle.eval(xi, eps)
            pa, qa = approx.as_integer_ratio()
            gap = abs(pb * qa - pa * qb) * N * ed
            if gap >= qb * qa * (ed + N * en):
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
            if en and gap >= qb * qa * (ed - N * en):
                straddles += 1
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
        diagnostics=f"checked {len(quads)} quadruples",
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
