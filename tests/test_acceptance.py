"""End-to-end acceptance checks.

One test per criterion; each reports a PASS/FAIL line into the terminal
summary (see conftest) so the whole record is visible at a glance.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from conftest import ACCEPTANCE_LINES, corners

from approxsys.core import DecidableSystem, Membership, Quadruple
from approxsys.evaluate import apply, eval_name, operator_from_system, system_from_operator
from approxsys.names import (
    cauchy_to_ordinary,
    dyadic_name,
    name_of_point,
    ordinary_to_cauchy,
)
from approxsys.numerics import dist
from approxsys.systems import (
    cosine_system,
    division_system,
    maximal_division_system,
    sigma_k,
    squaring_system,
)
from approxsys.verify import (
    Outcome,
    brute_force_condition1_check,
    cos_taylor,
    cosine_oracle,
    division_oracle,
    squaring_oracle,
    verify_condition1,
    verify_containment,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"FAIL criterion {num}: {desc}")
        raise
    ACCEPTANCE_LINES.append(f"PASS criterion {num}: {desc}")


def test_criterion_01_division_evaluation():
    with criterion(1, "division at (1,3), n=999, |b - 1/3| < 1/1000, under 1 s"):
        start = time.perf_counter()
        res = apply(division_system(), name_of_point((F(1), F(3))), 999, 10**7)
        elapsed = time.perf_counter() - start
        assert abs(res.value - F(1, 3)) < F(1, 1000)
        assert elapsed < 1.0


def test_criterion_02_cosine_evaluation():
    with criterion(2, "cosine at 1 (n=999) within 1/1000 of the Taylor oracle; cos 0 exact to 1/10 at n=9"):
        res = apply(cosine_system(), name_of_point((F(1),)), 999, 10**7)
        oracle = cos_taylor(F(1), F(1, 10**6))
        assert abs(res.value - oracle) < F(1, 1000)
        at_zero = apply(cosine_system(), name_of_point((F(0),)), 9, 10**7)
        assert abs(at_zero.value - 1) < F(1, 10)


def test_criterion_03_composition():
    with criterion(3, "cos(cos 1) through two chained evaluators, n=99, within 1/100 of the nested oracle"):
        inner = eval_name(cosine_system(), name_of_point((F(1),)))
        outer = eval_name(cosine_system(), inner)
        (v,) = outer.approx(99)
        nested = cos_taylor(cos_taylor(F(1), F(1, 10**8)), F(1, 10**8))
        assert abs(v - nested) < F(1, 100)


def test_criterion_04_containment_at_scale():
    with criterion(4, "first 10^4 division members all accepted by the maximal system"):
        members = division_system().members_prefix(10_000)
        assert len(members) == 10_000
        decide = maximal_division_system().decide
        for q in members:
            assert decide(q)


def test_criterion_05_soundness_sweep():
    with criterion(5, "soundness sweep: division passes (1000x10, exact), cosine never refuted (200), seeds 0..4"):
        for seed in range(5):
            v = verify_condition1(division_system(), division_oracle(),
                                  quad_samples=1000, xi_samples=10, seed=seed)
            assert v.outcome is Outcome.PASS, (seed, v)
            c = verify_condition1(cosine_system(), cosine_oracle(),
                                  quad_samples=200, seed=seed)
            assert c.outcome is not Outcome.COUNTER_EXAMPLE, (seed, c)


def _division_without_plus_one(q: Quadruple) -> bool:
    a1, a2 = q.a
    if a2 * q.b != a1:
        return False
    return (q.m + 1) * abs(a2) >= (q.n + 1) * (abs(q.b) + 1)


def _cosine_without_halfterm(q: Quadruple) -> bool:
    (a,) = q.a
    g = F(1, q.n + 1) - F(1, q.m + 1)
    if g < 0:
        return False
    k = 0
    while a * a > (2 * k + 1) * (2 * k + 2):
        k += 1
    for _ in range(10_000):
        e = a ** (2 * k) / (2 * math.factorial(2 * k))
        f = abs(q.b - sigma_k(a, k))
        if f <= g:
            return True
        if f - e > g:
            return False
        k += 1
    raise AssertionError("mutant scan did not settle")


def _maximal_with_open_interval(q: Quadruple) -> bool:
    a1, a2 = q.a
    if (q.m + 1) * abs(a2) <= 1:
        return False
    v = F(1, q.n + 1)
    lo, hi = q.b - v, q.b + v
    return all(lo < c < hi for c in corners(q.a, q.m))


def test_criterion_06_mutation_sensitivity():
    with criterion(6, "three predicate mutations each refuted at default sample sizes"):
        lax_division = DecidableSystem(_division_without_plus_one, 2,
                                       name="division-lax")
        v = verify_condition1(lax_division, division_oracle())
        assert v.outcome is Outcome.COUNTER_EXAMPLE

        lax_cosine = DecidableSystem(_cosine_without_halfterm, 1,
                                     name="cosine-lax")
        v = verify_condition1(lax_cosine, cosine_oracle())
        assert v.outcome is Outcome.COUNTER_EXAMPLE

        open_maximal = DecidableSystem(_maximal_with_open_interval, 2,
                                       name="maximal-open")
        v = verify_containment(division_system(), open_maximal)
        assert v.outcome is Outcome.COUNTER_EXAMPLE


def test_criterion_07_converse_round_trip():
    with criterion(7, "extracted division system evaluates (1,2) to within 1/10 at n=9; 100+ certified quadruples survive brute force"):
        extracted = system_from_operator(
            operator_from_system(division_system()), 2
        )
        res = apply(extracted, name_of_point((F(1), F(2))), 9, 10**5)
        assert abs(res.value - F(1, 2)) < F(1, 10)

        oracle = division_oracle()
        certified = 0
        for n in (0, 1, 2):
            m = 16 * n + 16
            grid = 1 << (m + 1).bit_length()
            bgrid = 1 << (2 * n + 6)
            for k in range(19):
                for x2 in (F(3, 2), F(2)):
                    xi = (F(k, 4) - 2, x2)
                    a = tuple(F(math.floor(c * grid + F(1, 2)), grid) for c in xi)
                    b = F(math.floor(a[0] / a[1] * bgrid + F(1, 2)), bgrid)
                    quad = Quadruple(a, m, b, n)
                    if extracted.membership(quad, 128) is Membership.YES:
                        certified += 1
                        assert brute_force_condition1_check(a, m, b, n, oracle)
        assert certified >= 100


def test_criterion_08_sigma_identities(rng):
    with criterion(8, "sigma_0 is 1/2 on 100 random points; |sigma_k(1) - cos 1| <= 1/(2(2k)!) for k=1..8"):
        for _ in range(100):
            a = F(rng.randint(-4096, 4096), rng.randint(1, 64))
            assert sigma_k(a, 0) == F(1, 2)
        for k in range(1, 9):
            bound = F(1) / (2 * math.factorial(2 * k))
            oracle_err = F(1, 10**30)
            oracle = cos_taylor(F(1), oracle_err)
            assert abs(sigma_k(F(1), k) - oracle) <= bound + oracle_err


def test_criterion_09_name_conversions():
    with criterion(9, "ordinary -> Cauchy -> ordinary on a truncation name of 1/3 preserves both contracts at 0..100, exactly"):
        xi = (F(1, 3),)
        f = dyadic_name(xi)
        for i in range(101):
            assert dist(f.approx(i), xi) < F(1, i + 1)
        h = ordinary_to_cauchy(f)
        for i in range(8):
            for k in range(i + 1, 9):
                assert dist(h.approx(i), h.approx(k)) <= F(1, 2**i)
        g = cauchy_to_ordinary(h)
        for i in range(101):
            assert dist(g.approx(i), xi) < F(1, i + 1)


def test_criterion_10_semialgebraic_path():
    with criterion(10, "100 squaring members survive a 100-per-axis brute force; squaring at 3/2 gives |b - 9/4| < 1/1000 at n=999"):
        oracle = squaring_oracle()
        members = squaring_system().members_prefix(100)
        assert len(members) == 100
        for q in members:
            assert brute_force_condition1_check(q.a, q.m, q.b, q.n, oracle, grid=100)
        res = apply(squaring_system(), name_of_point((F(3, 2),)), 999, 10**7)
        assert abs(res.value - F(9, 4)) < F(1, 1000)
