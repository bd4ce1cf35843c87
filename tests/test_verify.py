import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from approxsys.core import ApproxSystem, DecidableSystem, Quadruple
from approxsys.errors import DimensionError, DomainError
from approxsys.systems import (
    _corners,
    atom,
    cosine_system,
    division_system,
    maximal_division_system,
    semialgebraic_system,
    sigma_k,
    squaring_system,
)
from approxsys.verify import (
    Outcome,
    Verdict,
    _sample_ball,
    brute_force_condition1_check,
    cos_taylor,
    cosine_oracle,
    division_oracle,
    squaring_oracle,
    verify_condition1,
    verify_condition2,
    verify_containment,
)

# --- reference oracle ---------------------------------------------------------

def cos_taylor_reference(x, err):
    """cos_taylor's sum and stopping rule, in Fraction arithmetic."""
    total = F(0)
    term = F(1)
    sign = 1
    i = 0
    while True:
        total += sign * term
        nxt = term * x * x / ((2 * i + 1) * (2 * i + 2))
        if x * x <= (2 * i + 1) * (2 * i + 2) and nxt <= err:
            return total
        term = nxt
        sign = -sign
        i += 1


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
    st.builds(F, st.integers(min_value=1, max_value=10**6),
              st.integers(min_value=0, max_value=60).map(lambda e: 10**e)),
)
def test_cos_taylor_matches_reference(x, err):
    assert cos_taylor(x, err) == cos_taylor_reference(x, err)


def test_cos_taylor_frozen():
    assert cos_taylor(F(0), F(1, 10**6)) == 1
    assert cos_taylor(F(1), F(1, 2)) == 1
    assert cos_taylor(F(1), F(1, 3)) == F(1, 2)


def test_cos_taylor_rejects_bad_error():
    with pytest.raises(DomainError):
        cos_taylor(F(1), F(0))
    with pytest.raises(DomainError):
        cos_taylor(F(1), F(-1, 2))


def test_cos_taylor_matches_float_cosine():
    rng = random.Random(4)
    for _ in range(40):
        x = F(rng.randint(-24, 24), 8)
        v = cos_taylor(x, F(1, 10**9))
        assert abs(float(v) - math.cos(x)) < 1e-7


def test_cos_taylor_error_parameter_is_honoured():
    for e1, e2 in ((F(1, 10), F(1, 10**5)), (F(1, 3), F(1, 10**7))):
        a = cos_taylor(F(22, 7), e1)
        b = cos_taylor(F(22, 7), e2)
        assert abs(a - b) <= e1 + e2


def test_oracle_domains():
    assert division_oracle().domain_test((F(1), F(2)))
    assert not division_oracle().domain_test((F(1), F(0)))
    assert cosine_oracle().domain_test((F(5),))
    assert squaring_oracle().eval((F(-3),), F(0)) == 9


# --- sampling -----------------------------------------------------------------

def test_sample_ball_geometry():
    rng = random.Random(0)
    center = (F(1), F(3))
    pts = _sample_ball(center, 2, 12, rng, None)
    assert len(pts) == 12
    assert pts[0] == center
    r = F(1, 3)
    edge = r - r * r
    corners = {
        (center[0] + s1 * edge, center[1] + s2 * edge)
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    assert corners.issubset(set(pts[1:5]))
    for p in pts:
        assert max(abs(p[0] - center[0]), abs(p[1] - center[1])) < r


def test_sample_ball_respects_domain():
    rng = random.Random(0)
    pts = _sample_ball((F(0), F(0)), 0, 20, rng, lambda p: p[1] > 0)
    assert len(pts) > 0
    for p in pts:
        assert p[1] > 0


def test_sample_ball_frozen():
    one = _sample_ball((F(1, 3),), 4, 7, random.Random(5), None)
    assert [str(c) for (c,) in one] == [
        "1/3", "37/75", "13/75", "6850001/15728640", "16782103/125829120",
        "37014971/251658240", "33562409/251658240",
    ]
    # the center itself lies outside the domain
    two = _sample_ball((F(1), F(0)), 3, 8, random.Random(7), division_oracle().domain_test)
    assert [tuple(map(str, p)) for p in two] == [
        ("19/16", "3/16"), ("19/16", "-3/16"), ("13/16", "3/16"), ("13/16", "-3/16"),
        ("7030355/8388608", "-6624039/33554432"), ("50331945/67108864", "-8387859/33554432"),
        ("59904789/67108864", "1441955/33554432"), ("50333361/67108864", "-8388115/33554432"),
    ]


def test_sample_ball_deterministic():
    a = _sample_ball((F(1),), 4, 9, random.Random(11), None)
    b = _sample_ball((F(1),), 4, 9, random.Random(11), None)
    assert a == b


# --- condition (1) on the honest systems -----------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_division_soundness_passes(seed):
    v = verify_condition1(division_system(), division_oracle(),
                          quad_samples=500, seed=seed)
    assert v.outcome is Outcome.PASS
    assert v.samples > 0 and v.seed == seed


def test_maximal_division_soundness_passes():
    v = verify_condition1(maximal_division_system(), division_oracle(),
                          quad_samples=300)
    assert v.outcome is Outcome.PASS


def test_squaring_soundness_passes():
    v = verify_condition1(squaring_system(), squaring_oracle(), quad_samples=300)
    assert v.outcome is Outcome.PASS


def test_cosine_soundness_never_refuted():
    # the trig oracle is inexact, so margin-band straddles may well make the
    # verdict Inconclusive; what must never happen is a counterexample
    v = verify_condition1(cosine_system(), cosine_oracle(), quad_samples=100)
    assert v.outcome is not Outcome.COUNTER_EXAMPLE


def test_empty_system_passes_vacuously():
    empty = DecidableSystem(lambda q: False, 2, name="empty")
    v = verify_condition1(empty, division_oracle(), quad_samples=5, scan_cap=2000)
    assert v.outcome is Outcome.PASS
    assert v.samples == 0


# --- mutation detection -------------------------------------------------------------

def _mutant_radius_off_by_one(q: Quadruple) -> bool:
    a1, a2 = q.a
    if a2 * q.b != a1:
        return False
    return (q.m + 1) * abs(a2) >= (q.n + 1) * (abs(q.b) + 1)  # dropped the "1 +"


def test_condition1_refutes_radius_mutant():
    mut = DecidableSystem(_mutant_radius_off_by_one, 2, name="division-lax")
    v = verify_condition1(mut, division_oracle(), quad_samples=1000)
    assert v.outcome is Outcome.COUNTER_EXAMPLE
    assert set(v.witness) == {"quad", "xi", "oracle_value", "distance", "bound"}
    assert F(v.witness["distance"]) >= F(v.witness["bound"])
    assert v.to_json() == (
        '{"diagnostics": "sampled point violates the quadruple\'s promise", '
        '"outcome": "counter_example", "samples": 8, "seed": 0, "witness": '
        '{"bound": "1", "distance": "3198388/1889499", "oracle_value": "3198388/1889499", '
        '"quad": {"a": ["0", "1"], "b": "0", "m": 0, "n": 0}, '
        '"xi": ["3997985/4194304", "9447495/16777216"]}}'
    )


def test_condition1_refutes_distance_equal_to_bound():
    # (0, 0, 1, 0) promises |x^2 - 1| < 1 near 0, and x = 0 is at distance 1
    target = Quadruple((F(0),), 0, F(1), 0)
    edge = DecidableSystem(lambda q: q == target, 1, name="square-edge")
    v = verify_condition1(edge, squaring_oracle(), quad_samples=1)
    assert v.outcome is Outcome.COUNTER_EXAMPLE
    assert v.witness["xi"] == ["0"] and v.witness["distance"] == v.witness["bound"] == "1"


def _mutant_cosine_accept_without_halfterm(q: Quadruple) -> bool:
    (a,) = q.a
    g = F(1, q.n + 1) - F(1, q.m + 1)
    if g < 0:
        return False
    k = 0
    while a * a > (2 * k + 1) * (2 * k + 2):
        k += 1
    for _ in range(10_000):
        e = a ** (2 * k) / (2 * math.factorial(2 * k))
        f = abs(q.b - sigma_k(a, k))  # the e_k summand is missing
        if f <= g:
            return True
        if f - e > g:
            return False
        k += 1
    raise AssertionError("mutant scan did not settle")


def test_condition1_refutes_cosine_mutant():
    mut = DecidableSystem(_mutant_cosine_accept_without_halfterm, 1,
                          name="cosine-lax")
    v = verify_condition1(mut, cosine_oracle(), quad_samples=1000)
    assert v.outcome is Outcome.COUNTER_EXAMPLE
    assert v.to_json() == (
        '{"diagnostics": "sampled point violates the quadruple\'s promise", '
        '"outcome": "counter_example", "samples": 662, "seed": 0, "witness": '
        '{"bound": "1/2", "distance": "210889/327680", "oracle_value": "-210889/327680", '
        '"quad": {"a": ["2"], "b": "0", "m": 1, "n": 1}, "xi": ["9/4"]}}'
    )


def _mutant_open_interval_maximal(q: Quadruple) -> bool:
    a1, a2 = q.a
    if (q.m + 1) * abs(a2) <= 1:
        return False
    v = F(1, q.n + 1)
    lo, hi = q.b - v, q.b + v
    for c in _corners(q.a, q.m):
        if c <= lo or c >= hi:  # closed containment became open
            return False
    return True


def test_containment_refutes_open_interval_mutant():
    # still sound (it is a subset of the closed-interval system), so the
    # soundness audit cannot see it; the containment audit can
    mut = DecidableSystem(_mutant_open_interval_maximal, 2, name="maximal-open")
    v1 = verify_condition1(mut, division_oracle(), quad_samples=300)
    assert v1.outcome is Outcome.PASS
    v2 = verify_containment(division_system(), mut, count=1000)
    assert v2.outcome is Outcome.COUNTER_EXAMPLE
    assert v2.samples == 1
    assert v2.witness["quad"] == {"a": ["0", "1"], "m": 1, "b": "0", "n": 0}


# --- condition (2) ----------------------------------------------------------------

def test_condition2_division_at_one_third():
    v = verify_condition2(division_system(), division_oracle(), (F(1), F(3)), 4)
    assert v.outcome is Outcome.PASS
    assert v.diagnostics == "m=2 serves all sampled points"


def test_condition2_inconclusive_when_m_cap_too_small():
    v = verify_condition2(division_system(), division_oracle(),
                          (F(1), F(1, 1000)), 10, m_cap=0)
    assert v.outcome is Outcome.INCONCLUSIVE


def test_condition2_cosine():
    v = verify_condition2(cosine_system(), cosine_oracle(), (F(1),), 9)
    assert v.outcome is Outcome.PASS
    assert v.diagnostics == "m=10 serves all sampled points"


def test_condition2_squaring():
    v = verify_condition2(squaring_system(), squaring_oracle(), (F(3, 2),), 6)
    assert v.outcome is Outcome.PASS
    assert v.diagnostics == "m=21 serves all sampled points"


# --- brute force ---------------------------------------------------------------------

def test_brute_force_frozen_cases():
    div = division_oracle()
    assert brute_force_condition1_check((F(1), F(3)), 9, F(1, 3), 2, div)
    assert not brute_force_condition1_check((F(1), F(3)), 1, F(1, 3), 100, div)
    sq = squaring_oracle()
    assert brute_force_condition1_check((F(3, 2),), 9, F(9, 4), 2, sq, grid=100)
    assert not brute_force_condition1_check((F(3, 2),), 9, F(9, 4), 3, sq, grid=100)


def test_brute_force_grid_one_is_center_only():
    div = division_oracle()
    assert brute_force_condition1_check((F(1), F(3)), 9, F(1, 3), 10**6, div, grid=1)
    assert not brute_force_condition1_check((F(1), F(3)), 9, F(1, 2), 5, div, grid=1)


def test_brute_force_skips_domain_holes():
    # the grid crosses the x2 = 0 axis; those points must be skipped, and the
    # surviving ones still refute this wild quadruple
    assert not brute_force_condition1_check(
        (F(1), F(1, 20)), 9, F(20), 0, division_oracle(), grid=10
    )


def test_brute_force_needs_exact_oracle():
    with pytest.raises(DomainError):
        brute_force_condition1_check((F(1),), 3, F(1, 2), 1, cosine_oracle())


# --- containment ----------------------------------------------------------------------

def test_division_contained_in_maximal():
    v = verify_containment(division_system(), maximal_division_system(), count=300)
    assert v.outcome is Outcome.PASS
    assert v.samples == 300


def test_maximal_not_contained_in_division():
    v = verify_containment(maximal_division_system(), division_system(), count=300)
    assert v.outcome is Outcome.COUNTER_EXAMPLE


class _EnumerableDivision(ApproxSystem):
    dim_in = 2
    name = "division-enumerable"

    def enumerate(self, k):
        return division_system().enumerate(k)


def test_containment_against_enumerable_sup():
    sub = division_system()
    tight = verify_containment(sub, _EnumerableDivision(), count=1, budget=3)
    assert tight.outcome is Outcome.INCONCLUSIVE
    roomy = verify_containment(sub, _EnumerableDivision(), count=1, budget=4096)
    assert roomy.outcome is Outcome.PASS


# --- dimension checks ---------------------------------------------------------------

def _counting_system(dim):
    calls = []

    def decide(q):
        calls.append(q)
        return True

    return DecidableSystem(decide, dim, name=f"counting-{dim}"), calls


@pytest.mark.parametrize("system,oracle", [
    (division_system, squaring_oracle),  # unchecked, this audits x1 alone and passes
    (squaring_system, division_oracle),  # unchecked, the oracle reads a missing x2
])
def test_condition1_rejects_oracle_of_other_dimension(system, oracle):
    with pytest.raises(DimensionError):
        verify_condition1(system(), oracle(), quad_samples=20)


def test_condition1_dimension_checked_before_any_scan():
    counting, calls = _counting_system(2)
    with pytest.raises(DimensionError):
        verify_condition1(counting, squaring_oracle(), quad_samples=20)
    assert calls == []


def test_condition2_rejects_mismatched_dimensions():
    with pytest.raises(DimensionError):
        verify_condition2(division_system(), squaring_oracle(), (F(1), F(3)), 4)
    with pytest.raises(DimensionError):
        verify_condition2(division_system(), division_oracle(), (F(1),), 4)


def test_brute_force_rejects_point_of_other_dimension():
    with pytest.raises(DimensionError):
        brute_force_condition1_check((F(1),), 9, F(1, 3), 2, division_oracle())


def _all_of_dimension_one():
    return semialgebraic_system(atom(">="), 1, name="all")


@pytest.mark.parametrize("sub,sup", [
    (division_system, squaring_system),  # unchecked, a bogus counterexample
    (division_system, _all_of_dimension_one),  # unchecked, passes
    (cosine_system, division_system),  # unchecked, division unpacks a 1-point
])
def test_containment_rejects_systems_of_other_dimension(sub, sup):
    with pytest.raises(DimensionError):
        verify_containment(sub(), sup(), count=20)


def test_containment_dimension_checked_before_any_scan():
    counting, calls = _counting_system(1)
    with pytest.raises(DimensionError):
        verify_containment(counting, division_system(), count=20)
    assert calls == []


# --- verdict plumbing -------------------------------------------------------------------

def test_verdict_json_frozen():
    v = Verdict(Outcome.PASS, samples=3, seed=7, diagnostics="x")
    assert v.to_json() == (
        '{"diagnostics": "x", "outcome": "pass", "samples": 3, '
        '"seed": 7, "witness": null}'
    )


def test_verifier_runs_are_reproducible():
    a = verify_condition1(division_system(), division_oracle(),
                          quad_samples=120, xi_samples=5, seed=3)
    b = verify_condition1(division_system(), division_oracle(),
                          quad_samples=120, xi_samples=5, seed=3)
    assert a.to_json() == b.to_json()
