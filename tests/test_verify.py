import dataclasses
import math
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from approxsys import verify
from approxsys.core import DecidableSystem, Membership, Quadruple, decode_quadruple
from approxsys.errors import DimensionError, DomainError
from approxsys.systems import (
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
    RefOracle,
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
from conftest import EnumerableDivision, corners

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
    for x in (F(0), F(1), F(-7, 3)):
        for err in (F(0), 0, F(-1, 2), F(-1, 10**30), -3):
            with pytest.raises(DomainError):
                cos_taylor(x, err)


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
    center = (F(1), F(3))
    pts = _sample_ball(center, 2, 12, "0", None)
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
    pts = _sample_ball((F(0), F(0)), 0, 20, "0", lambda p: p[1] > 0)
    assert len(pts) > 0
    for p in pts:
        assert p[1] > 0


def test_sample_ball_frozen():
    one = _sample_ball((F(1, 3),), 4, 7, "5", None)
    assert [str(c) for (c,) in one] == [
        "1/3", "37/75", "13/75", "3010223/6291456", "8388503/15728640",
        "12759617/25165824", "33561983/251658240",
    ]
    # the center itself lies outside the domain
    two = _sample_ball((F(1), F(0)), 3, 8, "7", division_oracle().domain_test)
    assert [tuple(map(str, p)) for p in two] == [
        ("19/16", "3/16"), ("19/16", "-3/16"), ("13/16", "3/16"), ("13/16", "-3/16"),
        ("54380867/67108864", "-13240415/67108864"), ("50331965/67108864", "-8387703/33554432"),
        ("69351851/67108864", "-14866947/67108864"), ("20971211/16777216", "-8386885/33554432"),
    ]


def test_sample_ball_takes_its_first_points_from_the_specials_without_drawing(monkeypatch):
    digests = []
    monkeypatch.setattr(verify, "blake2b", lambda *args, **kwargs: digests.append(args))
    edge = F(1, 5) - F(1, 25)  # at m = 4
    # the second center lies outside division's domain, its corners do not
    for center, test in (((F(1, 3), F(-2, 7)), None), ((F(1), F(0)), division_oracle().domain_test)):
        corners = [(center[0] + s1 * edge, center[1] + s2 * edge) for s1 in (1, -1) for s2 in (1, -1)]
        specials = corners if test else [center, *corners]
        for count in range(1, len(specials) + 1):
            assert _sample_ball(center, 4, count, "3", test) == specials[:count]
    assert digests == []


def test_sample_ball_deterministic():
    a = _sample_ball((F(1),), 4, 9, "11", None)
    b = _sample_ball((F(1),), 4, 9, "11", None)
    assert a == b
    assert a[3:] != _sample_ball((F(1),), 4, 9, "12", None)[3:]


def test_sample_ball_in_many_dimensions():
    # 16 axes per digest: the 17th to 20th axes come from a second one
    center = tuple(F(k, 7) for k in range(20))
    pts = _sample_ball(center, 0, 6, "0", None)
    assert len(set(pts)) == 6
    for p in pts[1:]:
        assert all(abs(x - c) < 1 for x, c in zip(p, center))
        assert len({x - c for x, c in zip(p, center)}) == 20


@pytest.mark.parametrize("center", [(F(1, 3),), (F(1, 3), F(-2, 7)), (F(1),) * 4],
                         ids=["dim1", "dim2", "dim4"])
@pytest.mark.parametrize("m", [0, 4])
def test_ball_samples_do_not_depend_on_earlier_members(center, m):
    # a later ball's points are the same whichever earlier members are
    # audited (or dropped) before it: samples are keyed by member
    dim = len(center)
    oracle, asked = _counting(RefOracle(lambda xi, eps: F(0), lambda xi: True,
                                        exact=True, name="zero", dim=dim))
    members = [Quadruple(tuple(c + k for c in center), m, F(0), 0) for k in range(4)]

    def last_ball(quads):
        asked.clear()
        v = verify_condition1(_Listed(*quads, dim=dim), oracle, len(quads), 10, seed=3)
        assert v.outcome is Outcome.PASS and v.proved == 0
        return asked[-10:]

    later = last_ball(members)
    assert len(set(later)) == len(later) == 10
    for dropped in range(3):
        assert last_ball(members[:dropped] + members[dropped + 1:]) == later
    assert last_ball(members[3:]) == later


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
        '"outcome": "counter_example", "samples": 3, "seed": 0, "witness": '
        '{"bound": "1", "distance": "1525061/27", "oracle_value": "1525061/27", '
        '"quad": {"a": ["0", "1"], "b": "0", "m": 0, "n": 0}, '
        '"xi": ["16775671/16777216", "297/16777216"]}}'
    )


def test_condition1_refutes_distance_equal_to_bound():
    # (0, 0, 1, 0) promises |x^2 - 1| < 1 near 0, and x = 0 is at distance 1
    target = Quadruple((F(0),), 0, F(1), 0)
    edge = DecidableSystem(lambda q: q == target, 1, name="square-edge")
    v = verify_condition1(edge, squaring_oracle(), quad_samples=1)
    assert v.outcome is Outcome.COUNTER_EXAMPLE and v.proved == 0  # 0 is reached inside
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


# --- enclosures, proved balls and margin refinement ---------------------------------

def _plain(oracle):
    """The same oracle without an enclosure: every ball is sampled."""
    return RefOracle(oracle.eval, oracle.domain_test, oracle.exact, oracle.name, oracle.dim)


def _interior(t):
    return -1 < t < 1


_UNIT = st.fractions(min_value=-1, max_value=1, max_denominator=10**4).filter(_interior)
_CENTER = st.fractions(min_value=-8, max_value=8, max_denominator=50)


def _end(pair):
    return F(*pair)


@settings(max_examples=150, deadline=None)
@given(_CENTER, _CENTER, st.integers(min_value=0, max_value=30), _UNIT, _UNIT)
@example(F(1), F(1, 3), 2, F(0), F(1, 2))  # the closed x2-side ends at 0
@example(F(-2, 3), F(-3, 2), 1, F(1, 2), F(-1, 3))
@example(F(1, 4), F(5), 0, F(-1, 2), F(1, 2))  # x1-side holds 0
def test_division_enclosure_holds_on_the_open_box(a1, a2, m, t1, t2):
    box = division_oracle().enclose((a1, a2), m, F(0))
    r = F(1, m + 1)
    corners = [(a1 + s1 * r) / (a2 + s2 * r) for s1 in (1, -1) for s2 in (1, -1)
               if a2 + s2 * r != 0]
    if abs(a2) <= r:  # the closed x2-side holds 0
        assert box is None
        return
    assert (_end(box.lo), _end(box.hi)) == (min(corners), max(corners))
    assert box.lo_open and box.hi_open
    x = (a1 + t1 * r) / (a2 + t2 * r)  # a point of the open box
    assert _end(box.lo) < x < _end(box.hi)


@settings(max_examples=150, deadline=None)
@given(_CENTER, st.integers(min_value=0, max_value=30), _UNIT)
@example(F(1, 3), 2, F(-1, 2))  # the closed interval ends at 0
@example(F(0), 0, F(0))  # 0 is reached inside, at the center
def test_square_enclosure_holds_on_the_open_interval(a, m, t):
    box = squaring_oracle().enclose((a,), m, F(0))
    r = F(1, m + 1)
    ends = [(a - r) ** 2, (a + r) ** 2]
    holds_zero = a - r < 0 < a + r
    assert (_end(box.lo), _end(box.hi)) == (0 if holds_zero else min(ends), max(ends))
    assert box.lo_open is not holds_zero and box.hi_open
    x = (a + t * r) ** 2  # a point of the open interval
    assert _end(box.lo) <= x < _end(box.hi)
    assert x > _end(box.lo) or not box.lo_open
    if holds_zero:  # 0 is reached inside, at x = 0
        assert _interior(-a / r)


@pytest.mark.parametrize("system, oracle", [
    (division_system, division_oracle),
    (maximal_division_system, division_oracle),
    (squaring_system, squaring_oracle),
], ids=["division", "maximal-division", "square"])
def test_proved_members_pass_the_grid_check(system, oracle):
    members = system().members_prefix(100)
    for q in members:
        v = verify_condition1(_Listed(q, dim=len(q.a)), oracle(), 1, 10)
        assert v.outcome is Outcome.PASS and v.proved == 1 and v.samples == 10, q
        assert brute_force_condition1_check(q.a, q.m, q.b, q.n, oracle(), grid=6), q


def test_corner_touching_the_bound_is_proved():
    # x1/x2 over the box [-1/2, 1/2] x [1/2, 3/2] reaches -1 and 1 at two
    # corners only, so |0 - x1/x2| < 1 holds on the open box
    q = Quadruple((F(0), F(1)), 1, F(0), 0)
    assert maximal_division_system().decide(q)
    box = division_oracle().enclose(q.a, q.m, F(0))
    assert (_end(box.lo), _end(box.hi)) == (-1, 1)
    oracle, asked = _counting(division_oracle())
    v = verify_condition1(_Listed(q, dim=2), oracle, 1, 10)
    assert v.outcome is Outcome.PASS and v.proved == 1 and asked == []


class _Touching(RefOracle):
    """The constant 0, whose enclosure [-1 + eps, 1 - eps] claims both ends
    are reached only on the boundary."""

    def enclose(self, a, m, eps):
        en, ed = eps.as_integer_ratio()
        return verify.Enclosure((en - ed, ed), (ed - en, ed), True, True)


@pytest.mark.parametrize("exact, proved", [(True, True), (False, False)])
def test_open_ends_may_touch_the_bound_only_for_an_exact_oracle(exact, proved):
    # at (0, 0, 0, 0) an exact oracle's enclosure [-1, 1] touches the bound 1
    # at ends it never reaches; an inexact one, asked at eps = 1/10^4, needs room eps
    oracle = _Touching(lambda xi, eps: F(0), lambda xi: True, exact=exact, name="zero", dim=1)
    v = verify_condition1(_Listed(Quadruple((F(0),), 0, F(0), 0)), oracle, 1, 3)
    assert v.outcome is Outcome.PASS and v.proved == proved


def test_division_and_square_prove_every_default_member():
    for system, oracle in ((division_system(), division_oracle()),
                           (maximal_division_system(), division_oracle()),
                           (squaring_system(), squaring_oracle())):
        v = verify_condition1(system, oracle)
        assert (v.outcome, v.proved, v.samples) == (Outcome.PASS, 1000, 10000), system.name
        assert v.to_json() == verify_condition1(system, _plain(oracle)).to_json()


def _oracle_proves(oracle, q):
    """Whether the exact oracle's enclosure of q's ball lies in
    [b - 1/(n+1), b + 1/(n+1)], touching it only at ends reached on the
    boundary alone: q is sound by the oracle's own proof."""
    box = oracle.enclose(q.a, q.m, F(0))
    pb, qb = q.b.as_integer_ratio()
    return box is not None and verify._proves(box, pb, qb, q.n + 1, 0, 1)


@pytest.mark.parametrize("system, oracle", [
    (maximal_division_system, division_oracle),
    (squaring_system, squaring_oracle),
], ids=["maximal-division", "square"])
def test_maximal_systems_accept_exactly_the_balls_their_oracle_proves(system, oracle):
    # maximal division and square are the largest sound systems for their
    # functions: a quadruple is a member iff the exact range proves it
    system, oracle = system(), oracle()
    for k in range(2 * 10**4):
        q = decode_quadruple(k, system.dim_in)
        assert system.decide(q) == _oracle_proves(oracle, q), q


_EDGE_PRECISION = st.integers(min_value=0, max_value=60)


def _one_from_an_end(draw, ends, n):
    """A b exactly 1/(n+1) below or above the least or the greatest end."""
    return draw(st.sampled_from((min(ends), max(ends)))) + draw(st.sampled_from((1, -1))) * F(1, n + 1)


@st.composite
def _quotient_edge_quads(draw):
    """Maximal-division quadruples, often on the edges of its test: a2 of
    either sign with (m+1)|a2| = 1, and b exactly 1/(n+1) from an end of
    the range."""
    m, n = draw(_EDGE_PRECISION), draw(_EDGE_PRECISION)
    a1 = draw(_CENTER)
    a2 = draw(st.one_of(_CENTER, st.sampled_from((1, -1)).map(lambda s: F(s, m + 1))))
    b = draw(_CENTER)
    if (m + 1) * abs(a2) > 1 and draw(st.booleans()):
        b = _one_from_an_end(draw, corners((a1, a2), m), n)
    return Quadruple((a1, a2), m, b, n)


@st.composite
def _square_edge_quads(draw):
    """Square quadruples, often on the edges of its test: |a| = 1/(m+1),
    where the closed interval ends at 0, and b exactly 1/(n+1) from an end
    of the range, which is 0 when the interval holds 0 strictly."""
    m, n = draw(_EDGE_PRECISION), draw(_EDGE_PRECISION)
    r = F(1, m + 1)
    a = draw(st.one_of(_CENTER, st.sampled_from((r, -r))))
    b = draw(_CENTER)
    if draw(st.booleans()):
        b = _one_from_an_end(draw, [(a - r) ** 2, (a + r) ** 2] + [F(0)] * (abs(a) < r), n)
    return Quadruple((a,), m, b, n)


@settings(max_examples=300, deadline=None)
@given(_quotient_edge_quads())
@example(Quadruple((F(0), F(1)), 1, F(0), 0))  # both ends touch the bound
@example(Quadruple((F(1), F(-1, 3)), 2, F(-3), 0))  # the closed x2-side ends at 0
def test_maximal_division_accepts_exactly_the_edge_balls_its_oracle_proves(q):
    assert maximal_division_system().decide(q) == _oracle_proves(division_oracle(), q)


@settings(max_examples=300, deadline=None)
@given(_square_edge_quads())
@example(Quadruple((F(0),), 0, F(1, 2), 1))  # 0, reached inside, touches b - 1/2
@example(Quadruple((F(1, 2),), 1, F(1, 2), 1))  # [0, 1] touches b +- 1/2 at its ends
def test_square_accepts_exactly_the_edge_balls_its_oracle_proves(q):
    assert squaring_system().decide(q) == _oracle_proves(squaring_oracle(), q)


_BALL_CENTER = st.fractions(min_value=-30, max_value=30, max_denominator=10**6)
_CLOSED_UNIT = st.fractions(min_value=-1, max_value=1, max_denominator=10**6)


@settings(max_examples=150, deadline=None)
@given(_BALL_CENTER, st.integers(min_value=0, max_value=50), _CLOSED_UNIT,
       st.integers(min_value=1, max_value=10**12))
@example(F(1, 4), 0, F(-1), 10)  # the ball holds 0
@example(F(3), 0, F(1, 7), 10)  # the ball holds pi
@example(F(-6), 0, F(1), 10**4)  # the ball holds -2 pi
def test_cosine_enclosure_holds_on_the_ball(a, m, t, ed):
    # cos_taylor at eps and cos to 300 bits lie inside the enclosure at
    # every point of the closed ball; the truth even has room eps to spare
    eps = F(1, ed)
    box = cosine_oracle().enclose((a,), m, eps)
    lo, hi = _end(box.lo), _end(box.hi)
    assert not box.lo_open and not box.hi_open
    x = a + t * F(1, m + 1)
    assert lo <= cos_taylor(x, eps) <= hi
    with mpmath.workprec(300):
        def mp(y):
            return mpmath.mpf(y.numerator) / y.denominator

        assert mp(lo + eps) <= mpmath.cos(mp(x)) <= mp(hi - eps)


_EXTREMES_EPS = F(1, 10**6)


@pytest.mark.parametrize("a, m, lo, hi", [
    # [-3/4, 5/4] holds 0 and no other multiple: cos(5/4) is the least value
    (F(1, 4), 0, cos_taylor(F(5, 4), _EXTREMES_EPS), 1),
    (F(3), 0, -1, None),  # [2, 4] holds pi
    (F(6), 0, None, 1),  # [5, 7] holds 2 pi
    (F(-3), 0, -1, None),  # cos is even: [-4, -2] holds -pi
    (F(333, 106) - F(1, 2), 1, None, None),  # ends at 333/106, just short of pi
    (F(355, 113) - F(1, 2), 1, -1, None),  # ends at 355/113, just past pi
])
def test_cosine_enclosure_reaches_the_extremes_at_multiples_of_pi(a, m, lo, hi):
    # an end not reached at a multiple of pi is an end value of the interval,
    # each within eps of cos there, widened by 2 eps
    eps = _EXTREMES_EPS
    box = cosine_oracle().enclose((a,), m, eps)
    r = F(1, m + 1)
    ends = [cos_taylor(abs(a) - r, eps), cos_taylor(abs(a) + r, eps)]
    assert _end(box.lo) == (min(ends) if lo is None else lo) - 2 * eps
    assert _end(box.hi) == (max(ends) if hi is None else hi) + 2 * eps


@pytest.mark.parametrize("a", [F(10**40, 7), F(-10**40, 7), F(10**60, 7), F(-10**60, 7)])
def test_cosine_enclosure_is_both_extremes_where_pi_bounds_cannot_part_the_multiples(a, monkeypatch):
    # at |a| near 10^40 the 128-bit pi bounds leave an even and an odd
    # multiple of pi possible inside the ball: the range is [-1, 1] widened
    # by 2 eps, and no end value is summed
    def no_sum(*args):
        raise AssertionError("no Taylor sum is needed")

    monkeypatch.setattr(verify, "_cos_sum", no_sum)
    box = cosine_oracle().enclose((a,), 0, F(1, 10**4))
    assert box == verify.Enclosure((-10002, 10000), (10002, 10000), False, False)


def test_pi_bounds_bracket_pi():
    lo, hi = verify._PI_LO, verify._PI_HI
    assert 0 < hi - lo < 64
    with mpmath.workprec(400):
        pi = mpmath.pi * 2 ** verify._PI_BITS
        assert lo < pi < hi
    assert (lo, hi) == verify._pi_bounds(verify._PI_BITS)


@pytest.mark.parametrize("bits", [8, 16, 64, 128, 256, 512])
def test_pi_bounds_bracket_pi_at_every_precision(bits):
    lo, hi = verify._pi_bounds(bits)
    assert 0 < hi - lo <= 16
    with mpmath.workprec(bits + 128):
        assert lo < mpmath.pi * 2 ** bits < hi


def _counting(oracle):
    calls = []

    def counting_eval(xi, eps):
        calls.append(xi)
        return oracle.eval(xi, eps)

    return dataclasses.replace(oracle, eval=counting_eval), calls


def _shifted_cosine(q: Quadruple) -> bool:
    # (a, m, b + 1/(n+1), n) for each cosine member (a, m, b, n): unsound
    return cosine_system().decide(q._replace(b=q.b - F(1, q.n + 1)))


_CERTIFICATE_CASES = [
    pytest.param(None, seed, xi, quads, id=f"cosine-{seed}-{xi}-{quads}")
    for seed in range(4) for xi in (1, 2, 3, 4, 10) for quads in (50, 300)
] + [
    pytest.param(predicate, seed, 10, 300, id=f"{predicate.__name__}-{seed}")
    for predicate in (_mutant_cosine_accept_without_halfterm, _shifted_cosine)
    for seed in range(4)
]


_REFINED_NOTE = re.compile(r", \d+ samples refined out of the oracle margin band")


@pytest.mark.parametrize("predicate, seed, xi, quads", _CERTIFICATE_CASES)
def test_cosine_ball_proof_keeps_every_verdict(predicate, seed, xi, quads):
    # a ball proved at eps/1000 is one where every sample passes, at the
    # latest after one re-query: only the count of refined samples may drop
    system = cosine_system() if predicate is None else DecidableSystem(predicate, 1, name="cosine-lax")
    proved, calls = _counting(cosine_oracle())
    sampled, sampled_calls = _counting(_plain(cosine_oracle()))
    v = verify_condition1(system, proved, quads, xi, seed)
    w = verify_condition1(system, sampled, quads, xi, seed)
    assert (v.outcome, v.samples, v.seed, v.witness) == (w.outcome, w.samples, w.seed, w.witness)
    assert _REFINED_NOTE.sub("", v.diagnostics) == _REFINED_NOTE.sub("", w.diagnostics)
    if predicate is not None:
        assert v.outcome is Outcome.COUNTER_EXAMPLE
    assert len(calls) <= len(sampled_calls)


def test_default_cosine_audit_proves_every_ball_without_an_oracle_call():
    base, asked = cosine_oracle(), []

    class Recording(type(base)):
        def enclose(self, a, m, eps):
            asked.append(eps)
            return super().enclose(a, m, eps)

    oracle, calls = _counting(Recording(base.eval, base.domain_test, base.exact, base.name, base.dim))
    v = verify_condition1(cosine_system(), oracle)
    assert (v.outcome, v.proved, v.samples) == (Outcome.PASS, 1000, 10000)
    assert v.diagnostics == "checked 1000 quadruples"
    assert calls == []
    # each ball is proved at eps/1000 = 1/(10^4 (n+1)^2) of its own n
    quads = cosine_system().members_prefix(1000)
    assert len({q.n for q in quads}) > 1
    assert asked == [F(1, 10**4 * (q.n + 1) ** 2) for q in quads]


class _Listed:
    """A stand-in system whose enumeration prefix is the given quadruples."""

    name = "listed"

    def __init__(self, *quads, dim=1):
        self.quads = list(quads)
        self.dim_in = dim

    def members_prefix(self, count, scan_cap=None):
        return self.quads[:count]


@pytest.mark.parametrize("b, proved", [
    (F(3, 10**4) + F(1, 10**12), True),
    (F(3, 10**4), False),
])
def test_cosine_ball_proof_needs_three_eps_over_1000_to_spare(b, proved):
    # For (a, m, n) = (1/4, 0, 0), eps = 1/10, and the proof is made at
    # eps' = 1/10^4.  The ball [-3/4, 5/4] holds 0, so the enclosure's upper
    # end is 1 + 2 eps', and it lies below b + 1 - eps' exactly for
    # b > 3 eps'; its lower end, near cos(5/4) = 0.315, is far inside.
    oracle, asked = _counting(cosine_oracle())
    v = verify_condition1(_Listed(Quadruple((F(1, 4),), 0, b, 0)), oracle, 1, 10)
    assert v.outcome is Outcome.PASS and v.samples == 10
    assert v.proved == proved
    # a sampled ball asks at each of its 10 points, some of them twice to refine
    assert len(set(asked)) == (0 if proved else 10)


def _inexact_constant(value, error):
    """An oracle for the constant function `value`, off by `error` * eps."""
    return RefOracle(lambda xi, eps: value + error * eps, lambda xi: True,
                     exact=False, name="constant", dim=1)


@pytest.mark.parametrize("value, error, outcome, calls", [
    (F(-1, 20), F(9, 10), Outcome.COUNTER_EXAMPLE, 2),  # distance 0.96, then 1.04991
    (F(1, 20), F(-9, 10), Outcome.PASS, 2),  # distance 1.04, then 0.95009
    (F(0), F(0), Outcome.INCONCLUSIVE, 4),  # exactly on the bound at every eps
    (F(1, 2), F(0), Outcome.PASS, 1),  # distance 1/2, below the band at once
])
def test_condition1_refines_margin_straddles(value, error, outcome, calls):
    # (0, 0, 1, 0) promises |f(x) - 1| < 1 on (-1, 1); eps = 1/10 at n = 0,
    # so the margin band is [9/10, 11/10) before any refinement
    oracle, asked = _counting(_inexact_constant(value, error))
    v = verify_condition1(_Listed(Quadruple((F(0),), 0, F(1), 0)), oracle, 1, 1)
    assert v.outcome is outcome and v.samples == 1
    assert len(asked) == calls
    if outcome is Outcome.COUNTER_EXAMPLE:
        assert F(v.witness["distance"]) >= 1 + F(1, 10**4)
    if outcome is Outcome.PASS:
        note = ", 1 samples refined out of the oracle margin band" if calls > 1 else ""
        assert v.diagnostics == "checked 1 quadruples" + note


def _mutant_open_interval_maximal(q: Quadruple) -> bool:
    a1, a2 = q.a
    if (q.m + 1) * abs(a2) <= 1:
        return False
    v = F(1, q.n + 1)
    lo, hi = q.b - v, q.b + v
    for c in corners(q.a, q.m):
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


def test_condition2_coerces_the_point_and_asks_the_oracle_at_it_once():
    # integer coordinates used to divide as floats, so no candidate was a member
    for xi in ((1, 3), ("1", "3"), (F(1), F(3))):
        oracle, asked = _counting(division_oracle())
        v = verify_condition2(division_system(), oracle, xi, 4)
        assert (v.outcome, v.samples) == (Outcome.PASS, 8)
        assert v.diagnostics == "m=2 serves all sampled points"
        # once at xi, and at each sampled a but the center of each ball, xi itself
        assert asked.count((F(1), F(3))) == 1 and len(asked) == 6


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


def test_condition2_scans_no_enumeration():
    # candidates are the witness and the oracle values; before, a 2,000-code
    # enumeration scan ran first and never contributed one
    division = division_system.__wrapped__()
    calls = []
    scan = division.enumerate

    def counting(k):
        calls.append(k)
        return scan(k)

    division.enumerate = counting
    v = verify_condition2(division, division_oracle(), (F(1), F(3)), 4)
    assert v.outcome is Outcome.PASS and calls == []


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


def test_brute_force_skips_points_outside_the_domain():
    # grid 1 is the center alone, and x2 = 0 there: nothing is checked, and
    # the oracle, which raises on division by zero, is never asked
    assert brute_force_condition1_check((F(1), F(0)), 0, F(0), 0, division_oracle(), grid=1)
    # grid 3 meets x2 = 0 (skipped) before (1, -2/3) refutes b = 0
    assert not brute_force_condition1_check((F(1), F(0)), 0, F(0), 0, division_oracle(), grid=3)


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


def test_containment_counterexample_carries_the_quadruple_record():
    v = verify_containment(maximal_division_system(), division_system(), count=300)
    missing = maximal_division_system().members_prefix(v.samples)[-1]
    assert v.witness == {"quad": missing.to_json_dict()}


def test_containment_against_enumerable_sup():
    sub = division_system()
    tight = verify_containment(sub, EnumerableDivision(), count=1, budget=3)
    assert tight.outcome is Outcome.INCONCLUSIVE
    roomy = verify_containment(sub, EnumerableDivision(), count=1, budget=4096)
    assert roomy.outcome is Outcome.PASS


class _DecidingDivision(EnumerableDivision):
    """A generic system that sets decide: membership answers from it."""

    name = "division-deciding"

    def __init__(self):
        super().__init__()
        self.decide = division_system().decide


def test_generic_membership_answers_from_decide_at_any_budget():
    sup = _DecidingDivision()
    far = division_system().members_prefix(300)[-1]
    assert sup.membership(far, 0) is Membership.YES  # no code scanned
    v = verify_containment(maximal_division_system(), sup, 100)
    assert v.outcome is Outcome.COUNTER_EXAMPLE
    assert v.diagnostics == "member #20 of maximal-division not accepted by division-deciding"


def test_condition2_on_an_enumerable_only_system_has_no_witness():
    system = EnumerableDivision()
    assert system.witness is None
    v = verify_condition2(system, division_oracle(), (F(1), F(3)), 4,
                          m_cap=2, a_samples=1, budget=50)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.diagnostics == "no m <= 2 served every sample within the budget"


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
    with pytest.raises(DimensionError,
                       match="^system counting-2 has dimension 2, oracle square has dimension 1$"):
        verify_condition1(counting, squaring_oracle(), quad_samples=20)
    assert calls == []


def test_condition2_rejects_mismatched_dimensions():
    with pytest.raises(DimensionError,
                       match="^system division has dimension 2, oracle square has dimension 1$"):
        verify_condition2(division_system(), squaring_oracle(), (F(1), F(3)), 4)
    with pytest.raises(DimensionError,
                       match="^point xi has dimension 1, system division has dimension 2$"):
        verify_condition2(division_system(), division_oracle(), (F(1),), 4)


def test_brute_force_rejects_point_of_other_dimension():
    with pytest.raises(DimensionError,
                       match="^point a has dimension 1, oracle division has dimension 2$"):
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
    with pytest.raises(DimensionError,
                       match="^system counting-1 has dimension 1, system division has dimension 2$"):
        verify_containment(counting, division_system(), count=20)
    assert calls == []


# --- argument checks ---------------------------------------------------------------------

def _below(least, **args):
    """The message of errors.at_least for the first argument below `least`."""
    name, value = next((k, v) for k, v in args.items() if v < least)
    return f"^{name} must be at least {least}, got {value}$"


@pytest.mark.parametrize("kwargs", [
    {"quad_samples": 0},  # unchecked, a pass on 0 samples
    {"xi_samples": 0},  # unchecked, a pass on 0 samples
    {"quad_samples": -3},
])
def test_condition1_rejects_empty_sample_counts(kwargs):
    counting, calls = _counting_system(2)
    with pytest.raises(DomainError, match=_below(1, **kwargs)):
        verify_condition1(counting, division_oracle(), **kwargs)
    assert calls == []


@pytest.mark.parametrize("n, a_samples", [
    (-2, 6),  # unchecked, "m=0 serves all sampled points"
    (-1, 6),  # unchecked, ZeroDivisionError
    (4, 0),  # unchecked, a pass on 0 samples
])
def test_condition2_rejects_meaningless_arguments(n, a_samples):
    counting, calls = _counting_system(2)
    message = _below(0, n=n) if n < 0 else _below(1, a_samples=a_samples)
    with pytest.raises(DomainError, match=message):
        verify_condition2(counting, division_oracle(), (F(1), F(3)), n, a_samples=a_samples)
    assert calls == []


@pytest.mark.parametrize("m, n, grid", [
    (9, -2, 10),  # unchecked, a violation
    (9, -1, 10),  # unchecked, ZeroDivisionError
    (-2, 2, 10),  # unchecked, a pass
    (-1, 2, 10),  # unchecked, ZeroDivisionError
    (9, 2, 0),  # unchecked, a vacuous pass
])
def test_brute_force_rejects_meaningless_arguments(m, n, grid):
    asked = []
    div = division_oracle()

    def counting_eval(xi, eps):
        asked.append(xi)
        return div.eval(xi, eps)

    oracle = RefOracle(counting_eval, div.domain_test, div.exact, div.name, div.dim)
    message = _below(0, m=m, n=n) if min(m, n) < 0 else _below(1, grid=grid)
    with pytest.raises(DomainError, match=message):
        brute_force_condition1_check((F(1), F(3)), m, F(1, 3), n, oracle, grid=grid)
    assert asked == []


def test_condition1_rejects_negative_scan_cap():
    counting, calls = _counting_system(2)
    # unchecked, a pass on 0 quadruples
    with pytest.raises(DomainError, match=_below(0, scan_cap=-1)):
        verify_condition1(counting, division_oracle(), scan_cap=-1)
    assert calls == []


@pytest.mark.parametrize("kwargs", [
    {"m_cap": -1},  # unchecked, inconclusive on 0 samples
    {"budget": -1},  # unchecked, a pass
])
def test_condition2_rejects_negative_cap_or_budget(kwargs):
    counting, calls = _counting_system(2)
    with pytest.raises(DomainError, match=_below(0, **kwargs)):
        verify_condition2(counting, division_oracle(), (F(1), F(3)), 4, **kwargs)
    assert calls == []


@pytest.mark.parametrize("kwargs", [
    {"count": 0},  # unchecked, a pass on 0 samples
    {"count": -5},  # unchecked, a pass on 0 samples
    {"budget": -3},  # unchecked, a pass
    {"scan_cap": -1},  # unchecked, a pass on 0 samples
])
def test_containment_rejects_meaningless_arguments(kwargs):
    counting, calls = _counting_system(2)
    least = 1 if "count" in kwargs else 0
    with pytest.raises(DomainError, match=_below(least, **kwargs)):
        verify_containment(counting, division_system(), **{"count": 20, **kwargs})
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
