import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from approxsys.core import ApproxSystem, DecidableSystem, Membership, Quadruple, encode_quadruple
from approxsys.errors import DimensionError, DomainError, SearchTimeout
from approxsys.evaluate import (
    EvalResult,
    NameOperator,
    OracleMiss,
    OutOfBudget,
    Value,
    apply,
    default_budget_schedule,
    eval_name,
    make_budget_schedule,
    operator_from_system,
    system_from_operator,
)
from approxsys.names import OrdinaryName, check_name_consistency, dyadic_name, name_of_point
from approxsys.numerics import cantor_join, dist, encode_tuple
from approxsys.systems import (
    cosine_system,
    division_system,
    maximal_division_system,
    sigma_k,
    squaring_system,
)
from approxsys.verify import cos_taylor

# --- search plumbing ---------------------------------------------------------

def test_budget_schedules():
    assert default_budget_schedule(0) == 10_000
    assert default_budget_schedule(3) == 80_000
    assert make_budget_schedule(7)(0) == 7
    assert make_budget_schedule(7)(5) == 224


# --- apply on the built-ins -----------------------------------------------------

def test_division_witness_path_frozen():
    res = apply(division_system(), name_of_point((F(1), F(3))), 999, 10**5)
    assert res == EvalResult(F(1, 3), 999, 1)


def test_cosine_witness_path_frozen():
    res = apply(cosine_system(), name_of_point((F(1),)), 999, 10**5)
    assert res == EvalResult(F(553, 1024), 999, 1)
    # certified at l = 1999, k = 4: within g - e_4 of sigma_4, g = 1/1000 - 1/2000
    assert abs(res.value - sigma_k(F(1), 4)) < F(1, 2000) - F(1, 80640)

    at_zero = apply(cosine_system(), name_of_point((F(0),)), 9, 10**5)
    assert at_zero.value == F(1) and at_zero.search_steps == 1


def test_apply_checks_dimension():
    with pytest.raises(DimensionError):
        apply(division_system(), name_of_point((F(1),)), 0, 100)


class _NoReads(ApproxSystem):
    """A one-dimensional system whose name must never be read."""

    dim_in = 1
    name = "no-reads"


def _unreadable_name():
    def fun(i):
        raise AssertionError(f"name read at index {i}")

    return OrdinaryName(fun, dim=1)


@pytest.mark.parametrize("n, budget", [(-1, 10), (0, -1), (-3, -3)])
def test_apply_rejects_negative_index_or_budget_before_reading(n, budget):
    # before: IndexError from the name (n < 0), or a search of -1 steps
    with pytest.raises(DomainError):
        apply(_NoReads(), _unreadable_name(), n, budget)
    with pytest.raises(DomainError):
        apply(division_system(), name_of_point((F(1), F(2))), n, budget)


def test_apply_budget_zero():
    with pytest.raises(SearchTimeout) as info:
        apply(division_system(), name_of_point((F(1), F(2))), 0, 0)
    assert info.value.budget == 0


def test_timeout_when_no_member_exists():
    f = name_of_point((F(1), F(0)))  # division by zero: no certifiable quad
    with pytest.raises(SearchTimeout) as info:
        apply(division_system(), f, 0, 10_000)
    assert info.value.budget == 10_000
    assert "10000" in str(info.value)


def test_division_random_points_inside_tolerance():
    rng = random.Random(1)
    for _ in range(100):
        x1 = F(rng.randint(-32, 32), rng.randint(1, 4))
        x2 = F(rng.choice([-1, 1]) * rng.randint(1, 32), rng.randint(1, 4))
        f = name_of_point((x1, x2))
        for n in (0, 9, 99):
            res = apply(division_system(), f, n, 10**5)
            assert abs(res.value - x1 / x2) < F(1, n + 1)
            assert res.precision_index == n


def test_apply_deterministic_and_budget_monotone():
    sq = squaring_system()
    f = name_of_point((F(3, 2),))
    first = apply(sq, f, 9, 10**6)
    assert abs(first.value - F(9, 4)) < F(1, 10)
    assert apply(sq, f, 9, 10**6) == first
    # exactly enough budget reproduces the result; one probe less fails
    assert apply(sq, f, 9, first.search_steps) == first
    with pytest.raises(SearchTimeout):
        apply(sq, f, 9, first.search_steps - 1)


class _EnumerableDivision(ApproxSystem):
    """Division members, but only reachable through the enumeration."""

    dim_in = 2
    name = "division-enumerable"

    def enumerate(self, k):
        return division_system().enumerate(k)


def test_dovetail_on_enumerable_system():
    # no witness, no decide: the dovetail must certify (0/1 -> 0) on its
    # own, scanning (l, j, s) codes; the hit sits at code 43, so 44 probes
    sys = _EnumerableDivision()
    res = apply(sys, name_of_point((F(0), F(1))), 0, 10**4)
    assert res == EvalResult(F(0), 0, 44)
    assert apply(sys, name_of_point((F(0), F(1))), 0, 44) == res
    with pytest.raises(SearchTimeout):
        apply(sys, name_of_point((F(0), F(1))), 0, 43)


# --- eval_name -----------------------------------------------------------------

def test_eval_name_output_contract():
    g = eval_name(division_system(), dyadic_name((F(1), F(3))))
    for i in (0, 3, 17, 50):
        (v,) = g.approx(i)
        assert abs(v - F(1, 3)) < F(1, i + 1)
    assert check_name_consistency(g, 50) is None


def test_eval_name_respects_budget_schedule():
    # index 0 of division at (0, 1) needs two probes; the schedule allows one
    point = name_of_point((F(0), F(1)))
    assert apply(division_system(), point, 0, 10).search_steps == 2
    g = eval_name(division_system(), point, make_budget_schedule(1))
    with pytest.raises(SearchTimeout):
        g.approx(0)
    assert eval_name(division_system(), point, make_budget_schedule(2)).approx(0) == (F(0),)


@pytest.mark.parametrize("x", [F(7, 4), F(-7, 4), F(2), F(-5, 2), F(13, 4), F(-4), F(4)])
@pytest.mark.parametrize("n", [0, 1, 9, 999, 10**4])
def test_square_certifies_through_witness(x, n):
    res = apply(squaring_system(), name_of_point((x,)), n, 13)
    assert abs(res.value - x * x) < F(1, n + 1)


def test_square_at_three_halves_takes_at_most_two_probes():
    res = apply(squaring_system(), name_of_point((F(3, 2),)), 999, 10**6)
    assert res.search_steps <= 2
    assert abs(res.value - F(9, 4)) < F(1, 1000)


def test_composition_of_cosines():
    inner = eval_name(cosine_system(), name_of_point((F(1),)))
    outer = eval_name(cosine_system(), inner)
    (v,) = outer.approx(99)
    assert v == F(219, 256)
    truth = cos_taylor(cos_taylor(F(1), F(1, 10**8)), F(1, 10**8))
    assert abs(v - truth) < F(1, 100) + F(2, 10**8)
    # a fresh chain recomputes the same value
    inner2 = eval_name(cosine_system(), name_of_point((F(1),)))
    (v2,) = eval_name(cosine_system(), inner2).approx(99)
    assert v2 == v


# --- adversarial names ----------------------------------------------------------

def adversarial_name(point, seed):
    """A valid name of `point` whose index i sits at a random rational strictly
    inside the 1/(i+1) ball, often near its edge.  Each index draws from its
    own generator, seeded by (seed, i): names memoize, so the value at i must
    not depend on the order of reads."""
    def fun(i):
        rng = random.Random(f"{seed}:{i}")
        out = []
        for x in point:
            d = rng.randint(1, 2**20)
            lim = -(-d // (i + 1)) - 1  # ceil(d/(i+1)) - 1 < d/(i+1)
            out.append(x + F(rng.choice((-lim, lim, rng.randint(-lim, lim))), d))
        return tuple(out)

    return OrdinaryName(fun, dim=len(point))


def test_adversarial_names_are_valid_and_read_order_free():
    point = (F(1, 3), F(-2))
    forward, backward = adversarial_name(point, 7), adversarial_name(point, 7)
    backward.approx(99)
    for i in range(100):
        assert forward.approx(i) == backward.approx(i)
        assert dist(forward.approx(i), point) < F(1, i + 1)
    assert forward.approx(99) != adversarial_name(point, 8).approx(99)


EPS = F(1, 10**30)  # cos_taylor's error; far below any certificate's margin
SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=16)
AWAY_FROM_ZERO = st.fractions(min_value=F(1, 2), max_value=4, max_denominator=16)
# system, point, the exact value or cos_taylor's, and the value's error bound
BUILT_IN_CASES = st.one_of(
    st.builds(lambda x1, x2, s, maximal: (
        maximal_division_system() if maximal else division_system(), (x1, s * x2), x1 / (s * x2), 0),
        SMALL, AWAY_FROM_ZERO, st.sampled_from((1, -1)), st.booleans()),
    st.builds(lambda x: (cosine_system(), (x,), cos_taylor(x, EPS), EPS),
              st.fractions(min_value=-6, max_value=6, max_denominator=16)),
    st.builds(lambda x: (squaring_system(), (x,), x * x, 0), SMALL),
)


@settings(max_examples=200, deadline=None)
@given(BUILT_IN_CASES, st.integers(min_value=0, max_value=300), st.integers(min_value=0))
def test_apply_on_adversarial_names(case, n, seed):
    system, point, truth, err = case
    res = apply(system, adversarial_name(point, seed), n, 10**4)
    assert abs(res.value - truth) + err < F(1, n + 1)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-6, max_value=6, max_denominator=16),
       st.booleans(), st.integers(min_value=0, max_value=300), st.integers(min_value=0))
def test_two_level_eval_name_on_adversarial_names(x, squared, n, seed):
    inner = eval_name(cosine_system(), adversarial_name((x,), seed), make_budget_schedule(10**4))
    outer_system = squaring_system() if squared else cosine_system()
    (v,) = eval_name(outer_system, inner, make_budget_schedule(10**4)).approx(n)
    c = cos_taylor(x, EPS)
    # |c^2 - cos^2 x| <= EPS (|c| + |cos x|) <= 3 EPS
    truth, err = (c * c, 3 * EPS) if squared else (cos_taylor(c, EPS), 2 * EPS)
    assert abs(v - truth) + err < F(1, n + 1)


# --- name operators ---------------------------------------------------------------

def _pt_fragment(point, length):
    f = name_of_point(point)
    return tuple(f.approx(i) for i in range(length))


def test_operator_miss_and_value():
    T = operator_from_system(division_system())
    short = _pt_fragment((F(1), F(2)), 1)
    assert T.run(short, 1, 50) == OracleMiss(1)
    full = _pt_fragment((F(1), F(2)), 4)
    assert T.run(full, 1, 50) == Value(F(1, 2))


def test_operator_memo_replays_budget_faithfully():
    T = operator_from_system(division_system())
    frag = _pt_fragment((F(1), F(2)), 4)
    assert T.run(frag, 1, 0) == OutOfBudget()
    assert T.run(frag, 1, 50) == Value(F(1, 2))
    assert T.run(frag, 1, 1) == Value(F(1, 2))  # the certificate costs 1 probe
    assert T.run(frag, 1, 0) == OutOfBudget()


def test_operator_value_persists_under_extension():
    T = operator_from_system(division_system())
    frag = _pt_fragment((F(1), F(2)), 4)
    out = T.run(frag, 1, 50)
    longer = _pt_fragment((F(1), F(2)), 7)
    assert T.run(longer, 1, 50) == out


def test_operator_accepts_list_fragments():
    T = operator_from_system(division_system())
    frag = [[F(1), F(2)]] * 4
    assert T.run(frag, 1, 50) == Value(F(1, 2))


def test_operator_system_membership_boundary():
    ext = system_from_operator(operator_from_system(division_system()), 2)
    q = Quadruple((F(1), F(2)), 7, F(1, 2), 0)
    assert ext.membership(q, 1) is Membership.NOT_YET
    assert ext.membership(q, 2) is Membership.YES
    # m = 0 allows no fragment at all (needs 2l+1 <= 0)
    assert ext.membership(Quadruple((F(1), F(2)), 0, F(1, 2), 0), 50) is Membership.NOT_YET
    # b too far from every certifiable value
    assert ext.membership(Quadruple((F(1), F(2)), 7, F(2), 0), 60) is Membership.NOT_YET


def test_operator_system_enumerate_spot():
    ext = system_from_operator(operator_from_system(division_system()), 2)
    q = Quadruple((F(1), F(2)), 7, F(1, 2), 0)
    code = encode_quadruple(q)
    assert ext.enumerate(cantor_join(code, 2)) == q
    assert ext.enumerate(cantor_join(code, 1)) is None


class _DeadOperator(NameOperator):
    def run(self, fragment, output_index, steps):
        return OutOfBudget()


def test_dead_operator_yields_empty_system():
    dead = system_from_operator(_DeadOperator(), 1)
    q = Quadruple((F(0),), 9, F(0), 0)
    assert dead.membership(q, 100) is Membership.NOT_YET
    with pytest.raises(SearchTimeout):
        apply(dead, name_of_point((F(0),)), 0, 300)


def test_extracted_division_evaluates():
    # the operator's value on the default ramp is certified by the first probe
    ext = system_from_operator(operator_from_system(division_system()), 2)
    assert ext.provides_witness
    res = apply(ext, name_of_point((F(1), F(2))), 9, 10**5)
    assert res == EvalResult(F(1, 2), 9, 1)
    for n in range(10):
        assert apply(ext, name_of_point((F(1), F(2))), n, 10**5).search_steps == 1


def test_operator_witness_is_the_ramp_value():
    ext = system_from_operator(operator_from_system(division_system()), 2)
    a = (F(1), F(3))
    assert ext.witness(a, 0, 0) is None  # m = 0 admits no fragment
    assert ext.witness(a, 1, 0) is None  # the run needs the name at index 1
    w = ext.witness(a, 7, 0)
    assert w == F(1, 3)
    assert ext.membership(Quadruple(a, 7, w, 0), 7) is Membership.YES
    with pytest.raises(DimensionError):
        ext.witness((F(1),), 7, 0)


def test_dead_operator_has_no_witness():
    dead = system_from_operator(_DeadOperator(), 1)
    assert dead.witness((F(0),), 9, 0) is None


def test_operator_system_rejects_nonpositive_dimension():
    for dim in (0, -1):
        with pytest.raises(DimensionError):
            system_from_operator(_DeadOperator(), dim)


def test_timed_out_run_replays_without_rerunning():
    # a system with no witness and an empty accept set: each probe is one decide
    calls = []

    def reject(q):
        calls.append(q)
        return False

    T = operator_from_system(DecidableSystem(reject, 1))
    frag = _pt_fragment((F(0),), 20)
    assert T.run(frag, 0, 5) == OutOfBudget()
    assert len(calls) == 5
    assert T.run(frag, 0, 5) == OutOfBudget()
    assert T.run(frag, 0, 3) == OutOfBudget()
    assert len(calls) == 5
    # more budget than the timed-out run had: a fresh run from probe 0
    assert T.run(frag, 0, 7) == OutOfBudget()
    assert len(calls) == 12


# --- candidates of extracted systems ------------------------------------------------

def test_coded_candidates_lie_strictly_inside_the_ball():
    ext = system_from_operator(_DeadOperator(), 2)
    a, k = (F(-7, 3), F(5, 2)), 3
    radius = F(1, 2 * k + 2)
    for c in range(17, 17 + 10**4 + 1):
        assert dist(ext._candidate(a, k, c), a) < radius


def test_coded_candidate_reaches_a_given_offset():
    # t = (1/3, -2/5) over q = 15 is (5, -6)/15; nums_i = 15 t_i + 14
    ext = system_from_operator(_DeadOperator(), 2)
    a, k = (F(-7, 3), F(5, 2)), 3
    want = (a[0] + F(1, 3) / 8, a[1] - F(2, 5) / 8)
    assert ext._candidate(a, k, 17 + encode_tuple((19, 8, 14))) == want


def test_dyadic_candidates_round_half_up():
    ext = system_from_operator(_DeadOperator(), 2)
    for a in [(F(-7, 3), F(5, 2)), (F(1, 3), F(-1, 2)), (F(10**4), F(3, 8))]:
        for k in (0, 1, 5):
            for c in range(17):
                scale = 1 << ((2 * k + 2).bit_length() + c)
                want = tuple(F(math.floor(x * scale + F(1, 2)), scale) for x in a)
                assert ext._candidate(a, k, c) == want
    # on the grid 1/4 (k = 0, c = 0) grid points stay and half-way points round up
    assert ext._candidate((F(5, 2), F(-1, 8)), 0, 0) == (F(5, 2), F(0))
    assert ext._candidate((F(1, 3), F(-3, 8)), 0, 0) == (F(1, 4), F(-1, 4))


def test_extracted_membership_far_from_the_origin_finishes():
    # before, the first coded candidate (budget 172) decoded points from 0
    # until enough of them landed within 1/2 of (10^4, 1), and did not return
    ext = system_from_operator(operator_from_system(division_system()), 2)
    quad = Quadruple((F(10**4), F(1)), 1, F(0), 0)
    for budget in (171, 172, 5000):
        assert ext.membership(quad, budget) is Membership.NOT_YET
