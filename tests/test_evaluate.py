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
from approxsys.names import (
    OrdinaryName,
    cauchy_to_ordinary,
    check_name_consistency,
    dyadic_name,
    name_of_point,
    ordinary_to_cauchy,
)
from approxsys.numerics import cantor_join, cantor_split, decode_tuple, dist, encode_tuple
from approxsys.systems import (
    cosine_system,
    division_system,
    maximal_division_system,
    sigma_k,
    squaring_system,
)
from approxsys.verify import brute_force_condition1_check, cos_taylor, division_oracle
from conftest import EnumerableDivision, edge_cauchy_name, edge_ordinary_name

# --- search plumbing ---------------------------------------------------------

def test_budget_schedules():
    assert default_budget_schedule(0) == 10_000
    assert default_budget_schedule(3) == 30_000
    assert make_budget_schedule(7)(0) == 7
    assert make_budget_schedule(7)(5) == 21


def test_default_budget_grows_with_the_bit_length_of_n():
    # base * (n + 1).bit_length(): one more base per doubling of n, no cap
    for n, steps in ((0, 10_000), (1, 20_000), (3, 30_000), (10**12, 400_000)):
        assert default_budget_schedule(n) == steps


# --- apply on the built-ins -----------------------------------------------------

def test_division_witness_path_frozen():
    res = apply(division_system(), name_of_point((F(1), F(3))), 999, 10**5)
    assert res == EvalResult(F(1, 3), 999, 1)


def test_cosine_witness_path_frozen():
    res = apply(cosine_system(), name_of_point((F(1),)), 999, 10**5)
    assert res == EvalResult(F(553, 1024), 999, 1)
    # certified at l = 1999, k = 4: within g - e_4 of sigma_4, g = 1/1000 - 1/2000
    assert abs(res.value - sigma_k(F(1), 4)) < F(1, 2000) - F(1, 80640)

    for n in (0, 1, 9, 99):
        assert apply(cosine_system(), name_of_point((F(0),)), n, 1) == EvalResult(F(1), n, 1)


def test_apply_checks_dimension():
    reads = []
    f = OrdinaryName(lambda i: reads.append(i) or (F(1),), dim=1)
    with pytest.raises(DimensionError,
                       match="^name has dimension 1, system division has dimension 2$"):
        apply(division_system(), f, 0, 100)
    assert reads == []


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
    with pytest.raises(DomainError) as info:
        apply(_NoReads(), _unreadable_name(), n, budget)
    name, value = ("n", n) if n < 0 else ("budget", budget)
    assert str(info.value) == f"{name} must be at least 0, got {value}"
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


def test_dovetail_on_decidable_system_without_witness():
    # no witness, so phase B alone: with decide it dovetails (l, j) pairs,
    # since membership ignores the budget s
    sys = DecidableSystem(division_system().decide, 2)
    assert sys.witness is None
    assert apply(sys, name_of_point((F(1), F(3))), 0, 10**4) == EvalResult(F(1, 3), 0, 45)
    assert apply(sys, name_of_point((F(2), F(3))), 2, 10**4) == EvalResult(F(2, 3), 2, 189)


class _WitnessingDivision(ApproxSystem):
    """Division by subclassing: decide set and witness defined, nothing else."""

    dim_in = 2
    decide = staticmethod(division_system().decide)

    def witness(self, a, m, n):
        return a[0] / a[1]


def test_subclass_that_defines_a_witness_gets_phase_a():
    res = apply(_WitnessingDivision(), name_of_point((F(1), F(3))), 99, 10**4)
    assert res == EvalResult(F(1, 3), 99, 1)


def test_dovetail_on_enumerable_system():
    # no witness, no decide: the dovetail must certify (0/1 -> 0) on its
    # own, scanning (l, j, s) codes; the hit sits at code 43, so 44 probes
    sys = EnumerableDivision()
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


def _division_without_modulus():
    return DecidableSystem(division_system().decide, 2, witness=division_system().witness)


def test_eval_name_respects_budget_schedule():
    # with no modulus, index 0 of division at (0, 1) needs two probes: the
    # witness 0 fails at input index 0 and passes at rung 1; the schedule
    # allows one
    system = _division_without_modulus()
    point = name_of_point((F(0), F(1)))
    assert apply(system, point, 0, 10).search_steps == 2
    g = eval_name(system, point, make_budget_schedule(1))
    with pytest.raises(SearchTimeout):
        g.approx(0)
    assert eval_name(system, point, make_budget_schedule(2)).approx(0) == (F(0),)
    # division's modulus names input index 1 at once
    assert apply(division_system(), point, 0, 1) == EvalResult(F(0), 0, 1)


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


# --- which inner indices an evaluation computes ---------------------------------

def _recording(name):
    """A name with the points of `name` that lists each index it computes."""
    computed = []

    def fun(i):
        computed.append(i)
        return name.approx(i)

    return OrdinaryName(fun, dim=name.dim), computed


def _recording_name(point):
    """A name of the constant `point` that lists each index it computes."""
    return _recording(name_of_point(point))


def test_modulus_names_the_first_read():
    assert ApproxSystem.modulus is None
    assert DecidableSystem(lambda q: True, 1).modulus is None
    assert maximal_division_system().modulus is None
    assert system_from_operator(operator_from_system(division_system()), 2).modulus is None
    assert [s.modulus(None, 5) for s in (division_system(), cosine_system(),
                                         squaring_system())] == [5, 11, 5]
    # division with its first read at 4n+3 reads the name at l = 4n+3 only
    late = DecidableSystem(division_system().decide, 2, witness=division_system().witness,
                           modulus=lambda a, n: 4 * n + 3)
    f, computed = _recording_name((F(1), F(3)))
    assert apply(late, f, 5, 10) == EvalResult(F(1, 3), 5, 1)
    assert computed == [23]


def test_division_reads_at_its_modulus_past_the_ladder():
    # the certificate needs m >= 10,199 at n = 0, past the ladder's last
    # rung 4,095; the modulus names it from the first point read
    f, computed = _recording_name((F(1), F(1, 100)))
    assert apply(division_system(), f, 0, 1) == EvalResult(F(100), 0, 1)
    assert computed == [0, 10_199]
    f, computed = _recording_name((F(1), F(1, 100)))
    with pytest.raises(SearchTimeout):
        apply(_division_without_modulus(), f, 0, 100)
    assert max(computed) == 4_095


def test_modulus_is_asked_again_at_the_finer_point():
    # the first point's modulus is 1; at index 1 the name moves to a point
    # whose modulus is 7, and the name is read there
    points = {0: (F(0), F(1)), 1: (F(0), F(1, 4))}
    f = OrdinaryName(lambda i: points.get(i, (F(0), F(1, 4))), dim=2)
    recorded, computed = _recording(f)
    assert apply(division_system(), recorded, 0, 1) == EvalResult(F(0), 0, 1)
    assert computed == [0, 1, 7]


def test_square_at_three_halves_calls_its_witness_once(monkeypatch):
    system = squaring_system()
    calls = []
    witness = system.witness
    monkeypatch.setattr(system, "witness", lambda a, m, n: calls.append(m) or witness(a, m, n))
    f, computed = _recording_name((F(3, 2),))
    res = apply(system, f, 999, 1)
    assert abs(res.value - F(9, 4)) < F(1, 1000) and res.search_steps == 1
    assert calls == [2_999] and computed == [999, 2_999]


@pytest.mark.parametrize("kind", ["truncation", "cauchy"])
def test_cosine_of_division_computes_two_inner_indices_per_read(kind):
    # the stream-eval point with the largest quotient, on its index ladder
    f = dyadic_name((F(-264, 35), F(11, 5)))
    if kind == "cauchy":
        f = cauchy_to_ordinary(ordinary_to_cauchy(f))
    point, computed = _recording(f)
    outer = eval_name(cosine_system(), eval_name(division_system(), point))
    for n in (1, 3, 10, 30, 100):
        before = len(computed)
        outer.approx(n)
        assert len(computed) - before <= 2


@pytest.mark.parametrize("chain, point", [
    ((cosine_system, cosine_system), (F(-24, 7),)),
    ((squaring_system, cosine_system), (F(-24, 7),)),
    ((cosine_system, division_system), (F(-264, 35), F(11, 5))),
])
def test_cauchy_round_trip_reads_the_truncation_name_at_767(chain, point):
    # the outer system reads the inner at 201, the inner reads the round trip
    # at most at 403, which reads the Cauchy name at bit_length(404) = 9 and
    # the truncation name at 3 * 2^8 - 1 = 767
    f, computed = _recording(dyadic_name(point))
    g = cauchy_to_ordinary(ordinary_to_cauchy(f))
    for system in reversed(chain):
        g = eval_name(system(), g)
    g.approx(100)
    assert max(computed) == 767


@pytest.mark.parametrize("n", [0, 3, 99])
def test_cosine_reads_its_input_at_2n_plus_1_only(n):
    inner, computed = _recording_name((F(2, 3),))
    eval_name(cosine_system(), inner).approx(n)
    assert computed == [2 * n + 1]
    # in a composition the inner evaluator computes only that index, and
    # division, whose modulus there is below 2n+1, reads its own input there
    # alone
    point, computed = _recording_name((F(2), F(3)))
    inner = eval_name(division_system(), point)
    eval_name(cosine_system(), inner).approx(n)
    assert computed == [2 * n + 1]
    point, computed = _recording_name((F(2), F(3)))
    assert apply(division_system(), point, n, 10).value == F(2, 3)
    assert computed == [n]


@pytest.mark.parametrize("n", [0, 4, 99])
def test_cosine_operator_misses_at_the_index_it_needs(n):
    assert operator_from_system(cosine_system()).run((), n, 10) == OracleMiss(2 * n + 1)


def test_cosine_of_a_quotient_keeps_its_value():
    inner = eval_name(division_system(), name_of_point((F(2), F(3))))
    assert eval_name(cosine_system(), inner).approx(20) == (F(25, 32),)


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


def _extracted_division():
    return system_from_operator(operator_from_system(division_system()), 2)


def _known_timeout(item, why):
    return pytest.mark.xfail(strict=True, raises=SearchTimeout, reason=f"ROADMAP item {item}: {why}")


# Legal in-domain inputs that time out today; a fix shows as an XPASS.
@pytest.mark.parametrize("system, make_name, point, n, budget", [
    pytest.param(division_system(), dyadic_name, (F(1), F(1, 100)), 0, default_budget_schedule(0),
                 id="division-dyadic",
                 marks=_known_timeout(4, "the modulus is asked at two points only")),
    pytest.param(maximal_division_system(), name_of_point, (F(1), F(1, 100)), 10, 10**4,
                 id="maximal-division",
                 marks=_known_timeout(4, "the ladder stops at _LADDER_RUNGS")),
    pytest.param(_extracted_division(), name_of_point, (F(1), F(1, 100)), 0, 10**3,
                 id="extracted-1/100",
                 marks=_known_timeout(16, "an extracted system states no modulus")),
    pytest.param(_extracted_division(), name_of_point, (F(1), F(1, 30)), 3, 10**3,
                 id="extracted-1/30"),
])
def test_adversarial_inputs_certify(system, make_name, point, n, budget):
    res = apply(system, make_name(point), n, budget)
    assert abs(res.value - point[0] / point[1]) < F(1, n + 1)


@pytest.mark.parametrize("point", [(F(1), F(1, 30)), (F(-5, 7), F(1, 20)), (F(1), F(3))])
@pytest.mark.parametrize("make_name", [name_of_point, dyadic_name, edge_ordinary_name])
@pytest.mark.parametrize("n", [0, 3, 10])
def test_extracted_division_certifies_tight_points_in_one_probe(point, make_name, n):
    # the witness runs division on the point itself, so a tight point is not
    # rounded onto a nearer pole whose modulus lies past the ladder
    res = apply(_extracted_division(), make_name(point), n, 10**3)
    assert res.search_steps == 1
    assert abs(res.value - point[0] / point[1]) < F(1, n + 1)


def test_extracted_division_at_a_tight_point_is_the_quotient():
    assert apply(_extracted_division(), name_of_point((F(1), F(1, 30))), 3, 10**3).value == 30


def _edge_round_trips(point):
    """Ordinary names of `point` through a Cauchy round trip, from a name just
    inside the ordinary bound and from one exactly at the Cauchy bound."""
    return [cauchy_to_ordinary(ordinary_to_cauchy(edge_ordinary_name(point))),
            cauchy_to_ordinary(ordinary_to_cauchy(cauchy_to_ordinary(edge_cauchy_name(point))))]


@pytest.mark.parametrize("chain, point, truth, err", [
    ((cosine_system,), (F(-24, 7),), cos_taylor(F(-24, 7), EPS), EPS),
    ((squaring_system,), (F(5, 7),), F(25, 49), 0),
    ((squaring_system,), (F(-12, 7),), F(144, 49), 0),
    ((cosine_system, division_system), (F(-264, 35), F(11, 5)), cos_taylor(F(-24, 7), EPS), EPS),
])
def test_evaluation_on_edge_round_trips(chain, point, truth, err):
    for g in _edge_round_trips(point):
        for system in reversed(chain):
            g = eval_name(system(), g)
        for n in (0, 1, 3, 10, 30, 100):
            (v,) = g.approx(n)
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


def test_operator_run_is_budget_faithful():
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
    assert ext.membership(q, 0) is Membership.NOT_YET
    assert ext.membership(q, 1) is Membership.YES  # attempt 0: the default ramp
    # m = 0 allows only the empty fragment (2l+1 <= 0), and the operator misses on it
    assert ext.membership(Quadruple((F(1), F(2)), 0, F(1, 2), 0), 50) is Membership.NOT_YET
    # b too far from every certifiable value
    assert ext.membership(Quadruple((F(1), F(2)), 7, F(2), 0), 60) is Membership.NOT_YET


def test_operator_system_enumerate_spot():
    ext = system_from_operator(operator_from_system(division_system()), 2)
    q = Quadruple((F(1), F(2)), 7, F(1, 2), 0)
    code = encode_quadruple(q)
    assert ext.enumerate(cantor_join(code, 1)) == q
    assert ext.enumerate(cantor_join(code, 0)) is None


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
    assert callable(ext.witness)
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
        with pytest.raises(DimensionError, match=f"^dimension must be at least 1, got {dim}$"):
            system_from_operator(_DeadOperator(), dim)


def test_each_run_costs_its_own_probes():
    # a system with no witness and an empty accept set: each probe is one decide
    calls = []

    def reject(q):
        calls.append(q)
        return False

    T = operator_from_system(DecidableSystem(reject, 1))
    frag = _pt_fragment((F(0),), 20)
    counts = []
    for steps in (5, 5, 3, 7):
        assert T.run(frag, 0, steps) == OutOfBudget()
        counts.append(len(calls))
    assert counts == [5, 10, 13, 20]


# --- the attempt order of extracted systems ----------------------------------------

class _CountingOperator(NameOperator):
    """Runs `inner` and counts the runs."""

    def __init__(self, inner):
        self.inner = inner
        self.runs = 0

    def run(self, fragment, output_index, steps):
        self.runs += 1
        return self.inner.run(fragment, output_index, steps)


class _RecordingOperator(NameOperator):
    """Lists every fragment it is run on and never returns a Value."""

    def __init__(self):
        self.fragments = []

    def run(self, fragment, output_index, steps):
        self.fragments.append(fragment)
        return OutOfBudget()


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_extracted_apply_takes_a_constant_number_of_runs(n):
    # the witness's ramp is the first attempt, so the confirming probe runs
    # the operator once, not once per prefix of the ramp
    T = _CountingOperator(operator_from_system(division_system()))
    res = apply(system_from_operator(T, 2), name_of_point((F(1), F(3))), n, 10**5)
    assert res == EvalResult(F(1, 3), n, 1)
    assert T.runs <= 5
    T = _CountingOperator(operator_from_system(cosine_system()))
    res = apply(system_from_operator(T, 1), name_of_point((F(1),)), n, 10**5)
    assert res.search_steps == 1
    assert abs(res.value - cos_taylor(F(1), EPS)) + EPS < F(1, n + 1)
    assert T.runs <= 5


def test_extracted_attempts_start_at_the_ramp_and_stay_in_the_balls():
    T = _RecordingOperator()
    ext = system_from_operator(T, 2)
    a = (F(-7, 3), F(5, 2))
    for m in (0, 1, 2, 7, 12):
        T.fragments.clear()
        assert ext.witness(a, m, 0) is None
        (ramp,) = T.fragments
        assert len(ramp) == (m + 1) // 2
        for budget in (0, 1, 2, 300):
            T.fragments.clear()
            assert ext.membership(Quadruple(a, m, F(0), 0), budget) is Membership.NOT_YET
            # attempt u >= 1 is (l, code) = cantor_split(u - 1), skipped when 2l+1 > m
            shifted = [tuple(ext._candidate(a, k, c) for k, c in enumerate(decode_tuple(code, l + 1)))
                       for l, code in map(cantor_split, range(budget - 1)) if 2 * l + 1 <= m]
            assert T.fragments == ([ramp] + shifted if budget else [])
            for fragment in T.fragments:
                assert len(fragment) <= (m + 1) // 2
                for k, point in enumerate(fragment):
                    assert dist(point, a) < F(1, 2 * k + 2)


def _old_rule_membership(ext, T, quad, budget):
    """ext.membership by the attempt order before the ramp came first:
    every ramp prefix, then the shifted fragments."""
    a, m, b, n = quad
    top = (m - 1) // 2
    if top < 0:
        return Membership.NOT_YET
    for u in range(budget):
        if u <= top:
            fragment = tuple(ext._candidate(a, k, 0) for k in range(u + 1))
        else:
            l, code = cantor_split(u - top - 1)
            if l > top:
                continue
            fragment = tuple(ext._candidate(a, k, c)
                             for k, c in enumerate(decode_tuple(code, l + 1)))
        res = T.run(fragment, 2 * n + 1, budget)
        if isinstance(res, Value) and abs(res.v - b) < F(1, 2 * n + 2):
            return Membership.YES
    return Membership.NOT_YET


def test_extracted_membership_keeps_every_old_member():
    T = operator_from_system(division_system())
    ext = system_from_operator(T, 2)
    oracle = division_oracle()
    old_yes = new_only = 0
    for a in [(x, y) for x in (F(-3, 2), F(1), F(5, 3)) for y in (F(1, 2), F(2), F(-3))]:
        for n in (0, 1, 3):
            q, half = a[0] / a[1], F(1, 2 * n + 2)
            for b in (q, q + half / 2, q - 3 * half / 2, q + 1):
                for m in (1, 3, 7, 15, 31):
                    quad = Quadruple(a, m, b, n)
                    for budget in (0, 1, 2, 5, 20):
                        new = ext.membership(quad, budget) is Membership.YES
                        if _old_rule_membership(ext, T, quad, budget) is Membership.YES:
                            assert new, (quad, budget)
                            old_yes += 1
                        elif new:
                            new_only += 1
                    if new:  # at budget 20
                        assert brute_force_condition1_check(a, m, b, n, oracle), quad
    assert old_yes and new_only


# --- candidates of extracted systems ------------------------------------------------

def test_candidate_zero_and_the_ramp_are_the_point_itself():
    ext = system_from_operator(_DeadOperator(), 2)
    for a in [(F(-7, 3), F(5, 2)), (F(1), F(1, 30)), (F(10**4), F(3, 8))]:
        for k in (0, 1, 5, 100):
            assert ext._candidate(a, k, 0) == a
        for m in (0, 1, 2, 7, 1000):
            assert ext._ramp(a, m) == (a,) * ((m + 1) // 2)


def test_coded_candidates_lie_strictly_inside_the_ball():
    ext = system_from_operator(_DeadOperator(), 2)
    a, k = (F(-7, 3), F(5, 2)), 3
    radius = F(1, 2 * k + 2)
    for c in range(10**4 + 1):
        assert dist(ext._candidate(a, k, c), a) < radius


def test_coded_candidate_reaches_a_given_offset():
    # t = (1/3, -2/5) over q = 15 is (5, -6)/15; nums_i = 15 t_i + 14
    ext = system_from_operator(_DeadOperator(), 2)
    a, k = (F(-7, 3), F(5, 2)), 3
    want = (a[0] + F(1, 3) / 8, a[1] - F(2, 5) / 8)
    assert ext._candidate(a, k, encode_tuple((19, 8, 14))) == want


def test_extracted_membership_far_from_the_origin_finishes():
    # before, the first coded candidate (budget 172) decoded points from 0
    # until enough of them landed within 1/2 of (10^4, 1), and did not return
    ext = system_from_operator(operator_from_system(division_system()), 2)
    quad = Quadruple((F(10**4), F(1)), 1, F(0), 0)
    for budget in (171, 172, 5000):
        assert ext.membership(quad, budget) is Membership.NOT_YET
