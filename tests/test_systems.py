import json
import math
from fractions import Fraction as F
from functools import reduce

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from approxsys.core import Membership, Quadruple, decode_quadruple
from approxsys.errors import DimensionError, FormatError
from approxsys.evaluate import apply
from approxsys.names import dyadic_name, name_of_point
from approxsys.systems import (
    Atom,
    FAnd,
    FNot,
    FOr,
    _Root,
    _cos_k0,
    _dyadic_between,
    _half_term,
    _isolated_roots,
    _linear_roots,
    _mul,
    _quotient_key,
    _simplest_dyadic,
    atom,
    cosine_system,
    division_system,
    formula_from_json,
    formula_to_json,
    load_formula,
    maximal_division_system,
    semialgebraic_system,
    sigma_k,
    squaring_formula,
    squaring_system,
)
from approxsys.verify import cos_taylor, division_oracle
from conftest import corners

# --- division ------------------------------------------------------------

def division_member_oracle(q: Quadruple) -> bool:
    """Second reading of the division test, arranged as a radius bound."""
    a1, a2 = q.a
    if a2 == 0 or q.b != a1 / a2:
        return False
    return F(1, q.m + 1) <= abs(a2) / (1 + (q.n + 1) * (abs(q.b) + 1))


rats = st.fractions(max_denominator=12)
precisions = st.integers(min_value=0, max_value=40)


@settings(max_examples=300)
@given(rats, rats, precisions, rats, precisions)
def test_division_decide_double_entry(a1, a2, m, b, n):
    q = Quadruple((a1, a2), m, b, n)
    assert division_system().decide(q) == division_member_oracle(q)


@pytest.mark.parametrize("m", range(8))
@pytest.mark.parametrize("n", range(8))
def test_division_zero_over_one_truth_table(m, n):
    q = Quadruple((F(0), F(1)), m, F(0), n)
    assert division_system().decide(q) == (m >= n + 1)


def test_division_one_third_members():
    decide = division_system().decide
    assert decide(Quadruple((F(1), F(3)), 1, F(1, 3), 2))
    assert decide(Quadruple((F(1), F(3)), 0, F(1, 3), 0))
    assert not decide(Quadruple((F(1), F(3)), 0, F(1, 3), 1))
    # wrong quotient value, or zero denominator: never members
    assert not decide(Quadruple((F(1), F(3)), 50, F(1, 2), 0))
    assert not decide(Quadruple((F(1), F(0)), 50, F(0), 0))


@settings(max_examples=200)
@given(rats, rats, precisions, precisions)
def test_division_witness_is_exact_quotient(a1, a2, m, n):
    w = division_system().witness((a1, a2), m, n)
    if a2 == 0:
        assert w is None
    else:
        assert w * a2 == a1


wide_rats = st.one_of(rats, st.fractions(-10**4, 10**4, max_denominator=10**4))
output_indices = st.integers(min_value=0, max_value=10**4)


@settings(max_examples=300)
@given(wide_rats, wide_rats, output_indices)
def test_division_modulus_is_the_least_certifying_index(a1, a2, n):
    system = division_system()
    assert system.modulus(None, n) == n
    m = system.modulus((a1, a2), n)
    if a2 == 0:
        assert m is None
        return
    b = system.witness((a1, a2), m, n)
    assert system.decide(Quadruple((a1, a2), m, b, n))
    if m > 0:
        assert not system.decide(Quadruple((a1, a2), m - 1, b, n))


def _passes_screen(system, q: Quadruple) -> bool:
    point_key, tail_key = system.screen
    return point_key(q.a) == tail_key(q.m, q.b, q.n)


def test_division_members_below_10_5_pass_the_screen():
    system = division_system()
    members = [q for k in range(10**5) if system.decide(q := decode_quadruple(k, 2))]
    assert len(members) > 9000 and any(q.b < 0 for q in members)
    assert all(_passes_screen(system, q) for q in members)
    walked = division_system.__wrapped__().members_prefix(len(members) + 1, scan_cap=10**5)
    assert walked == members


@settings(max_examples=300)
@given(wide_rats, wide_rats, output_indices, st.integers(0, 50))
@example(F(-7, 3), F(-14, 9), 0, 0)  # a2 < 0
@example(F(0), F(-5, 2), 3, 1)  # a1 = 0
@example(F(5, 4), F(0), 2, 0)  # a2 = 0
def test_division_accepted_at_the_quotient_pass_the_screen(a1, a2, n, extra):
    system = division_system()
    assert system.screen[0] is _quotient_key
    if a2 == 0:
        assert _quotient_key((a1, a2)) is None
        return
    assert _quotient_key((a1, a2)) == (a1 / a2).as_integer_ratio()
    m = system.modulus((a1, a2), n) + extra
    q = Quadruple((a1, a2), m, a1 / a2, n)
    assert system.decide(q) and _passes_screen(system, q)


def test_division_modulus_frozen():
    modulus = division_system().modulus
    # (m+1)|a2| >= 1 + (n+1)(|a1/a2| + 1)
    assert modulus((F(1), F(1, 100)), 0) == 10_199
    assert modulus((F(0), F(1)), 0) == 1
    assert modulus((F(1), F(3)), 999) == 444
    assert modulus((F(-1), F(-3)), 999) == 444


# --- maximal division ------------------------------------------------------

def test_corner_values_frozen():
    assert corners((F(1), F(3)), 1) == [F(3, 7), F(3, 5), F(1, 7), F(1, 5)]
    assert corners((F(1), F(3)), 0) == [F(1, 2), F(1), F(0), F(0)]


@st.composite
def maximal_division_witness_inputs(draw):
    """(a, m) with m up to 10^6 and a2 of either sign, often with (m+1)|a2|
    equal to 1 or just above it."""
    m = draw(st.integers(0, 10**6))
    a1 = draw(st.one_of(rats, st.fractions(-10**6, 10**6, max_denominator=10**6)))
    sign = draw(st.sampled_from((1, -1)))
    edge = sign * F(1, m + 1)
    just_above = edge * (1 + F(1, draw(st.integers(1, 10**6))))
    a2 = draw(st.one_of(rats, st.just(edge), st.just(just_above)))
    return (a1, a2), m


@settings(max_examples=500)
@given(maximal_division_witness_inputs(), precisions)
def test_maximal_division_witness_matches_reference(a_m, n):
    a, m = a_m
    w = maximal_division_system().witness(a, m, n)
    if (m + 1) * abs(a[1]) <= 1:
        assert w is None
    else:
        cs = corners(a, m)
        assert w == (max(cs) + min(cs)) / 2


def maximal_division_reference(q: Quadruple) -> bool:
    """The closed-interval corner test, in Fraction arithmetic."""
    a1, a2 = q.a
    if (q.m + 1) * abs(a2) <= 1:
        return False
    v = F(1, q.n + 1)
    return all(q.b - v <= c <= q.b + v for c in corners(q.a, q.m))


@st.composite
def maximal_division_quads(draw):
    """Random quadruples, and ones on the edges of the test: a2 of either
    sign with (m+1)|a2| = 1, and b exactly 1/(n+1) away from a corner."""
    m, n = draw(precisions), draw(precisions)
    a1 = draw(rats)
    a2 = draw(st.one_of(rats, st.sampled_from((1, -1)).map(lambda s: F(s, m + 1))))
    b = draw(rats)
    if (m + 1) * abs(a2) > 1 and draw(st.booleans()):
        corner = draw(st.sampled_from(corners((a1, a2), m)))
        b = corner + draw(st.sampled_from((1, -1))) * F(1, n + 1)
    return Quadruple((a1, a2), m, b, n)


@settings(max_examples=300)
@given(maximal_division_quads())
def test_maximal_division_decide_matches_reference(q):
    assert maximal_division_system().decide(q) == maximal_division_reference(q)


def test_maximal_division_frozen_memberships():
    decide = maximal_division_system().decide
    for n in range(4):
        assert decide(Quadruple((F(1), F(3)), 1, F(13, 35), n))
    assert not decide(Quadruple((F(1), F(3)), 1, F(13, 35), 4))
    # at m = 0 the corner spread is 1, so only n in {0, 1} fit around 1/2
    for n in range(6):
        assert decide(Quadruple((F(1), F(3)), 0, F(1, 2), n)) == (n <= 1)


def test_maximal_division_needs_denominator_margin():
    decide = maximal_division_system().decide
    for b_num in range(-3, 4):
        assert not decide(Quadruple((F(1), F(1)), 0, F(b_num), 0))
    assert maximal_division_system().witness((F(1), F(1)), 0, 0) is None


def test_maximal_witness_is_optimal_center():
    sys = maximal_division_system()
    assert sys.witness((F(1), F(3)), 1, 0) == F(13, 35)
    # whenever any b is accepted, the corner midpoint is too
    for m in range(1, 6):
        for n in range(6):
            for b in (F(1, 3), F(3, 10), F(2, 5)):
                q = Quadruple((F(1), F(3)), m, b, n)
                if sys.decide(q):
                    w = sys.witness(q.a, m, n)
                    assert sys.decide(Quadruple(q.a, m, w, n))


def test_division_members_are_maximal_members():
    maximal = maximal_division_system().decide
    for q in division_system().members_prefix(400):
        assert maximal(q)


# --- cosine ----------------------------------------------------------------

def cosine_member_oracle(a, m, b, n, K=60):
    """Existential scan of the defining condition, written from scratch."""
    full = F(0)  # sum_{i<k} (-1)^i a^(2i)/(2i)!
    for k in range(K):
        term = F(a) ** (2 * k) / math.factorial(2 * k)
        e = term / 2
        if a * a <= (2 * k + 1) * (2 * k + 2):
            s = full + (-1) ** k * e
            if abs(b - s) + e + F(1, m + 1) <= F(1, n + 1):
                return True
        full += (-1) ** k * term
    return False


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    st.integers(min_value=0, max_value=25),
    st.fractions(min_value=-2, max_value=2, max_denominator=8),
    st.integers(min_value=0, max_value=25),
)
def test_cosine_decide_double_entry(a, m, b, n):
    q = Quadruple((a,), m, b, n)
    assert cosine_system().decide(q) == cosine_member_oracle(a, m, b, n)


@given(st.fractions(max_denominator=20))
def test_sigma_zero_is_one_half(a):
    assert sigma_k(a, 0) == F(1, 2)


def test_sigma_frozen_values():
    assert sigma_k(F(1), 3) == F(779, 1440)
    assert sigma_k(F(1), 4) == F(4841, 8960)
    assert sigma_k(F(0), 1) == F(1)


@pytest.mark.parametrize("ints", [(1, 3), (-2, 7)])
def test_integer_coordinates_give_exact_fractions(ints):
    calls = {
        "sigma_k": lambda a: sigma_k(a[0], 3),
        "cosine witness": lambda a: cosine_system().witness(a[:1], 10, 3),
        "division witness": lambda a: division_system().witness(a, 0, 0),
        "division oracle": lambda a: division_oracle().eval(a, F(0)),
    }
    for label, call in calls.items():
        got, want = call(ints), call(tuple(map(F, ints)))
        assert type(got) is F and got == want, label


@settings(max_examples=300)
@given(st.fractions(min_value=-64, max_value=64, max_denominator=64).filter(bool),
       st.integers(min_value=0, max_value=5))
@example(F(64), 5)
@example(F(1, 64), 0)
def test_sigma_within_half_term_of_an_independent_cos(a, extra):
    # |sigma_k(a) - cos a| <= e_k from the first k with a^2 <= (2k+1)(2k+2),
    # against mpmath's cos at 300 bits, which shares no code with sigma_k
    k = _cos_k0(a * a) + extra
    with mpmath.workprec(300):
        def mp(y):
            return mpmath.mpf(y.numerator) / y.denominator

        assert abs(mp(sigma_k(a, k)) - mpmath.cos(mp(a))) <= mp(_half_term(a, k))
    assert sigma_k(F(0), k + 1) == 1


def test_sigma_midpoint_error_bound():
    for k in range(1, 9):
        e_k = F(1) / (2 * math.factorial(2 * k))
        approx = cos_taylor(F(1), e_k / 100)
        assert abs(sigma_k(F(1), k) - approx) <= e_k + e_k / 100


def test_cosine_frozen_memberships():
    decide = cosine_system().decide
    assert decide(Quadruple((F(1),), 9, F(779, 1440), 4))
    for m in range(6):
        for n in range(6):
            assert decide(Quadruple((F(0),), m, F(1), n)) == (m >= n)
    # g = 0 with a != 0: settled (negatively) by the two-sided bound
    assert not decide(Quadruple((F(2),), 1, F(0), 1))


def test_cosine_rejects_negative_gap():
    assert not cosine_system().decide(Quadruple((F(1),), 2, F(1, 2), 9))


def test_cosine_witness_certifies():
    sys = cosine_system()
    for a in (F(0), F(1), F(-2), F(22, 7), F(1, 3)):
        for (m, n) in ((9, 4), (99, 49), (3, 1), (1000, 500)):
            w = sys.witness((a,), m, n)
            assert w is not None
            assert sys.decide(Quadruple((a,), m, w, n))
    assert sys.witness((F(1),), 3, 9) is None  # g < 0
    assert sys.witness((F(0),), 5, 5) == F(1)  # g = 0 at a = 0
    assert sys.witness((F(1),), 5, 5) is None  # g = 0 elsewhere


def simplest_dyadic_reference(lo, hi):
    """The dyadic strictly inside (lo, hi) on the coarsest grid 2^-k, k = 0, 1, ..:
    at k = 0 the integer of least magnitude, above it the only grid point."""
    k = 0
    while True:
        first, last = math.floor(lo * 2**k) + 1, math.ceil(hi * 2**k) - 1
        if first <= last:
            return F(min(max(0, first), last) if k == 0 else first, 2**k)
        k += 1


def cosine_witness_reference(a, m, n):
    """The simplest dyadic strictly within r = g - e_k of sigma_k(a), for the
    first k with a^2 <= (2k+1)(2k+2) and e_k < g, all in Fraction arithmetic."""
    g = F(1, n + 1) - F(1, m + 1)
    full = F(0)  # sum_{i<k} (-1)^i a^(2i)/(2i)!
    for k in range(10**4):
        term = F(a) ** (2 * k) / math.factorial(2 * k)
        e = term / 2
        if a * a <= (2 * k + 1) * (2 * k + 2) and e < g:
            s = full + (-1) ** k * e
            return simplest_dyadic_reference(s - (g - e), s + (g - e))
        full += (-1) ** k * term
    raise AssertionError("no admissible k")


@st.composite
def cosine_witness_cases(draw):
    a = draw(st.fractions(min_value=-40, max_value=40, max_denominator=2**20))
    n = draw(st.integers(min_value=0, max_value=10**4 - 1))
    return a, draw(st.integers(min_value=n + 1, max_value=10**4)), n


@settings(max_examples=200, deadline=None)
@given(cosine_witness_cases())
def test_cosine_witness_is_the_simplest_dyadic_in_the_slack(case):
    a, m, n = case
    w = cosine_system().witness((a,), m, n)
    assert cosine_system().decide(Quadruple((a,), m, w, n))
    assert w.denominator & (w.denominator - 1) == 0
    assert w == cosine_witness_reference(a, m, n)


def test_cosine_witness_skips_a_k_whose_slack_is_empty():
    # a = 1, (m, n) = (47, 23): e_2 = 1/48 = g leaves only sigma_2 = 25/48 at
    # k = 2, so the witness takes k = 3 and the simplest dyadic within
    # g - e_3 = 29/1440 of sigma_3 = 779/1440
    assert cosine_witness_reference(F(1), 47, 23) == F(17, 32)
    assert cosine_system().witness((F(1),), 47, 23) == F(17, 32)
    assert cosine_system().decide(Quadruple((F(1),), 47, F(17, 32), 23))
    # at a = 0, n = 0 and rung 1: e_0 = 1/2 = g, and k = 1 gives 1, not sigma_0 = 1/2
    assert cosine_system().witness((F(0),), 1, 0) == F(1)


@pytest.mark.parametrize("name, n, value", [
    (name_of_point((F(300),)), 10, F(0)),  # sigma_k itself: 9,516 bits
    (dyadic_name((F(1, 3),)), 10**4, F(7741, 8192)),  # sigma_k itself: 240,046 bits
], ids=["cos 300", "cos of a dyadic name of 1/3"])
def test_cosine_outputs_are_short(name, n, value):
    assert apply(cosine_system(), name, n, 13).value == value


# --- formulas ----------------------------------------------------------------

# Reference evaluator: the formula read literally at (a_1..a_N, b, u, v) in
# Fraction arithmetic.  semialgebraic_system evaluates in integers instead,
# and must agree with it everywhere.

def eval_poly(poly, vals):
    total = F(0)
    for coef, exps in poly:
        term = F(coef)
        for val, e in zip(vals, exps):
            if e:
                term *= val ** e
        total += term
    return total


def eval_formula(formula, vals) -> bool:
    if isinstance(formula, Atom):
        value = eval_poly(formula.poly, vals)
        return value > 0 if formula.op == ">" else value >= 0
    if isinstance(formula, FNot):
        return not eval_formula(formula.arg, vals)
    truths = (eval_formula(f, vals) for f in formula.args)
    return all(truths) if isinstance(formula, FAnd) else any(truths)


def reference_decide(formula, q: Quadruple) -> bool:
    return eval_formula(formula, q.a + (q.b, F(1, q.m + 1), F(1, q.n + 1)))


def test_eval_poly_frozen():
    # 2*a^2*v - 3*b over (a, b, u, v)
    poly = ((2, (2, 0, 0, 1)), (-3, (0, 1, 0, 0)))
    assert eval_poly(poly, (F(3), F(2), F(0), F(1, 2))) == 2 * 9 * F(1, 2) - 6
    assert eval_poly((), (F(1), F(1), F(1), F(1))) == 0


@given(st.lists(st.tuples(st.integers(-5, 5), st.tuples(*[st.integers(0, 3)] * 4))))
def test_eval_poly_additive(monos):
    poly = tuple(monos)
    vals = (F(2, 3), F(-1, 2), F(5), F(0))
    total = sum(
        (F(c) * vals[0] ** e0 * vals[1] ** e1 * vals[2] ** e2 * vals[3] ** e3
         for c, (e0, e1, e2, e3) in poly),
        F(0),
    )
    assert eval_poly(poly, vals) == total


def test_formula_connective_semantics():
    yes = atom(">=", (0, (0, 0, 0, 0)))
    no = atom(">", (0, (0, 0, 0, 0)))
    q = Quadruple((F(0),), 0, F(0), 0)  # (a, b, u, v) = (0, 0, 1, 1)

    def holds(formula) -> bool:
        truth = semialgebraic_system(formula, 1).decide(q)
        assert truth == reference_decide(formula, q)
        return truth

    assert holds(yes) and not holds(no)
    assert holds(FAnd(()))
    assert not holds(FOr(()))
    assert holds(FAnd((yes, yes)))
    assert not holds(FAnd((yes, no)))
    assert holds(FOr((no, yes)))
    assert holds(FNot(no))
    assert not holds(FNot(yes))


def formulas_of(atoms):
    """Formulas of up to six leaves drawn from `atoms`."""
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.lists(sub, max_size=3).map(lambda fs: FAnd(tuple(fs))),
            st.lists(sub, max_size=3).map(lambda fs: FOr(tuple(fs))),
            sub.map(FNot),
        ),
        max_leaves=6,
    )


@st.composite
def formula_and_quadruple(draw):
    """A random formula over dimension 1 or 2 with b-degree up to 3, and a
    quadruple mixing small values (exact zeros of the atoms happen) with
    denominators up to 2^40."""
    dim = draw(st.integers(1, 2))
    deg = draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * dim, st.integers(0, deg),
                     st.integers(0, 2), st.integers(0, 2))
    atoms = st.builds(lambda op, monos: atom(op, *monos), st.sampled_from([">", ">="]),
                      st.lists(st.tuples(st.integers(-4, 4), exps), max_size=4))
    formula = draw(formulas_of(atoms))
    rat = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=1 << 40))
    a = tuple(draw(rat) for _ in range(dim))
    b = draw(st.one_of(rat, st.sampled_from(a)))
    return formula, dim, Quadruple(a, draw(st.integers(0, 40)), b, draw(st.integers(0, 40)))


@settings(max_examples=300, deadline=None)
@given(formula_and_quadruple())
def test_decide_matches_reference_evaluator(case):
    formula, dim, q = case
    assert semialgebraic_system(formula, dim).decide(q) == reference_decide(formula, q)


def test_square_accept_set_matches_reference():
    formula, dim = squaring_formula()
    decide = squaring_system().decide
    accepted = 0
    for k in range(5000):
        q = decode_quadruple(k, dim)
        truth = decide(q)
        assert truth == reference_decide(formula, q), q
        accepted += truth
    assert accepted > 0


@settings(max_examples=300, deadline=None)
@given(wide_rats, output_indices)
def test_square_modulus_is_the_least_certifying_index(x, n):
    system = squaring_system()
    assert system.modulus(None, n) == n
    m = system.modulus((x,), n)
    b = system.witness((x,), m, n)
    assert b is not None and system.decide(Quadruple((x,), m, b, n))
    if m > 0:
        assert system.witness((x,), m - 1, n) is None


def test_square_modulus_frozen():
    modulus = squaring_system().modulus
    # m + 1 >= 2|a|(n+1) once 1/(m+1) <= |a|: m = n at |a| = 1/2, n >= 1
    assert [modulus((F(1, 2),), n) for n in (1, 9, 99)] == [1, 9, 99]
    assert modulus((F(3, 2),), 999) == 2_999
    assert modulus((F(-7, 4),), 0) == 3
    # below: the ball holds 0 and (|a| + 1/(m+1))^2 < 2/(n+1)
    assert modulus((F(0),), 0) == 0
    assert modulus((F(0),), 99) == 7
    assert modulus((F(1, 2),), 0) == 1


def test_cosine_modulus_is_2n_plus_1():
    modulus = cosine_system().modulus
    assert [modulus(None, n) for n in (0, 5)] == [1, 11]
    assert [modulus((x,), 5) for x in (F(0), F(300), F(-1, 3))] == [11, 11, 11]


def test_empty_poly_atoms_at_system_level():
    everything = semialgebraic_system(atom(">="), 1, name="all")
    nothing = semialgebraic_system(atom(">"), 1, name="none")
    q = Quadruple((F(7),), 0, F(-1), 3)
    assert everything.decide(q)
    assert not nothing.decide(q)
    assert nothing.enumerate(0) is None
    assert everything.enumerate(0) is not None


def test_formula_json_round_trip():
    formula, nvars = squaring_formula()
    doc = formula_to_json(formula, nvars)
    back, nback = formula_from_json(doc)
    assert back == formula and nback == nvars
    # and the document survives serialization
    again, _ = formula_from_json(json.loads(json.dumps(doc)))
    assert again == formula


def test_formula_json_round_trip_with_not():
    formula = FOr((FNot(atom(">", (1, (1, 0, 0, 0)))), atom(">=", (-1, (0, 1, 0, 0)))))
    doc = formula_to_json(formula, 1)
    assert doc["formula"]["or"][0] == {"not": [{"op": ">", "poly": [[1, [1, 0, 0, 0]]]}]}
    assert formula_from_json(json.loads(json.dumps(doc))) == (formula, 1)


def test_formula_from_json_accepts_bare_not():
    doc = {
        "vars": 1,
        "formula": {"not": {"op": ">", "poly": [[1, [1, 0, 0, 0]]]}},
    }
    formula, _ = formula_from_json(doc)
    assert formula == FNot(atom(">", (1, (1, 0, 0, 0))))


BAD_DOCS = [
    "not even a dict",
    {},
    {"vars": 1},
    {"vars": 1, "formula": {"op": ">", "poly": []}, "extra": 0},
    {"vars": 0, "formula": {"op": ">", "poly": []}},
    {"vars": True, "formula": {"op": ">", "poly": []}},
    {"vars": "2", "formula": {"op": ">", "poly": []}},
    {"vars": 1, "formula": {"op": "<", "poly": []}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1, [0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1.5, [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [[True, [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1, [0, 0, 0, -1]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1, [0, 0, 0.5, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": "zero"}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1]]}},
    {"vars": 1, "formula": {"not": []}},
    {"vars": 1, "formula": {"not": [{"op": ">", "poly": []}, {"op": ">", "poly": []}]}},
    {"vars": 1, "formula": {"xor": []}},
    {"vars": 1, "formula": {"and": "nope"}},
    {"vars": 1, "formula": {"and": [], "or": []}},
    {"vars": 1, "formula": [1, 2]},
    {"vars": 1, "formula": {"op": ">", "poly": [["1/0", [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [["1.5", [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [["1/-2", [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": ">", "poly": [["one", [0, 0, 0, 0]]]}},
    {"vars": 1, "formula": {"op": "==", "poly": []}},
    {"vars": 1, "formula": {"op": ">", "poly": [[1, "0000"]]}},
]


def test_formula_from_json_rational_coefficients_and_equality():
    # "p/q" coefficients: the atom is scaled by the lcm of its denominators
    doc = {"vars": 1, "formula": {"op": ">", "poly": [
        ["-1/6", [1, 0, 0, 0]], ["3/4", [0, 1, 0, 0]], [2, [0, 0, 0, 1]], ["5", [0, 0, 1, 0]],
    ]}}
    formula, _ = formula_from_json(doc)
    assert formula == atom(">", (-2, (1, 0, 0, 0)), (9, (0, 1, 0, 0)),
                           (24, (0, 0, 0, 1)), (60, (0, 0, 1, 0)))
    # "=" reads as p >= 0 and -p >= 0
    doc = {"vars": 1, "formula": {"op": "=", "poly": [["1/2", [0, 1, 0, 0]], [-1, [1, 0, 0, 0]]]}}
    formula, _ = formula_from_json(doc)
    assert formula == FAnd((atom(">=", (1, (0, 1, 0, 0)), (-2, (1, 0, 0, 0))),
                            atom(">=", (-1, (0, 1, 0, 0)), (2, (1, 0, 0, 0)))))
    equal = semialgebraic_system(formula, 1).decide
    assert equal(Quadruple((F(1),), 0, F(2), 0))  # (a, b, u, v) = (1, 2, 1, 1)
    assert not equal(Quadruple((F(1),), 0, F(3), 0))


@pytest.mark.parametrize("doc", BAD_DOCS)
def test_formula_from_json_rejects_malformed(doc):
    with pytest.raises(FormatError):
        formula_from_json(doc)


def test_load_formula_from_file(tmp_path):
    formula, nvars = squaring_formula()
    path = tmp_path / "square.json"
    path.write_text(json.dumps(formula_to_json(formula, nvars)))
    loaded, nback = load_formula(path)
    assert loaded == formula and nback == nvars

    missing = tmp_path / "absent.json"
    with pytest.raises(FormatError):
        load_formula(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    with pytest.raises(FormatError):
        load_formula(broken)


def test_load_formula_refuses_an_unreadable_file(unreadable_formula_file):
    with pytest.raises(FormatError, match=f"^formula file {unreadable_formula_file} "
                                          "(cannot be decoded: 'utf-8' codec|nests too deeply$)"):
        load_formula(unreadable_formula_file)


def test_formula_from_json_refuses_a_formula_too_deep_for_the_stack():
    node = {"op": ">", "poly": [[1, [0, 0, 0, 0]]]}
    for _ in range(200):
        node = {"not": node}
    assert formula_from_json({"vars": 1, "formula": node})[1] == 1
    for _ in range(1800):
        node = {"not": node}
    with pytest.raises(FormatError, match="^formula nests too deeply$"):
        formula_from_json({"vars": 1, "formula": node})


@pytest.mark.parametrize("coef", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
def test_formula_from_json_refuses_a_coefficient_past_the_digit_limit(coef):
    doc = {"vars": 1, "formula": {"op": ">", "poly": [[coef, [0, 0, 0, 0]]]}}
    with pytest.raises(FormatError, match=f"^not a rational literal: {coef!r}$"):
        formula_from_json(doc)


def test_load_formula_names_the_file_when_the_formula_walk_runs_out_of_stack(tmp_path, monkeypatch):
    # a json module that parses deep documents, as on Python 3.13, leaves the
    # stack limit to the formula walk
    node = {"op": ">", "poly": [[1, [0, 0, 0, 0]]]}
    for _ in range(5000):
        node = {"not": node}
    path = tmp_path / "deep.json"
    path.write_text("{}")
    monkeypatch.setattr(json, "load", lambda fh: {"vars": 1, "formula": node})
    with pytest.raises(FormatError, match=f"^formula file {path} nests too deeply$"):
        load_formula(path)


def test_semialgebraic_dimension_mismatch():
    formula, _ = squaring_formula()
    with pytest.raises(FormatError):
        semialgebraic_system(formula, 2)


def test_semialgebraic_rejects_a_node_that_is_no_formula():
    with pytest.raises(FormatError, match="not a formula node"):
        semialgebraic_system(FAnd((atom(">", (1, (0, 1, 0, 0))), "junk")), 1)
    # nodes are checked in walk order: the bad atom before the junk after it
    with pytest.raises(FormatError, match="unknown comparison"):
        semialgebraic_system(FAnd((Atom("<", ((1, (0, 1, 0, 0)),)), "junk")), 1)


@pytest.mark.parametrize("coef", [F(1, 2), 1.0, True])
def test_semialgebraic_rejects_non_integer_coefficient(coef):
    with pytest.raises(FormatError):
        semialgebraic_system(Atom(">", ((coef, (0, 1, 0, 0)),)), 1)


# --- squaring -----------------------------------------------------------------

def test_squaring_closed_form_at_three_halves():
    decide = squaring_system().decide
    for m in range(11):
        for n in range(7):
            u, v = F(1, m + 1), F(1, n + 1)
            expected = 3 * u + u * u <= v
            q = Quadruple((F(3, 2),), m, F(9, 4), n)
            assert decide(q) == expected
    assert not decide(Quadruple((F(3, 2),), 4, F(9, 4), 1))
    assert decide(Quadruple((F(3, 2),), 7, F(9, 4), 1))


def test_squaring_zero_inside_branch():
    decide = squaring_system().decide
    # open ball around 0 of radius 1: squares fill [0, 1), sup not attained,
    # so b = 1/2 needs v > 1/2 (strict), i.e. only n = 0 works
    assert decide(Quadruple((F(0),), 0, F(1, 2), 0))
    assert not decide(Quadruple((F(0),), 0, F(1, 2), 1))
    assert not decide(Quadruple((F(0),), 0, F(1), 0))


def test_squaring_left_branch_mirrors_right():
    decide = squaring_system().decide
    assert decide(Quadruple((F(-3, 2),), 7, F(9, 4), 1))
    assert not decide(Quadruple((F(-3, 2),), 4, F(9, 4), 1))


# --- witness for formulas linear in b ------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_squaring_witness_matches_closed_form(a, m, n):
    sq = squaring_system()
    w = sq.witness((a,), m, n)
    assert w is None or sq.decide(Quadruple((a,), m, w, n))
    u, v = F(1, m + 1), F(1, n + 1)
    hi = max((a - u) ** 2, (a + u) ** 2)
    lo = 0 if abs(a) < u else (abs(a) - u) ** 2
    if hi - v < lo + v:
        assert w is not None


def test_squaring_witness_keeps_small_denominators():
    sq = squaring_system()
    for n in (9, 99, 999, 9999):
        w = sq.witness((F(3, 2),), 4 * (n + 1) - 1, n)
        assert w.denominator & (w.denominator - 1) == 0  # a power of two
        assert w.denominator <= 4 * (n + 1)


def test_witness_through_negation():
    # identity x |-> x: not (b - a + u - v > 0) and not (a - b + u - v > 0)
    A, B, U, V = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    formula = FAnd((
        FNot(atom(">", (1, B), (-1, A), (1, U), (-1, V))),
        FNot(atom(">", (1, A), (-1, B), (1, U), (-1, V))),
    ))
    ident = semialgebraic_system(formula, 1, name="identity")
    assert callable(ident.witness)
    x = F(5, 7)
    for n in (0, 3, 100):
        res = apply(ident, name_of_point((x,)), n, 1)
        assert abs(res.value - x) < F(1, n + 1)
    # u = v: only b = a itself, a root, satisfies the formula
    assert ident.witness((x,), 4, 4) == x
    assert ident.witness((x,), 3, 4) is None


def test_equality_atom_witness_is_its_root():
    doc = {"vars": 1, "formula": {"op": "=", "poly": [
        ["1/2", [0, 1, 0, 0]], ["-3/4", [1, 0, 0, 0]], [2, [0, 0, 0, 1]],
    ]}}
    formula, nvars = formula_from_json(doc)
    system = semialgebraic_system(formula, nvars)
    w = system.witness((F(1, 3),), 3, 5)
    assert w == F(3, 2) * F(1, 3) - 4 * F(1, 6)
    assert system.decide(Quadruple((F(1, 3),), 3, w, 5))
    assert not system.decide(Quadruple((F(1, 3),), 3, w + F(1, 1000), 5))


# --- witness for formulas of any degree in b ----------------------------------

B1, B2 = (0, 1, 0, 0), (0, 2, 0, 0)


def test_b_squared_formula_has_a_witness():
    # v - b^2 >= 0 at v = 1: the cell (-1, 1) and its simplest dyadic 0
    system = semialgebraic_system(atom(">=", (1, (0, 0, 0, 1)), (-1, B2)), 1)
    assert callable(system.witness)
    assert system.witness((F(0),), 0, 0) == 0
    # -b^2 >= 0 holds only at the double root 0
    assert semialgebraic_system(atom(">=", (-1, B2)), 1).witness((F(0),), 0, 0) == 0


@pytest.mark.parametrize("k, root", [(4, F(-1, 2)), (9, F(-1, 3)), (2, None)])
def test_curved_witness_finds_rational_roots_only(k, root):
    # k b^2 = 1: only the roots hold; the first rational one is the witness
    formula, _ = formula_from_json({"vars": 1, "formula": {"op": "=", "poly": [
        [k, [0, 2, 0, 0]], [-1, [0, 0, 0, 0]]]}})
    assert semialgebraic_system(formula, 1).witness((F(0),), 0, 0) == root


def test_curved_witness_is_the_simplest_dyadic_of_its_cell():
    # 2 - b^2 > 0 and b - 1 > 0: the cell (1, sqrt 2), whose simplest dyadic is 5/4
    formula = FAnd((atom(">", (2, (0, 0, 0, 0)), (-1, B2)), atom(">", (1, B1), (-1, (0, 0, 0, 0)))))
    assert semialgebraic_system(formula, 1).witness((F(0),), 0, 0) == F(5, 4)
    # b^2 - 2 > 0 cuts at -sqrt 2 and sqrt 2; the first cell in b order wins
    assert semialgebraic_system(atom(">", (1, B2), (-2, (0, 0, 0, 0))), 1).witness(
        (F(0),), 0, 0) == -2


def test_curved_witness_for_a_shared_irrational_root():
    # (b^2 - 2)(b - 3) >= 0 and (b^2 - 2)(b + 3) >= 0 share the roots +-sqrt 2,
    # so the product of the atoms has double roots; only b >= 3 holds
    p = ((1, (0, 3, 0, 0)), (-3, B2), (-2, B1), (6, (0, 0, 0, 0)))
    q = ((1, (0, 3, 0, 0)), (3, B2), (-2, B1), (-6, (0, 0, 0, 0)))
    system = semialgebraic_system(FAnd((atom(">=", *p), atom(">=", *q))), 1)
    assert system.witness((F(0),), 0, 0) == 4
    # at b = 3 exactly p = 0 >= 0: the root is the witness once the cell is gone
    strict = semialgebraic_system(FAnd((atom(">=", *p), atom(">=", *q),
                                        atom(">=", (3, (0, 0, 0, 0)), (-1, B1)))), 1)
    assert strict.witness((F(0),), 0, 0) == 3


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("lo, hi, w", [(F(-5, 2), F(3), 0), (F(-7, 2), F(-1, 2), -1),
                                       (F(1, 3), F(9, 2), 1), (F(1, 3), F(2, 3), F(1, 2))])
def test_witness_picks_the_integer_of_least_magnitude(curved, lo, hi, w):
    # lo < b < hi, as (den(lo) b - num(lo)) (num(hi) - den(hi) b) > 0 when
    # curved, else as two lines
    p1, q1, p2, q2 = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    one = (0, 0, 0, 0)
    if curved:
        formula = atom(">", (-q1 * q2, B2), (q1 * p2 + q2 * p1, B1), (-p1 * p2, one))
    else:
        formula = FAnd((atom(">", (q1, B1), (-p1, one)), atom(">", (p2, one), (-q2, B1))))
    assert semialgebraic_system(formula, 1).witness((F(0),), 0, 0) == w


def _isolated(*ends):
    """The given rationals as roots isolated by Sturm bisection, not exact."""
    poly = reduce(_mul, ([-x.numerator, x.denominator] for x in ends))
    return _isolated_roots(poly)


nonzero_ints = st.integers(-10**6, 10**6).filter(bool)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), nonzero_ints), max_size=8))
def test_linear_roots_are_the_distinct_roots_in_order(rows):
    roots = _linear_roots([list(c) for c in rows])
    assert all(r.lo is r.hi for r in roots)
    assert [r.lo for r in roots] == sorted({F(-c0, c1) for c0, c1 in rows})


@st.composite
def dyadic_intervals(draw):
    """lo < hi: negative, straddling 0, around integers, or narrower than 2^-60."""
    lo = draw(st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    width = draw(st.one_of(
        st.fractions(min_value=0, max_value=5, max_denominator=10**6).filter(bool),
        st.integers(min_value=61, max_value=90).map(lambda k: F(1, 2**k + 1)),
    ))
    return lo, lo + width


@settings(max_examples=150, deadline=None)
@given(dyadic_intervals())
def test_simplest_dyadic_matches_the_grid_loop(ends):
    lo, hi = ends
    expected = simplest_dyadic_reference(lo, hi)
    assert _dyadic_between(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                           lo.denominator * hi.denominator) == expected
    (iso_lo,), (iso_hi,) = _isolated(lo), _isolated(hi)
    for root_lo, root_hi in ((_Root(lo, lo), _Root(hi, hi)), (iso_lo, iso_hi)):
        assert _simplest_dyadic(root_lo, root_hi) == expected
        # an infinite end admits the integer of least magnitude
        assert _simplest_dyadic(root_lo, None) == max(0, math.floor(lo) + 1)
        assert _simplest_dyadic(None, root_hi) == min(0, math.ceil(hi) - 1)
    assert _simplest_dyadic(*_isolated(lo, hi)) == expected
    assert _simplest_dyadic(None, None) == 0


@settings(max_examples=200, deadline=None)
@given(formula_and_quadruple())
def test_curved_witness_satisfies_reference(case):
    # formulas of b-degree up to 3; the drawn b is not used
    formula, dim, q = case
    w = semialgebraic_system(formula, dim).witness(q.a, q.m, q.n)
    if w is not None:
        assert reference_decide(formula, Quadruple(q.a, q.m, w, q.n))


def _poly_in_b(scale, roots):
    """scale * prod (den(r) b - num(r)) as monomials over (a, b, u, v)."""
    coefs = [scale]
    for r in roots:
        lin = [-r.numerator, r.denominator]
        coefs = [sum(coefs[i] * lin[e - i] for i in range(len(coefs)) if 0 <= e - i < 2)
                 for e in range(len(coefs) + 1)]
    return tuple((c, (0, e, 0, 0)) for e, c in enumerate(coefs) if c)


ROOTS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
FACTORED_ATOMS = st.builds(
    lambda op, scale, roots: atom(op, *_poly_in_b(scale, sorted(roots))),
    st.sampled_from([">", ">="]), st.sampled_from([-3, -1, 1, 2]),
    st.sets(ROOTS, max_size=3),
)


# every rational in [-3, 3] with denominator <= 5: all roots FACTORED_ATOMS can have
ROOT_GRID = sorted({F(p, q) for q in range(1, 6) for p in range(-3 * q, 3 * q + 1)})


@settings(max_examples=200, deadline=None)
@given(formulas_of(FACTORED_ATOMS))
def test_curved_witness_complete_on_rational_factors(formula):
    # the roots of every atom lie on ROOT_GRID, so truth is constant between
    # grid neighbours: a formula with no witness fails at every grid point,
    # between every two neighbours and beyond either end
    system = semialgebraic_system(formula, 1)
    w = system.witness((F(0),), 0, 0)
    if w is not None:
        assert reference_decide(formula, Quadruple((F(0),), 0, w, 0))
        return
    probes = ROOT_GRID + [(r + s) / 2 for r, s in zip(ROOT_GRID, ROOT_GRID[1:])] + [F(-4), F(4)]
    for b in probes:
        assert not reference_decide(formula, Quadruple((F(0),), 0, b, 0)), b


# atoms over (a, b, u, v) whose monomials have b-exponent 0 or 1
LINEAR_ATOMS = st.builds(
    lambda op, monos: atom(op, *monos),
    st.sampled_from([">", ">="]),
    st.lists(st.tuples(st.integers(-3, 3), st.tuples(st.integers(0, 2), st.integers(0, 1),
                                                     st.integers(0, 1), st.integers(0, 1))),
             max_size=4),
)
LINEAR_FORMULAS = formulas_of(LINEAR_ATOMS)


def atoms_of(formula):
    """The formula's atoms, left to right."""
    if isinstance(formula, Atom):
        return [formula]
    return [at for f in ([formula.arg] if isinstance(formula, FNot) else formula.args)
            for at in atoms_of(f)]


def linear_roots(formula, a, m, n):
    """The distinct roots -c0/c1 of the formula's atoms, linear in b at (a, m, n)."""
    u, v = F(1, m + 1), F(1, n + 1)
    roots = set()
    for node in atoms_of(formula):
        c0 = eval_poly(tuple((c, e) for c, e in node.poly if e[1] == 0), (a, F(0), u, v))
        c1 = eval_poly(tuple((c, e) for c, e in node.poly if e[1] == 1), (a, F(1), u, v))
        if c1:
            roots.add(-c0 / c1)
    return sorted(roots)


def linear_witness_reference(formula, a, m, n):
    """The witness read off the exact roots: the first cell in b order whose
    simplest dyadic (the integer of least magnitude at an infinite end)
    satisfies the formula, else the first root that does, else None."""
    roots = linear_roots(formula, a, m, n)

    def holds(b):
        return reference_decide(formula, Quadruple((a,), m, b, n))

    for lo, hi in zip([None, *roots], [*roots, None]):
        if lo is None:
            x = F(0) if hi is None else F(min(0, math.ceil(hi) - 1))
        elif hi is None:
            x = F(max(0, math.floor(lo) + 1))
        else:
            x = simplest_dyadic_reference(lo, hi)
        if holds(x):
            return x
    return next((r for r in roots if holds(r)), None)


@settings(max_examples=200, deadline=None)
@given(LINEAR_FORMULAS, st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.integers(0, 6), st.integers(0, 6))
def test_linear_witness_sound_and_complete(formula, a, m, n):
    system = semialgebraic_system(formula, 1)
    assert callable(system.witness)
    w = system.witness((a,), m, n)
    if w is not None:
        assert system.decide(Quadruple((a,), m, w, n))
        return
    # no b holds: truth is constant between roots, so try every root, a
    # point between each two neighbours and a point beyond either end
    roots = linear_roots(formula, a, m, n) or [F(0)]
    probes = roots + [(r + s) / 2 for r, s in zip(roots, roots[1:])]
    probes += [roots[0] - 1, roots[-1] + 1]
    for b in probes:
        assert not system.decide(Quadruple((a,), m, b, n))


def _b_equals(r):
    """b = r as two linear atoms."""
    one = (0, 0, 0, 0)
    return FAnd((atom(">=", (r.denominator, B1), (-r.numerator, one)),
                 atom(">=", (r.numerator, one), (-r.denominator, B1))))


@settings(max_examples=150, deadline=None)
@given(LINEAR_FORMULAS, st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.integers(0, 6), st.integers(0, 6))
@example(FOr((_b_equals(F(3, 2)), _b_equals(F(-1, 3)))), F(0), 0, 0)  # two roots hold, no cell
def test_curved_path_agrees_with_linear_path(formula, a, m, n):
    # b^2 + 1 > 0 changes no truth but sends the witness through Sturm
    # isolation, which must find the same cells, samples and roots as the
    # exact roots of the linear atoms
    curved = FAnd((formula, atom(">", (1, B2), (1, (0, 0, 0, 0)))))
    expected = linear_witness_reference(formula, a, m, n)
    assert semialgebraic_system(formula, 1).witness((a,), m, n) == expected
    assert semialgebraic_system(curved, 1).witness((a,), m, n) == expected


# --- dimension checks -----------------------------------------------------------

@pytest.mark.parametrize("ctor", [
    division_system, maximal_division_system, cosine_system, squaring_system,
], ids=lambda ctor: ctor.__name__)
def test_decide_and_witness_reject_points_of_other_dimension(ctor):
    system = ctor()
    for dim in (system.dim_in - 1, system.dim_in + 1):
        a = (F(1),) * dim
        message = f"^point has dimension {dim}, system {system.name} has dimension {system.dim_in}$"
        with pytest.raises(DimensionError, match=message):
            system.decide(Quadruple(a, 0, F(1), 0))
        with pytest.raises(DimensionError, match=message):
            system.witness(a, 0, 0)
        with pytest.raises(DimensionError, match=message):
            system.membership(Quadruple(a, 0, F(1), 0), 1)
