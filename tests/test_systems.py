import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from approxsys.core import Membership, Quadruple
from approxsys.errors import FormatError
from approxsys.evaluate import apply
from approxsys.names import name_of_point
from approxsys.systems import (
    Atom,
    FAnd,
    FNot,
    FOr,
    _atoms,
    _corners,
    _eval_poly,
    atom,
    cosine_system,
    division_system,
    eval_formula,
    fand,
    fnot,
    for_,
    formula_from_json,
    formula_to_json,
    load_formula,
    maximal_division_system,
    semialgebraic_system,
    sigma_k,
    squaring_formula,
    squaring_system,
)
from approxsys.verify import cos_taylor

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


# --- maximal division ------------------------------------------------------

def test_corner_values_frozen():
    assert _corners((F(1), F(3)), 1) == [F(3, 7), F(3, 5), F(1, 7), F(1, 5)]
    assert _corners((F(1), F(3)), 0) == [F(1, 2), F(1), F(0), F(0)]


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
    for k in range(K):
        if a * a > (2 * k + 1) * (2 * k + 2):
            continue
        e = F(a) ** (2 * k) / (2 * math.factorial(2 * k))
        s = sum(
            (-1) ** i * F(a) ** (2 * i) / math.factorial(2 * i) for i in range(k)
        )
        s += (-1) ** k * e
        if abs(b - s) + e + F(1, m + 1) <= F(1, n + 1):
            return True
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


# --- formulas ----------------------------------------------------------------

def test_eval_poly_frozen():
    # 2*a^2*v - 3*b over (a, b, u, v)
    poly = ((2, (2, 0, 0, 1)), (-3, (0, 1, 0, 0)))
    assert _eval_poly(poly, (F(3), F(2), F(0), F(1, 2))) == 2 * 9 * F(1, 2) - 6
    assert _eval_poly((), (F(1), F(1), F(1), F(1))) == 0


@given(st.lists(st.tuples(st.integers(-5, 5), st.tuples(*[st.integers(0, 3)] * 4))))
def test_eval_poly_additive(monos):
    poly = tuple(monos)
    vals = (F(2, 3), F(-1, 2), F(5), F(0))
    total = sum(
        (F(c) * vals[0] ** e0 * vals[1] ** e1 * vals[2] ** e2 * vals[3] ** e3
         for c, (e0, e1, e2, e3) in poly),
        F(0),
    )
    assert _eval_poly(poly, vals) == total


def test_formula_connective_semantics():
    yes = atom(">=", (0, (0, 0, 0, 0)))
    no = atom(">", (0, (0, 0, 0, 0)))
    vals = (F(0), F(0), F(1), F(1))
    assert eval_formula(yes, vals) and not eval_formula(no, vals)
    assert eval_formula(fand(), vals)
    assert not eval_formula(for_(), vals)
    assert eval_formula(fand(yes, yes), vals)
    assert not eval_formula(fand(yes, no), vals)
    assert eval_formula(for_(no, yes), vals)
    assert eval_formula(fnot(no), vals)
    assert not eval_formula(fnot(yes), vals)


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
    import json

    again, _ = formula_from_json(json.loads(json.dumps(doc)))
    assert again == formula


def test_formula_from_json_accepts_bare_not():
    doc = {
        "vars": 1,
        "formula": {"not": {"op": ">", "poly": [[1, [1, 0, 0, 0]]]}},
    }
    formula, _ = formula_from_json(doc)
    assert formula == fnot(atom(">", (1, (1, 0, 0, 0))))


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
    assert formula == fand(atom(">=", (1, (0, 1, 0, 0)), (-2, (1, 0, 0, 0))),
                           atom(">=", (-1, (0, 1, 0, 0)), (2, (1, 0, 0, 0))))
    assert eval_formula(formula, (F(1), F(2), F(1), F(1)))
    assert not eval_formula(formula, (F(1), F(3), F(1), F(1)))


@pytest.mark.parametrize("doc", BAD_DOCS)
def test_formula_from_json_rejects_malformed(doc):
    with pytest.raises(FormatError):
        formula_from_json(doc)


def test_load_formula_from_file(tmp_path):
    import json

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


def test_semialgebraic_dimension_mismatch():
    formula, _ = squaring_formula()
    with pytest.raises(FormatError):
        semialgebraic_system(formula, 2)


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
    formula = fand(
        fnot(atom(">", (1, B), (-1, A), (1, U), (-1, V))),
        fnot(atom(">", (1, A), (-1, B), (1, U), (-1, V))),
    )
    ident = semialgebraic_system(formula, 1, name="identity")
    assert ident.provides_witness
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


def test_b_squared_formula_has_no_witness():
    formula = atom(">=", (1, (0, 0, 0, 1)), (-1, (0, 2, 0, 0)))
    system = semialgebraic_system(formula, 1)
    assert not system.provides_witness
    assert system.witness((F(0),), 0, 0) is None


# atoms over (a, b, u, v) whose monomials have b-exponent 0 or 1
LINEAR_ATOMS = st.builds(
    lambda op, monos: atom(op, *monos),
    st.sampled_from([">", ">="]),
    st.lists(st.tuples(st.integers(-3, 3), st.tuples(st.integers(0, 2), st.integers(0, 1),
                                                     st.integers(0, 1), st.integers(0, 1))),
             max_size=4),
)
LINEAR_FORMULAS = st.recursive(
    LINEAR_ATOMS,
    lambda sub: st.one_of(
        st.lists(sub, max_size=3).map(lambda fs: fand(*fs)),
        st.lists(sub, max_size=3).map(lambda fs: for_(*fs)),
        sub.map(fnot),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(LINEAR_FORMULAS, st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.integers(0, 6), st.integers(0, 6))
def test_linear_witness_sound_and_complete(formula, a, m, n):
    system = semialgebraic_system(formula, 1)
    assert system.provides_witness
    w = system.witness((a,), m, n)
    if w is not None:
        assert system.decide(Quadruple((a,), m, w, n))
        return
    # no b holds: truth is constant between roots, so try every root, a
    # point between each two neighbours and a point beyond either end
    u, v = F(1, m + 1), F(1, n + 1)
    roots = set()
    for node in _atoms(formula):
        c0 = _eval_poly(tuple((c, e) for c, e in node.poly if e[1] == 0), (a, F(0), u, v))
        c1 = _eval_poly(tuple((c, e) for c, e in node.poly if e[1] == 1), (a, F(1), u, v))
        if c1:
            roots.add(-c0 / c1)
    roots = sorted(roots) or [F(0)]
    probes = roots + [(r + s) / 2 for r, s in zip(roots, roots[1:])]
    probes += [roots[0] - 1, roots[-1] + 1]
    for b in probes:
        assert not system.decide(Quadruple((a,), m, b, n))

