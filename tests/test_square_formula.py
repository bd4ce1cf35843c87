"""The shipped squaring formula against the nine-atom formula it replaced.

The reference below splits the lower end of the square's range three ways:
0 inside the ball, the ball right of 0, the ball left of 0.  The shipped
formula states the same range in two cases, in six atoms, so both must
accept the same quadruples, put their roots in b at the same places and so
return the same witnesses.  Each of the six atoms is needed: without it,
decide changes on some quadruple.
"""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from approxsys.core import Quadruple
from approxsys.systems import (
    Atom,
    FAnd,
    FOr,
    _truth,
    atom,
    semialgebraic_system,
    squaring_formula,
    squaring_system,
)


def reference_formula():
    """x |-> x^2 with the infimum split three ways; variables (a, b, u, v)."""
    A = (1, 0, 0, 0)
    B = (0, 1, 0, 0)
    U = (0, 0, 1, 0)
    V = (0, 0, 0, 1)
    AA = (2, 0, 0, 0)
    AU = (1, 0, 1, 0)
    UU = (0, 0, 2, 0)

    upper_plus = atom(">=", (1, B), (1, V), (-1, AA), (-2, AU), (-1, UU))
    upper_minus = atom(">=", (1, B), (1, V), (-1, AA), (2, AU), (-1, UU))
    zero_inside = FAnd((
        atom(">", (1, U), (-1, A)),
        atom(">", (1, U), (1, A)),
        atom(">", (1, V), (-1, B)),
    ))
    right_of_zero = FAnd((
        atom(">=", (1, A), (-1, U)),
        atom(">=", (1, AA), (-2, AU), (1, UU), (-1, B), (1, V)),
    ))
    left_of_zero = FAnd((
        atom(">=", (-1, A), (-1, U)),
        atom(">=", (1, AA), (2, AU), (1, UU), (-1, B), (1, V)),
    ))
    return FAnd((upper_plus, upper_minus, FOr((zero_inside, right_of_zero, left_of_zero))))


REFERENCE = semialgebraic_system(reference_formula(), 1)
SHIPPED = semialgebraic_system(squaring_formula()[0], 1)


def atoms(formula):
    found = []
    _truth(formula, 1, found)
    return len(found)


def edges(a, m, n):
    """The b at which some atom of either formula changes sign at (a, m, n):
    each end square minus and plus v, and v itself."""
    u, v = F(1, m + 1), F(1, n + 1)
    return [(a - u) ** 2 - v, (a + u) ** 2 - v, v, (a - u) ** 2 + v, (a + u) ** 2 + v]


def assert_same(a, m, b, n):
    q = Quadruple((a,), m, b, n)
    assert SHIPPED.decide(q) == REFERENCE.decide(q), q


def without_atom(formula, i):
    """The formula with its i-th atom, left to right, replaced by true (an
    empty conjunction)."""
    seen = []

    def walk(node):
        if isinstance(node, Atom):
            seen.append(node)
            return FAnd(()) if len(seen) == i + 1 else node
        return type(node)(tuple(map(walk, node.args)))

    return walk(formula)


def test_the_lower_end_has_two_cases_in_six_atoms():
    formula, nvars = squaring_formula()
    assert nvars == 1
    assert atoms(formula) == 6 and atoms(reference_formula()) == 9
    assert len(formula.args[2].args) == 2


# per atom of squaring_formula(), in order, a quadruple (a, m, b, n) that the
# formula rejects and accepts once that atom is dropped
NEEDS = [
    (F(1), 0, F(0), 0),  # b + v >= (a+u)^2
    (F(-1), 0, F(0), 0),  # b + v >= (a-u)^2
    (F(0), 0, F(1), 0),  # v - b > 0
    (F(0), 0, F(1), 0),  # a^2 - u^2 >= 0
    (F(1), 0, F(3), 0),  # (a-u)^2 - b + v >= 0
    (F(-1), 0, F(3), 0),  # (a+u)^2 - b + v >= 0
]


@pytest.mark.parametrize("i", range(6))
def test_every_atom_is_needed(i):
    formula = squaring_formula()[0]
    dropped = semialgebraic_system(without_atom(formula, i), 1)
    a, m, b, n = NEEDS[i]
    q = Quadruple((a,), m, b, n)
    assert not SHIPPED.decide(q) and dropped.decide(q)


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=-8, max_value=8, max_denominator=40), st.integers(0, 40),
       st.fractions(min_value=-2, max_value=80, max_denominator=40), st.integers(0, 40))
def test_decide_and_witness_match_the_reference(a, m, b, n):
    assert_same(a, m, b, n)
    for edge in edges(a, m, n):
        assert_same(a, m, edge, n)
    assert SHIPPED.witness((a,), m, n) == REFERENCE.witness((a,), m, n)


def test_decide_and_witness_match_the_reference_at_the_edges():
    # |a| = 1/(m+1) puts 0 on the edge of the ball; each b sits on a root of
    # some atom, just below it or just above it
    tiny = F(1, 10**9)
    for m, n in product(range(7), range(7)):
        u = F(1, m + 1)
        for a in (u, -u, u - tiny, -u + tiny, u + tiny, -u - tiny, F(0), 2 * u, -3 * u, F(7, 3)):
            for b, shift in product(edges(a, m, n), (0, tiny, -tiny)):
                assert_same(a, m, b + shift, n)
            assert SHIPPED.witness((a,), m, n) == REFERENCE.witness((a,), m, n)


def test_the_first_300_members_are_the_reference_members():
    assert squaring_system().members_prefix(300) == REFERENCE.members_prefix(300)
