import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from approxsys.core import ApproxSystem
from approxsys.names import CauchyName, OrdinaryName
from approxsys.systems import division_system

# mutation/run.py runs its tests under this profile: the first failing
# example kills a mutant, so failing examples are neither shrunk nor stored.
settings.register_profile("mutation", phases=(Phase.explicit, Phase.generate), database=None)

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail record survives output capturing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class EnumerableDivision(ApproxSystem):
    """Division's members, reachable only through the enumeration: no decide
    and no witness, so membership scans codes and apply dovetails."""

    dim_in = 2
    name = "division-enumerable"

    def enumerate(self, k):
        return division_system().enumerate(k)


def corners(a, m):
    """Fraction reference for maximal division's four corner values
    (M a1 + e1)/(M a2 + e2), M = m + 1, in the order e1, e2 = (1, 1), (1, -1),
    (-1, 1), (-1, -1)."""
    a1, a2 = a
    M = m + 1
    return [(M * a1 + e1) / (M * a2 + e2) for e1 in (1, -1) for e2 in (1, -1)]


def rand_rat(rng: random.Random, max_num: int = 64, max_den: int = 16) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture(params=["utf-16", "2000-deep"])
def unreadable_formula_file(request, tmp_path):
    """A formula file that holds no readable formula: UTF-16 text, which
    starts with the bytes ff fe, or a chain of 2,000 "not" nodes, deeper
    than Python's default recursion limit."""
    path = tmp_path / f"{request.param}.json"
    atom = '{"op": ">", "poly": [[1, [0, 0, 0, 0]]]}'
    if request.param == "utf-16":
        path.write_bytes(b"\xff\xfe" + f'{{"vars": 1, "formula": {atom}}}'.encode("utf-16-le"))
    else:
        path.write_text('{"vars": 1, "formula": ' + '{"not": ' * 2000 + atom + "}" * 2001)
    return path


def edge_cauchy_name(point):
    """A Cauchy name of `point` with every point exactly at its bound:
    h(k) = point + 2^-k in each coordinate."""
    return CauchyName(lambda k: tuple(x + Fraction(1, 2**k) for x in point), dim=len(point))


def edge_ordinary_name(point):
    """An ordinary name of `point` just inside its bound, on alternating sides:
    f(j) = point ± (1 - 2^-(j+8))/(j+1), the sign alternating with j (and
    with the coordinate)."""
    def fun(j):
        r = (1 - Fraction(1, 2 ** (j + 8))) / (j + 1)
        return tuple(x + r * (-1) ** (j + c) for c, x in enumerate(point))

    return OrdinaryName(fun, dim=len(point))
