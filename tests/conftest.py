import random
from fractions import Fraction

import pytest

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail record survives output capturing.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
