"""The mutation table: small deliberate faults that the named tests must
catch.

Each row names a file under the repository root, a snippet that occurs
exactly once in it, the text that replaces the snippet, and the test files
that must fail once it is replaced.  `mutation/run.py` applies the rows one
at a time to a temporary copy and runs their tests; `tests/test_mutants.py`
checks, in the tier-1 suite, that every snippet still occurs exactly once,
so that an edit to a mutated line shows up as a failure there.  A change to
a line that a snippet names updates the row, or retires it with a reason.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


SYSTEMS = "src/approxsys/systems.py"
VERIFY = "src/approxsys/verify.py"
CORE = "src/approxsys/core.py"

MUTANTS = (
    # --- the quotient range, shared by maximal division and the division oracle
    Mutant(
        "quotient range: big and small denominators swapped at the lower end",
        SYSTEMS,
        "return x_lo, y_big if x_lo >= 0 else y_small, x_hi,",
        "return x_lo, y_small if x_lo >= 0 else y_big, x_hi,",
        ("tests/test_systems.py",),
    ),
    Mutant(
        "quotient range: a box whose x2-side ends at 0 is kept",
        SYSTEMS,
        "if M * abs(p2) <= q2:",
        "if M * abs(p2) < q2:",
        ("tests/test_systems.py",),
    ),
    Mutant(
        "quotient range: the lower x1 end moved out by one more radius",
        SYSTEMS,
        "(M * p1 - q1) * q2",
        "(M * p1 - 2 * q1) * q2",
        ("tests/test_systems.py",),
    ),
    Mutant(
        "division oracle: ends flagged as reached inside the box",
        VERIFY,
        "((x_lo, y_lo), (x_hi, y_hi), True, True)",
        "((x_lo, y_lo), (x_hi, y_hi), False, False)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "maximal division: the lower end may not touch b - 1/(n+1)",
        SYSTEMS,
        "N * (pb * y_lo - x_lo * qb) <= qb * y_lo",
        "N * (pb * y_lo - x_lo * qb) < qb * y_lo",
        ("tests/test_systems.py",),
    ),
    # --- the division screen and the scan
    Mutant(
        "quotient key: the sign of a2 dropped",
        SYSTEMS,
        "g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)",
        "g = math.gcd(num, den)",
        ("tests/test_systems.py",),
    ),
    Mutant(
        "screened walk: every member's code one too high",
        CORE,
        "codes = [k - r + h for h in hits]",
        "codes = [k - r + h + 1 for h in hits]",
        ("tests/test_core.py",),
    ),
    # --- the cosine system and its oracle
    Mutant(
        "sigma_k: the half term doubled",
        SYSTEMS,
        "return total + sign * _half_term(a, k)",
        "return total + sign * 2 * _half_term(a, k)",
        ("tests/test_systems.py",),
    ),
    Mutant(
        "cosine enclosure: the parities of a multiple of pi swapped",
        VERIFY,
        "lo, hi = (bottom, hi) if k_lo % 2 else (lo, top)",
        "lo, hi = (lo, top) if k_lo % 2 else (bottom, hi)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "cosine enclosure: no widening to 1 or -1 at one multiple of pi",
        VERIFY,
        "if k_lo == k_hi:",
        "if k_lo == k_hi and False:",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "cosine enclosure: the end values widened by one eps instead of two",
        VERIFY,
        "(t1 * ed - 2 * en * s1, s1 * ed)",
        "(t1 * ed - en * s1, s1 * ed)",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "cosine enclosure: both parities widened by one eps instead of two",
        VERIFY,
        "return Enclosure(bottom, top)",
        "return Enclosure(bottom, (ed + en, ed))",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "condition 1: an inexact oracle proves at eps, not eps/1000",
        VERIFY,
        "ped = _REFINE * ed",
        "ped = ed",
        ("tests/test_verify.py",),
    ),
    # --- the square oracle
    Mutant(
        "square oracle: 0 inside the interval flagged as reached on the boundary",
        VERIFY,
        "return Enclosure((0, 1), (high, D), False, True)",
        "return Enclosure((0, 1), (high, D), True, True)",
        ("tests/test_verify.py",),
    ),
)
