"""The README's library example runs and keeps what its comments promise."""

import re
from fractions import Fraction as F
from pathlib import Path

from approxsys.verify import cos_taylor

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert scope["res"].value == F(1, 3)
    (cos1,) = scope["cos_name"].approx(99)
    tol = F(1, 10**9)
    assert abs(cos1 - cos_taylor(F(1), tol)) < F(1, 100) - tol
