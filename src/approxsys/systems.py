"""Built-in approximation systems: division, maximal division, cosine and
square, and semialgebraic systems defined by a formula.

Each system is a decidable quadruple predicate, which DecidableSystem scans;
the constructors return shared singletons so enumeration caches are reused.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, List, Optional, Tuple

from .core import DecidableSystem, Modulus, Quadruple
from .errors import FormatError
from .numerics import Point, Rat, as_rat, rat_div

# --- division ----------------------------------------------------------------

def _division_decide(q: Quadruple) -> bool:
    # b must be the exact quotient, and the input radius small enough that
    # every point of the ball keeps the quotient within 1/(n+1):
    # sup |x1/x2 - b| over the ball is (1/(m+1)) * (|b| + 1/(m+1) + ...); the
    # closed form (m+1)|a2| >= 1 + (n+1)(|b|+1) is the test that bounds it
    # strictly.  Both tests are cross-multiplied by the positive
    # denominators of a1 = p1/q1, a2 = p2/q2, b = pb/qb, so they run on
    # integers.
    a1, a2 = q.a
    p1, q1 = a1.as_integer_ratio()
    p2, q2 = a2.as_integer_ratio()
    pb, qb = q.b.as_integer_ratio()
    if p2 * pb * q1 != p1 * q2 * qb:
        return False
    return (q.m + 1) * abs(p2) * qb >= q2 * (qb + (q.n + 1) * (abs(pb) + qb))


def _division_witness(a: Point, m: int, n: int) -> Optional[Rat]:
    return rat_div(*a) if a[1] else None


def _division_modulus(a: Optional[Point], n: int) -> Optional[int]:
    """The least m at which decide accepts the exact quotient b = a1/a2:
    M = m+1 >= (1 + (n+1)(|b| + 1))/|a2|, decide's test with b's numerator
    and denominator p1 q2 and q1 p2, divided by q1 p2^2 and rounded up."""
    if a is None:
        return n
    (p1, q1), (p2, q2) = a[0].as_integer_ratio(), a[1].as_integer_ratio()
    if not p2:
        return None
    d = q1 * abs(p2)
    return -(-q2 * (d + (n + 1) * (abs(p1) * q2 + d)) // (d * abs(p2))) - 1


def _quotient_key(a: Point) -> Optional[Tuple[int, int]]:
    """The scan's point key: a1/a2 in lowest terms, None where decide
    always rejects (a2 = 0).  b.as_integer_ratio(), the tail key, equals it
    whenever decide accepts, since decide tests b == a1/a2.  Built from
    the ratios p1 q2 / (q1 p2) and one gcd, with no Fraction division."""
    (p1, q1), (p2, q2) = a[0].as_integer_ratio(), a[1].as_integer_ratio()
    if not p2:
        return None
    num, den = p1 * q2, q1 * p2
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


@lru_cache(maxsize=None)
def division_system() -> DecidableSystem:
    """Approximation system for (x1, x2) |-> x1/x2 on x2 != 0."""
    return DecidableSystem(
        _division_decide,
        dim=2,
        witness=_division_witness,
        name="division",
        modulus=_division_modulus,
        screen=(_quotient_key, lambda m, b, n: b.as_integer_ratio()),
    )


# --- maximal division ---------------------------------------------------------

def _quotient_range(a: Point, m: int) -> Optional[Tuple[int, int, int, int]]:
    """(x_lo, y_lo, x_hi, y_hi), y > 0, for the least x_lo/y_lo and the greatest
    x_hi/y_hi of (a1 + s)/(a2 + t) over |s|, |t| <= 1/(m+1); None unless
    (m+1)|a2| > 1 bounds the denominator away from zero.

    The extremes are corners.  With M = m+1, a1 = p1/q1, a2 = p2/q2 and
    p2 > 0, as (-a1, -a2) has the same corners, the corner
    (M a1 + e1)/(M a2 + e2) is x/y for x = (M p1 + e1 q1) q2 and
    y = (M p2 + e2 q2) q1 > 0.  e1 = 1 gives the greater x, and for the y
    of e2 = -1 and 1, y- < y+, x/y- >= x/y+ iff x >= 0.  The same range is
    the division oracle's enclosure (verify._DivisionOracle.enclose).
    """
    (p1, q1), (p2, q2) = a[0].as_integer_ratio(), a[1].as_integer_ratio()
    M = m + 1
    if M * abs(p2) <= q2:
        return None
    if p2 < 0:
        p1, p2 = -p1, -p2
    x_hi, x_lo = (M * p1 + q1) * q2, (M * p1 - q1) * q2
    y_big, y_small = (M * p2 + q2) * q1, (M * p2 - q2) * q1
    return x_lo, y_big if x_lo >= 0 else y_small, x_hi, y_small if x_hi >= 0 else y_big


def _maximal_division_decide(q: Quadruple) -> bool:
    # Accept iff the quotient's range over the *closed* ball of radius 1/(m+1)
    # around a lies in [b - 1/N, b + 1/N] for N = n+1 and b = pb/qb: two end
    # tests, multiplied by N qb y > 0 to run on integers.
    if (ends := _quotient_range(q.a, q.m)) is None:
        return False
    x_lo, y_lo, x_hi, y_hi = ends
    pb, qb = q.b.as_integer_ratio()
    N = q.n + 1
    return N * (pb * y_lo - x_lo * qb) <= qb * y_lo and N * (x_hi * qb - pb * y_hi) <= qb * y_hi


def _maximal_division_witness(a: Point, m: int, n: int) -> Optional[Rat]:
    # The range's midpoint, which decide accepts whenever it accepts any b.
    if (ends := _quotient_range(a, m)) is None:
        return None
    x_lo, y_lo, x_hi, y_hi = ends
    return Fraction(x_hi * y_lo + x_lo * y_hi, 2 * y_hi * y_lo)


@lru_cache(maxsize=None)
def maximal_division_system() -> DecidableSystem:
    """The largest sound system for division: (a, m, b, n) is a member iff
    the quotient's corner range on the closed ball (`_quotient_range`) lies
    in [b - 1/(n+1), b + 1/(n+1)], exactly when the division oracle's
    enclosure proves the ball."""
    return DecidableSystem(
        _maximal_division_decide,
        dim=2,
        witness=_maximal_division_witness,
        name="maximal-division",
    )


# --- simplest dyadics ------------------------------------------------------------

def _simplest_on_grid(A, B, k: int) -> Rat:
    """The simplest of the dyadics j/2^k, A <= j <= B: the integer of least
    magnitude if one is among them, else the j/2^i with the least i, which
    is unique (two neighbours on the 2^-i grid include one on the 2^-(i-1)
    grid).  At k = 0 either end may be infinite.

    The simplest is the j with the most trailing zeros: B cut below the
    highest bit where A - 1 and B differ.  When A..B are all the grid
    points inside an interval, the pick is the same at every such k.
    """
    if A <= 0 <= B:
        return Fraction(0)
    if B < 0:
        return -_simplest_on_grid(-B, -A, k)
    j = -(-A >> k)  # the least integer at or above A/2^k
    if j << k <= B:
        return Fraction(j)
    h = ((A - 1) ^ B).bit_length() - 1
    return Fraction(B >> h, 1 << (k - h))


def _dyadic_between(lo: int, hi: int, t: int) -> Rat:
    """The simplest dyadic strictly inside (lo/t, hi/t), lo < hi and t > 0.

    2^K > t/(hi - lo) widens the scaled interval past 1, so the integers A..B
    strictly inside it are not empty; they are the interval's dyadics of
    denominator dividing 2^K.
    """
    K = (t // (hi - lo)).bit_length()
    return _simplest_on_grid((lo << K) // t + 1, -((-hi << K) // t) - 1, K)


# --- cosine -------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _cos_power_term(a: Rat, k: int) -> Rat:
    """a^(2k) / (2k)!, a Fraction also for an int a."""
    return Fraction(a) ** (2 * k) / math.factorial(2 * k)


def _half_term(a: Rat, k: int) -> Rat:
    """e_k = a^(2k) / (2 * (2k)!), the split last term of sigma_k."""
    return _cos_power_term(a, k) / 2


@lru_cache(maxsize=65536)
def sigma_k(a: Rat, k: int) -> Rat:
    """Taylor midpoint: full cosine terms below k plus half the k-th term.

    sigma_k(a) = sum_{i<k} (-1)^i a^(2i)/(2i)! + (-1)^k a^(2k)/(2*(2k)!).
    Once a^2 <= (2k+1)(2k+2) the tail alternates with decreasing terms, so
    |cos a - sigma_k(a)| <= e_k.  Note sigma_0(a) = 1/2 for every a.
    """
    total = Fraction(0)
    sign = 1
    for i in range(k):
        total += sign * _cos_power_term(a, i)
        sign = -sign
    return total + sign * _half_term(a, k)


def _cos_k0(a2: Rat) -> int:
    k = 0
    while a2 > (2 * k + 1) * (2 * k + 2):
        k += 1
    return k


# Safety net for the membership scan.  The scan provably terminates (see
# _cosine_decide); the cap only turns an unnoticed bug into a loud error.
_COSINE_SCAN_CAP = 10_000


def _cosine_decide(q: Quadruple) -> bool:
    """Exact test for: some k has a^2 <= (2k+1)(2k+2) and
    |b - sigma_k(a)| + e_k + 1/(m+1) <= 1/(n+1).

    Writing g = 1/(n+1) - 1/(m+1) and F_k = |b - sigma_k(a)| + e_k, the scan
    from the first admissible k accepts on F_k <= g and rejects when
    F_k - 2 e_k > g: since F_k - 2 e_k <= |b - cos a| <= F_j for every
    admissible j, no later k can succeed.  Between the two rules lies
    g in [F_k - 2 e_k, F_k), and e_k -> 0 squeezes F_k -> |b - cos a|; the
    limit can hang only if |b - cos a| = g exactly, which is impossible:
    for a != 0 cos a is irrational while b and g are rational, and for a = 0
    the terms e_k vanish from k = 1 on, deciding immediately.
    """
    (a,) = q.a
    g = Fraction(1, q.n + 1) - Fraction(1, q.m + 1)
    if g < 0:
        return False
    k = _cos_k0(a * a)
    for _ in range(_COSINE_SCAN_CAP):
        e = _half_term(a, k)
        f = abs(q.b - sigma_k(a, k)) + e
        if f <= g:
            return True
        if f - 2 * e > g:
            return False
        k += 1
    raise AssertionError("cosine membership scan failed to terminate")


def _cosine_witness(a_pt: Point, m: int, n: int) -> Optional[Rat]:
    """The simplest dyadic strictly within r = g - e_k of sigma_k(a), at the
    first admissible k with e_k < g, so r > 0.

    decide accepts such a b at k, since |b - sigma_k| + e_k < g, and rejects
    it at no earlier j, since F_j - 2 e_j <= |b - cos a| < g.  The output
    has O(log(1/r)) bits, where sigma_k has thousands at a large a.
    """
    (a,) = a_pt
    g = Fraction(1, n + 1) - Fraction(1, m + 1)
    if g <= 0:  # only the degenerate a = 0 quadruples admit equality
        return Fraction(1) if g == 0 and a == 0 else None
    k = _cos_k0(a * a)
    while (e := _half_term(a, k)) >= g:  # ends, since e_k -> 0 and g > 0
        k += 1
    s = sigma_k(a, k)
    # over t = Q D G: sigma = P/Q, e = E/D, g = (m - n)/G with G = (n+1)(m+1)
    P, Q, E, D, G = s.numerator, s.denominator, e.numerator, e.denominator, (n + 1) * (m + 1)
    mid, r = P * D * G, Q * ((m - n) * D - E * G)
    return _dyadic_between(mid - r, mid + r, Q * D * G)


def _cosine_modulus(a: Optional[Point], n: int) -> int:
    """2n+1 at every point: at m = n the slack g is 0 and the witness serves
    a = 0 alone, and m = 2n+1 leaves half the output radius, g = 1/(2n+2),
    for the Taylor error."""
    return 2 * n + 1


@lru_cache(maxsize=None)
def cosine_system() -> DecidableSystem:
    """Approximation system for x |-> cos x via midpoint Taylor sections."""
    return DecidableSystem(
        _cosine_decide,
        dim=1,
        witness=_cosine_witness,
        name="cosine",
        modulus=_cosine_modulus,
    )


# --- semialgebraic systems ----------------------------------------------------

# A polynomial over (a_1..a_N, b, u, v) is a tuple of monomials
# (coefficient, exponent-vector), exponent vectors of length N + 3.
Poly = Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class Atom:
    op: str  # ">" or ">="
    poly: Poly


@dataclass(frozen=True)
class FAnd:
    args: Tuple["Formula", ...]


@dataclass(frozen=True)
class FOr:
    args: Tuple["Formula", ...]


@dataclass(frozen=True)
class FNot:
    arg: "Formula"


# A string, not a typing.Union: typing caches Union[...] with its arguments,
# and the cache would keep every imported copy of this module alive.
Formula = "Union[Atom, FAnd, FOr, FNot]"


def atom(op: str, *monomials) -> Atom:
    return Atom(op, tuple((c, tuple(e)) for c, e in monomials))


def _truth(formula: Formula, nvars: int, atoms: List[Atom]) -> Callable[[List[List[int]], Rat], bool]:
    """holds(rows, b), the formula's truth at b, where rows[i] is the row of
    atoms[i] in _compile's evaluator and _sign_at takes its sign.

    Appends the formula's atoms to `atoms`, left to right, checking each as
    it goes; FormatError on the first bad atom, or on reaching a node that
    is no Atom, FAnd, FOr or FNot.
    """
    if isinstance(formula, Atom):
        if formula.op not in (">", ">="):
            raise FormatError(f"unknown comparison {formula.op!r}")
        for coef, exps in formula.poly:
            if isinstance(coef, bool) or not isinstance(coef, int):
                raise FormatError("polynomial coefficients must be integers")
            if len(exps) != nvars + 3:
                raise FormatError(f"exponent vector of length {len(exps)}, expected {nvars + 3}")
            if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
                raise FormatError("exponents must be natural numbers")
        i, strict = len(atoms), formula.op == ">"
        atoms.append(formula)
        return lambda rows, b: _sign_at(rows[i], b) >= strict
    if isinstance(formula, FNot):
        arg = _truth(formula.arg, nvars, atoms)
        return lambda rows, b: not arg(rows, b)
    if not isinstance(formula, (FAnd, FOr)):
        raise FormatError(f"not a formula node: {formula!r}")
    args = [_truth(f, nvars, atoms) for f in formula.args]
    decisive = isinstance(formula, FOr)  # the value that ends an or (and)

    def holds(rows: List[List[int]], b: Rat) -> bool:
        for f in args:
            if f(rows, b) is decisive:
                return decisive
        return not decisive

    return holds


def _compile(formula: Formula, dim: int):
    """(coefficients, holds): the formula's integer evaluator and its truth test.

    coefficients(a, m, n) gives per atom [c_0, .., c_deg], for deg >= 1 the
    formula's degree in b, with D * atom = sum_e c_e * b^e, where
    D = prod_x den(x)^top(x) > 0 over x in (a_1..a_N, u, v) and top(x) is
    x's largest exponent in the formula:
    monomial coef * prod_x x^e adds coef * prod_x num(x)^e * den(x)^(top(x) - e)
    to c at b's exponent.  Scaling by D keeps every sign and every root in b.
    Only the (x, e) pairs some monomial uses are raised, so the cost follows
    the formula's powers, not every power below top(x).
    holds(rows, b), for rows = coefficients(a, m, n), is the formula's truth at b.
    FormatError, from _truth, on a malformed formula.
    """
    atoms: List[Atom] = []
    holds = _truth(formula, dim, atoms)
    others = [i for i in range(dim + 3) if i != dim]
    top = [max((e[i] for at in atoms for _, e in at.poly), default=0) for i in others]
    deg = max([1, *(e[dim] for at in atoms for _, e in at.poly)])
    # num(x)^e * den(x)^(top(x) - e) sits at index where[x, e] of one flat list
    pairs = sorted({(x, e[i]) for at in atoms for _, e in at.poly for x, i in enumerate(others)})
    where = {pair: j for j, pair in enumerate(pairs)}
    monomials = [[(c, e[dim], [where[x, e[i]] for x, i in enumerate(others)]) for c, e in at.poly]
                 for at in atoms]

    def coefficients(a: Point, m: int, n: int) -> List[List[int]]:
        fracs = [x.as_integer_ratio() for x in a] + [(1, m + 1), (1, n + 1)]
        pows = [fracs[x][0] ** e * fracs[x][1] ** (top[x] - e) for x, e in pairs]
        rows = []
        for monos in monomials:
            c = [0] * (deg + 1)
            for coef, eb, where in monos:
                term = coef
                for j in where:
                    term *= pows[j]
                c[eb] += term
            rows.append(c)
        return rows

    return coefficients, holds


def formula_to_json(formula: Formula, nvars: int) -> dict:
    def tree(node: Formula):
        if isinstance(node, Atom):
            return {"op": node.op, "poly": [[c, list(e)] for c, e in node.poly]}
        if isinstance(node, FAnd):
            return {"and": [tree(f) for f in node.args]}
        if isinstance(node, FOr):
            return {"or": [tree(f) for f in node.args]}
        return {"not": [tree(node.arg)]}

    return {"vars": nvars, "formula": tree(formula)}


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_coef(coef) -> Rat:
    """A JSON coefficient: an integer, or a string "p" or "p/q"."""
    if isinstance(coef, int) and not isinstance(coef, bool):
        return Fraction(coef)
    if isinstance(coef, str) and _RATIONAL.fullmatch(coef):
        return as_rat(coef)  # FormatError on a zero denominator or past the digit limit
    raise FormatError(f'polynomial coefficients must be integers or "p/q" strings: {coef!r}')


def formula_from_json(doc) -> Tuple[Formula, int]:
    """Parse the on-disk formula format; FormatError on any malformation."""
    try:
        return _formula_from_json(doc)
    except RecursionError as exc:
        raise FormatError("formula nests too deeply") from exc


def _formula_from_json(doc) -> Tuple[Formula, int]:
    """formula_from_json, letting RecursionError through."""
    if not isinstance(doc, dict) or set(doc) != {"vars", "formula"}:
        raise FormatError('formula document must have exactly "vars" and "formula"')
    nvars = doc["vars"]
    if isinstance(nvars, bool) or not isinstance(nvars, int) or nvars < 1:
        raise FormatError('"vars" must be a positive integer')

    def tree(node) -> Formula:
        if not isinstance(node, dict):
            raise FormatError(f"formula node must be an object: {node!r}")
        if set(node) == {"op", "poly"}:
            if not isinstance(node["poly"], list):
                raise FormatError('"poly" must be a list of monomials')
            monos = []
            for entry in node["poly"]:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise FormatError(f"monomial must be [coef, exps]: {entry!r}")
                coef, exps = entry
                if not isinstance(exps, list):
                    raise FormatError(f"exponent vector must be a list: {exps!r}")
                monos.append((_parse_coef(coef), tuple(exps)))
            # a positive multiple keeps the atom's sign and clears "p/q"
            scale = math.lcm(*(c.denominator for c, _ in monos))
            poly = tuple((int(c * scale), e) for c, e in monos)
            if node["op"] == "=":
                negated = tuple((-c, e) for c, e in poly)
                return FAnd((Atom(">=", poly), Atom(">=", negated)))
            return Atom(node["op"], poly)
        if len(node) != 1:
            raise FormatError(f"ambiguous formula node: {sorted(node)!r}")
        (key, val), = node.items()
        if key in ("and", "or"):
            if not isinstance(val, list):
                raise FormatError(f'"{key}" takes a list of subformulas')
            args = tuple(tree(f) for f in val)
            return FAnd(args) if key == "and" else FOr(args)
        if key == "not":
            if isinstance(val, list):
                if len(val) != 1:
                    raise FormatError('"not" takes exactly one subformula')
                return FNot(tree(val[0]))
            return FNot(tree(val))
        raise FormatError(f"unknown formula node {key!r}")

    formula = tree(doc["formula"])
    _compile(formula, nvars)  # FormatError on a malformed atom
    return formula, nvars


def load_formula(path) -> Tuple[Formula, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        # json.load or the formula walk, whichever runs out of stack first
        return _formula_from_json(doc)
    except OSError as exc:
        raise FormatError(f"cannot read formula file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"formula file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise FormatError(f"formula file {path} cannot be decoded: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"formula file {path} nests too deeply") from exc


# --- the witness: a cylindrical decomposition of the b-line -------------------

def _sign_at(p, x: Rat) -> int:
    """sign(p(x)) for p = [c_0, .., c_d], by Horner's rule on the integer
    den(x)^d * p(x) = sum_e c_e * num(x)^e * den(x)^(d - e)."""
    num, den = x.as_integer_ratio()
    acc, scale = p[-1], 1
    for c in p[-2::-1]:
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def _mul(f, g):
    h = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            h[i + j] += x * y
    return h


def _rem(f, g):
    """A positive integer multiple of the remainder of f by g, g[-1] != 0."""
    r = [Fraction(c) for c in f]
    while len(r) >= len(g):
        c = r.pop() / g[-1]
        for i, x in enumerate(g[:-1], len(r) - len(g) + 1):
            r[i] -= c * x
    while r and not r[-1]:
        r.pop()
    den = math.lcm(*(c.denominator for c in r))
    return [int(c * den) for c in r]


class _Root:
    """A real root: exactly lo when lo is hi, else the only root in (lo, hi)
    of a polynomial whose sign, sign(x), changes there; lo, hi are no roots.
    An exact root carries no sign function."""

    __slots__ = ("sign", "lo", "hi", "left")

    def __init__(self, lo: Rat, hi: Rat, sign=None):
        self.sign, self.lo, self.hi = sign, lo, hi
        self.left = sign and sign(lo)  # the sign below the root

    def grid(self, k: int) -> Tuple[int, int]:
        """The greatest j with j/2^k below the root and the least one above."""
        scale = 1 << k
        while self.lo is not self.hi:
            j = math.floor(self.lo * scale) + 1  # the least grid point above lo
            if j >= self.hi * scale:
                return j - 1, j
            x = Fraction(max(j, math.floor((self.lo + self.hi) * scale / 2)), scale)
            s = self.sign(x)
            if s == 0:
                self.lo = self.hi = x
            elif s == self.left:
                self.lo = x
            else:
                self.hi = x
        j, rest = divmod(self.lo.numerator << k, self.lo.denominator)
        return j - (rest == 0), j + 1

    def rational(self, c: int) -> Optional[Rat]:
        """The root if rational.  Rationals of denominator <= c, a bound for
        the root's, lie 1/c^2 apart, so one nearest the middle of a narrower
        (lo, hi) is the only candidate."""
        if self.lo is not self.hi:
            self.grid(2 * c.bit_length())
        if self.lo is self.hi:
            return self.lo
        x = ((self.lo + self.hi) / 2).limit_denominator(c)
        return x if self.lo < x < self.hi and not self.sign(x) else None


def _isolated_roots(p: List[int]) -> List[_Root]:
    """The distinct real roots of the integer polynomial p, in increasing order:
    bisect (-B, B), B above Cauchy's bound, by Sturm's theorem (the sign
    changes along p, p' and the negated remainders down to g = gcd(p, p')
    drop, from lo to hi off the roots, by the roots between); p/g changes
    sign at each."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x: Rat) -> int:
        signs = [s for s in (_sign_at(q, x) for q in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = Fraction(1 << (max(map(abs, p)) // abs(p[-1]) + 2).bit_length())
    roots, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        count = changes(lo) - changes(hi)
        if count == 1:
            roots.append(_Root(lo, hi, lambda x: _sign_at(p, x) * _sign_at(chain[-1], x)))
        elif count > 1:
            mid = (lo + hi) / 2
            while not _sign_at(p, mid):
                mid = (lo + mid) / 2
            todo += [(mid, hi), (lo, mid)]
    return roots


def _linear_roots(factors: List[List[int]]) -> List[_Root]:
    """The distinct roots -c0/c1 of the rows [c0, c1], c1 != 0, in increasing
    order, as exact _Roots.  Over the common denominator d = lcm(c1) each
    root is the integer -c0 (d / c1), so ordering them and dropping repeats
    is integer work, and only the distinct roots become Fractions."""
    d = math.lcm(*(c1 for _, c1 in factors))
    keys = sorted({-c0 * (d // c1) for c0, c1 in factors})
    return [_Root(x, x) for x in (Fraction(k, d) for k in keys)]


def _simplest_dyadic(lo: Optional[_Root], hi: Optional[_Root]) -> Rat:
    """The simplest dyadic strictly between roots lo < hi (None: an infinite
    end): _simplest_on_grid of the grid points between the roots at the
    first grid 2^-k, k = 0, 1, 2, 4, 8, .., that has one."""
    k = 0
    while True:
        first = -math.inf if lo is None else lo.grid(k)[1]
        last = math.inf if hi is None else hi.grid(k)[0]
        if first <= last:
            return _simplest_on_grid(first, last, k)
        k = 2 * k or 1


def semialgebraic_system(
    formula: Formula,
    dim: int,
    *,
    name: str = "semialgebraic",
    modulus: Optional[Modulus] = None,
) -> DecidableSystem:
    """System whose members are the quadruples satisfying `formula`.

    The formula is evaluated exactly at (a_1, ..., a_N, b, u, v) with
    u = 1/(m+1) and v = 1/(n+1), in integers: each atom is a polynomial
    in b with the integer coefficients of _compile, whose sign at b
    _sign_at takes.  Soundness is the formula author's burden; the verifier
    module exists to audit it.

    The witness is a one-variable cylindrical decomposition (Collins 1975):
    for given (a, m, n) the atoms' real roots in b cut the b-line into open
    cells of constant truth.  The roots are exact when every atom is linear
    in b there; otherwise Sturm sequences isolate all of them together.  It
    returns the simplest dyadic of the first cell in b order at which the
    formula holds (O(log n) bits), else the first rational root at which it
    holds, else None.  Truth at each point is decide's; apply still
    certifies the witness through decide.  `modulus` is passed on to
    DecidableSystem: the formula's author may state one.
    """
    coefficients, holds = _compile(formula, dim)

    def decide(q: Quadruple) -> bool:
        return holds(coefficients(q.a, q.m, q.n), q.b)

    def witness(a: Point, m: int, n: int) -> Optional[Rat]:
        rows = coefficients(a, m, n)
        if any(any(c[2:]) for c in rows):  # Sturm on the product of the rows in b
            factors = [c[:max(e for e, v in enumerate(c) if v) + 1] for c in rows if any(c[1:])]
            roots = _isolated_roots(reduce(_mul, factors))
        else:  # every row is c0 + c1 b, with the exact root -c0/c1 if c1 != 0
            factors = [c[:2] for c in rows if c[1]]
            roots = _linear_roots(factors)
        lc = max((abs(c[-1]) for c in factors), default=1)  # each rational root's denominator divides one
        for lo, hi in zip([None, *roots], [*roots, None]):
            if holds(rows, x := _simplest_dyadic(lo, hi)):
                return x
        for r in roots:
            if (x := r.rational(lc)) is not None and holds(rows, x):
                return x
        return None

    return DecidableSystem(decide, dim, witness=witness, name=name, modulus=modulus)


def squaring_formula() -> Tuple[Formula, int]:
    """A sound and productive formula for x |-> x^2 over one variable.

    Over the closed ball [a-u, a+u] the square's range is an interval
    [lo, hi]: hi = max((a-u)^2, (a+u)^2) is always attained, and is covered
    by requiring both b + v >= (a+u)^2 and b + v >= (a-u)^2.  The infimum
    splits two ways, as in _square_modulus:

      * 0 outside or on the edge (a^2 - u^2 >= 0): lo is the lesser end
        square, so require both (a-u)^2 - b + v >= 0 and
        (a+u)^2 - b + v >= 0;
      * else lo = 0, attained, but the *open* ball never attains its sup,
        so strict v - b > 0 suffices, with no test of u^2 - a^2 > 0: where
        0 is outside, b - v < 0 <= (a -+ u)^2 and the first case holds.

    Six atoms, all integer; variable order (a, b, u, v).
    """
    B = (0, 1, 0, 0)
    V = (0, 0, 0, 1)
    AA = (2, 0, 0, 0)
    AU = (1, 0, 1, 0)
    UU = (0, 0, 2, 0)

    upper_plus = atom(">=", (1, B), (1, V), (-1, AA), (-2, AU), (-1, UU))
    upper_minus = atom(">=", (1, B), (1, V), (-1, AA), (2, AU), (-1, UU))
    zero_inside = atom(">", (1, V), (-1, B))
    zero_outside = FAnd((
        atom(">=", (1, AA), (-1, UU)),
        atom(">=", (1, AA), (-2, AU), (1, UU), (-1, B), (1, V)),
        atom(">=", (1, AA), (2, AU), (1, UU), (-1, B), (1, V)),
    ))
    formula = FAnd((upper_plus, upper_minus, FOr((zero_inside, zero_outside))))
    return formula, 1


def _square_modulus(a: Optional[Point], n: int) -> int:
    """The least m at which squaring_formula() holds for some b at (a, m, n).

    With |a| = p/q, u = 1/M for M = m+1 and v = 1/N for N = n+1, some b
    exists iff the range of x^2 over the ball has width at most 2v:
      * u <= |a| (M p >= q): 2|a|u <= v, i.e. M q >= 2 p N;
      * u > |a|: (|a| + u)^2 < 2v, i.e. A M^2 - 2 N p q M - N q^2 > 0 for
        A = 2 q^2 - N p^2, which needs A > 0 and holds from the least
        integer M above the positive root q (N p + q sqrt(2N)) / A on.
    Both conditions only get easier as M grows, so the least M is the
    second case's first M when that lies below q/p, else the first case's.
    """
    if a is None:
        return n
    p, q = abs(a[0]).as_integer_ratio()
    N = n + 1
    A = 2 * q * q - N * p * p
    if A > 0:
        M = (N * p * q + math.isqrt(2 * N * q ** 4)) // A + 1
        if M * p < q:
            return M - 1
    return max(-(-2 * p * N // q), -(-q // p)) - 1


@lru_cache(maxsize=None)
def squaring_system() -> DecidableSystem:
    """Approximation system for x |-> x^2, the formula squaring_formula()."""
    formula, nvars = squaring_formula()
    return semialgebraic_system(formula, nvars, name="square", modulus=_square_modulus)
