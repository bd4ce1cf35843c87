"""Built-in approximation systems: division, cosine, and semialgebraic sets.

Each system is a decidable quadruple predicate wrapped by dovetailing; the
constructors return shared singletons so enumeration caches are reused.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, List, Optional, Tuple, Union

from .core import DecidableSystem, Quadruple
from .errors import FormatError
from .numerics import Point, Rat

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
    p1, q1 = a1.numerator, a1.denominator
    p2, q2 = a2.numerator, a2.denominator
    pb, qb = q.b.numerator, q.b.denominator
    if p2 * pb * q1 != p1 * q2 * qb:
        return False
    return (q.m + 1) * abs(p2) * qb >= q2 * (qb + (q.n + 1) * (abs(pb) + qb))


def _division_witness(a: Point, m: int, n: int) -> Optional[Rat]:
    a1, a2 = a
    if a2 == 0:
        return None
    return a1 / a2


@lru_cache(maxsize=None)
def division_system() -> DecidableSystem:
    """Approximation system for (x1, x2) |-> x1/x2 on x2 != 0."""
    return DecidableSystem(
        _division_decide,
        dim=2,
        witness=_division_witness,
        name="division",
    )


# --- maximal division ---------------------------------------------------------

def _corners(a: Point, m: int):
    a1, a2 = a
    M = m + 1
    return [(M * a1 + e1) / (M * a2 + e2) for e1 in (1, -1) for e2 in (1, -1)]


def _maximal_division_decide(q: Quadruple) -> bool:
    # Accept iff the quotient's range over the *closed* ball of radius
    # 1/(m+1) around a sits inside the closed interval of radius 1/(n+1)
    # around b.  The range of (a1 + s)/(a2 + t) over |s|,|t| <= 1/(m+1) is
    # spanned by the four corner values once the denominator is bounded away
    # from zero, i.e. (m+1)|a2| > 1.  With M = m+1, N = n+1, a1 = p1/q1,
    # a2 = p2/q2 and b = pb/qb, the corner (M a1 + e1)/(M a2 + e2) is x/y
    # for x = (M p1 + e1 q1) q2 and y = (M p2 + e2 q2) q1 != 0, and
    # |x/y - b| <= 1/N is tested multiplied by N qb |y| > 0, on integers:
    # N |x qb - pb y| <= qb |y|.
    a1, a2 = q.a
    p1, q1 = a1.numerator, a1.denominator
    p2, q2 = a2.numerator, a2.denominator
    pb, qb = q.b.numerator, q.b.denominator
    M, N = q.m + 1, q.n + 1
    if M * abs(p2) <= q2:
        return False
    for e1 in (1, -1):
        x = (M * p1 + e1 * q1) * q2
        for e2 in (1, -1):
            y = (M * p2 + e2 * q2) * q1
            if N * abs(x * qb - pb * y) > qb * abs(y):
                return False
    return True


def _maximal_division_witness(a: Point, m: int, n: int) -> Optional[Rat]:
    a1, a2 = a
    if (m + 1) * abs(a2) <= 1:
        return None
    corners = _corners(a, m)
    return (max(corners) + min(corners)) / 2


@lru_cache(maxsize=None)
def maximal_division_system() -> DecidableSystem:
    """The largest sound system for division: interval containment at corners."""
    return DecidableSystem(
        _maximal_division_decide,
        dim=2,
        witness=_maximal_division_witness,
        name="maximal-division",
    )


# --- simplest dyadics ------------------------------------------------------------

def _dyadic_between(lo: int, hi: int, t: int) -> Rat:
    """The simplest dyadic strictly inside (lo/t, hi/t), lo < hi and t > 0: the
    integer of least magnitude if one lies inside, else the j/2^k with the
    least k, which is unique (two neighbours on the 2^-k grid include one on
    the 2^-(k-1) grid).

    2^K > t/(hi - lo) widens the scaled interval past 1, so the integers A..B
    strictly inside it are not empty.  They are the interval's dyadics of
    denominator dividing 2^K, and the simplest is the one with the most
    trailing zeros: B cut below the highest bit where A - 1 and B differ.
    """
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_dyadic_between(-hi, -lo, t)
    j = lo // t + 1  # the least integer above lo/t
    if j * t < hi:
        return Fraction(j)
    K = (t // (hi - lo)).bit_length()
    A = (lo << K) // t + 1
    B = -((-hi << K) // t) - 1
    h = ((A - 1) ^ B).bit_length() - 1
    return Fraction(B >> h, 1 << (K - h))


def _exact_dyadic(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """The simplest dyadic strictly between exact ends lo < hi (None: an
    infinite end, which always admits the integer of least magnitude)."""
    if lo is None:
        return Fraction(0) if hi is None or hi > 0 else Fraction(math.ceil(hi) - 1)
    if hi is None:
        return Fraction(0) if lo < 0 else Fraction(math.floor(lo) + 1)
    return _dyadic_between(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                           lo.denominator * hi.denominator)


# --- cosine -------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _cos_power_term(a: Rat, k: int) -> Rat:
    """a^(2k) / (2k)!"""
    return a ** (2 * k) / math.factorial(2 * k)


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
    """The simplest dyadic within r = g - e_k of sigma_k(a), at the first
    admissible k with e_k <= g (sigma_k itself when r = 0).

    decide accepts such a b at k, since |b - sigma_k| + e_k < g, and rejects
    it at no earlier j, since F_j - 2 e_j <= |b - cos a| < g.  The output
    has O(log(1/r)) bits, where sigma_k has thousands at a large a.
    """
    (a,) = a_pt
    g = Fraction(1, n + 1) - Fraction(1, m + 1)
    if g <= 0:  # only the degenerate a = 0 quadruples admit equality
        return Fraction(1) if g == 0 and a == 0 else None
    k = _cos_k0(a * a)
    while (e := _half_term(a, k)) > g:  # ends, since e_k -> 0 and g > 0
        k += 1
    s = sigma_k(a, k)
    if e == g:
        return s
    # over t = Q D G: sigma = P/Q, e = E/D, g = (m - n)/G with G = (n+1)(m+1)
    P, Q, E, D, G = s.numerator, s.denominator, e.numerator, e.denominator, (n + 1) * (m + 1)
    mid, r = P * D * G, Q * ((m - n) * D - E * G)
    return _dyadic_between(mid - r, mid + r, Q * D * G)


@lru_cache(maxsize=None)
def cosine_system() -> DecidableSystem:
    """Approximation system for x |-> cos x via midpoint Taylor sections."""
    return DecidableSystem(
        _cosine_decide,
        dim=1,
        witness=_cosine_witness,
        name="cosine",
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


Formula = Union[Atom, FAnd, FOr, FNot]


def atom(op: str, *monomials) -> Atom:
    return Atom(op, tuple((c, tuple(e)) for c, e in monomials))


def _holds(formula: Formula, atom_holds: Callable[[Atom], bool]) -> bool:
    """Truth of a formula, given the truth of each of its atoms."""
    if isinstance(formula, Atom):
        return atom_holds(formula)
    if isinstance(formula, FNot):
        return not _holds(formula.arg, atom_holds)
    decisive = isinstance(formula, FOr)  # the value that ends an or (and)
    for f in formula.args:
        if _holds(f, atom_holds) is decisive:
            return decisive
    return not decisive


def _atoms(formula: Formula) -> List[Atom]:
    """Every atom occurrence in the formula, left to right."""
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, FNot):
        return _atoms(formula.arg)
    return [at for f in formula.args for at in _atoms(f)]


def _sign_holds(op: str, sign) -> bool:
    return sign > 0 if op == ">" else sign >= 0


def _compile(formula: Formula, dim: int):
    """The formula's atoms, its degree deg >= 1 in b, and their integer evaluator.

    coefficients(a, m, n) gives per atom [c_0, .., c_deg] with D * atom =
    sum_e c_e * b^e, where D = prod_x den(x)^top(x) > 0 over x in
    (a_1..a_N, u, v) and top(x) is x's largest exponent in the formula:
    monomial coef * prod_x x^e adds coef * prod_x num(x)^e * den(x)^(top(x) - e)
    to c at b's exponent.  Scaling by D keeps every sign and every root in b.
    """
    atoms = _atoms(formula)
    others = [i for i in range(dim + 3) if i != dim]
    top = [max((e[i] for at in atoms for _, e in at.poly), default=0) for i in others]
    deg = max([1, *(e[dim] for at in atoms for _, e in at.poly)])
    # num(x)^e * den(x)^(top(x) - e) sits at offset(x) + e of one flat list
    offsets = [sum(top[:k]) + k for k in range(len(top))]
    monomials = [[(c, e[dim], [o + e[i] for o, i in zip(offsets, others)]) for c, e in at.poly]
                 for at in atoms]

    def coefficients(a: Point, m: int, n: int) -> List[List[int]]:
        fracs = [(x.numerator, x.denominator) for x in a] + [(1, m + 1), (1, n + 1)]
        pows = [num ** e * den ** (t - e) for (num, den), t in zip(fracs, top) for e in range(t + 1)]
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

    return atoms, deg, coefficients


def _validate_formula(node: Formula, nvars: int):
    if isinstance(node, Atom):
        if node.op not in (">", ">="):
            raise FormatError(f"unknown comparison {node.op!r}")
        for coef, exps in node.poly:
            if isinstance(coef, bool) or not isinstance(coef, int):
                raise FormatError("polynomial coefficients must be integers")
            if len(exps) != nvars + 3:
                raise FormatError(
                    f"exponent vector of length {len(exps)}, expected {nvars + 3}"
                )
            for e in exps:
                if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                    raise FormatError("exponents must be natural numbers")
        return
    if isinstance(node, (FAnd, FOr)):
        for f in node.args:
            _validate_formula(f, nvars)
        return
    if isinstance(node, FNot):
        _validate_formula(node.arg, nvars)
        return
    raise FormatError(f"not a formula node: {node!r}")


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
        num, _, den = coef.partition("/")
        if den and int(den) == 0:
            raise FormatError(f"zero denominator in coefficient {coef!r}")
        return Fraction(int(num), int(den or 1))
    raise FormatError(f'polynomial coefficients must be integers or "p/q" strings: {coef!r}')


def formula_from_json(doc) -> Tuple[Formula, int]:
    """Parse the on-disk formula format; FormatError on any malformation."""
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
    _validate_formula(formula, nvars)
    return formula, nvars


def load_formula(path) -> Tuple[Formula, int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read formula file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"formula file {path} is not valid JSON: {exc}") from exc
    return formula_from_json(doc)


# --- the witness: a cylindrical decomposition of the b-line -------------------

def _sign_at(p, x: Rat) -> int:
    """sign(p(x)) for p = [c_0, c_1, ..], by Horner's rule on den(x)^deg * p(x)."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
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
    of a polynomial whose sign, sign(x), changes there; lo, hi are no roots."""

    __slots__ = ("sign", "lo", "hi", "left")

    def __init__(self, sign, lo: Rat, hi: Rat):
        self.sign, self.lo, self.hi = sign, lo, hi
        self.left = sign(lo)  # the sign below the root

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
            roots.append(_Root(lambda x: _sign_at(p, x) * _sign_at(chain[-1], x), lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            while not _sign_at(p, mid):
                mid = (lo + mid) / 2
            todo += [(mid, hi), (lo, mid)]
    return roots


def _simplest_dyadic(lo: Optional[_Root], hi: Optional[_Root]) -> Rat:
    """_exact_dyadic for isolated roots lo < hi (None: an infinite end), found
    level by level: the first grid 2^-k with a point between the roots."""
    k = 0
    while True:
        first = -math.inf if lo is None else lo.grid(k)[1]
        last = math.inf if hi is None else hi.grid(k)[0]
        if first <= last:
            return Fraction(min(max(0, first), last) if k == 0 else first, 1 << k)
        k += 1


def semialgebraic_system(formula: Formula, dim: int, *, name: str = "semialgebraic") -> DecidableSystem:
    """System whose members are the quadruples satisfying `formula`.

    The formula is evaluated exactly at (a_1, ..., a_N, b, u, v) with
    u = 1/(m+1) and v = 1/(n+1), in integers: b = pb/qb enters each atom as
    sum_e c_e * pb^e * qb^(deg - e) (see _compile), a positive multiple of
    its value.  Soundness is the formula author's burden; the verifier
    module exists to audit it.

    The witness is a one-variable cylindrical decomposition (Collins 1975):
    for given (a, m, n) the atoms' real roots in b, exact at degree 1 and
    isolated by Sturm sequences above, cut the b-line into open cells of
    constant truth.  It returns the simplest dyadic of the first satisfied
    cell in b order (O(log n) bits), else the first satisfying rational
    root, else None; apply still certifies it through decide.
    """
    _validate_formula(formula, dim)
    atoms, deg, coefficients = _compile(formula, dim)
    row_of = {id(at): i for i, at in enumerate(atoms)}

    def decide(q: Quadruple) -> bool:
        pb, qb = q.b.numerator, q.b.denominator
        bpows = [pb ** e * qb ** (deg - e) for e in range(deg + 1)]
        rows = coefficients(q.a, q.m, q.n)
        return _holds(formula, lambda at: _sign_holds(
            at.op, sum(map(operator.mul, rows[row_of[id(at)]], bpows))))

    def witness(a: Point, m: int, n: int) -> Optional[Rat]:
        rows = coefficients(a, m, n)
        curved = deg > 1 and any(any(c[2:]) for c in rows)
        if curved:  # Sturm on the product of the rows in b; truth at a point
            factors = [c[:max(e for e, v in enumerate(c) if v) + 1] for c in rows if any(c[1:])]
            roots = _isolated_roots(reduce(_mul, factors))
            lc = max(abs(c[-1]) for c in factors)  # each rational root's denominator divides one

            def atom_holds(at: Atom) -> bool:
                return _sign_holds(at.op, _sign_at(rows[row_of[id(at)]], x))
        else:
            # Position p = 2i is the open cell below roots[i] (above all for
            # i = len(roots)), 2i + 1 is roots[i].  A row with root roots[i]
            # has the sign sign(c1) * sign(p - (2i + 1)), one free of b that of c0.
            zeros = [Fraction(-c[0], c[1]) if c[1] else None for c in rows]
            roots, places = [], [-1] * len(rows)
            for i in sorted((i for i, z in enumerate(zeros) if z is not None), key=zeros.__getitem__):
                if not roots or zeros[i] != roots[-1]:
                    roots.append(zeros[i])
                places[i] = 2 * len(roots) - 1
            signed = {id(at): ((c[1] > 0) - (c[1] < 0) or (c[0] > 0) - (c[0] < 0), place)
                      for at, c, place in zip(atoms, rows, places)}

            def atom_holds(at: Atom) -> bool:
                s, place = signed[id(at)]
                return _sign_holds(at.op, s * ((p > place) - (p < place)))

        for i, (lo, hi) in enumerate(zip([None, *roots], [*roots, None])):
            p, x = 2 * i, _simplest_dyadic(lo, hi) if curved else None
            if _holds(formula, atom_holds):
                return x if curved else _exact_dyadic(lo, hi)
        for i, r in enumerate(roots):
            p, x = 2 * i + 1, r.rational(lc) if curved else r
            if x is not None and _holds(formula, atom_holds):
                return x
        return None

    return DecidableSystem(decide, dim, witness=witness, name=name)


def squaring_formula() -> Tuple[Formula, int]:
    """A sound and productive formula for x |-> x^2 over one variable.

    Over the closed ball [a-u, a+u] the square's range is an interval
    [lo, hi]: hi = max((a-u)^2, (a+u)^2) is always attained, and is covered
    by requiring both b + v >= (a+u)^2 and b + v >= (a-u)^2.  The infimum
    splits three ways:

      * 0 interior to the ball (u - a > 0 and u + a > 0): lo = 0, attained,
        but the *open* ball never attains its sup, so strict b - v < 0 i.e.
        v - b > 0 suffices;
      * 0 <= a - u: lo = (a-u)^2, so require (a-u)^2 - b + v >= 0;
      * a + u <= 0: lo = (a+u)^2, so require (a+u)^2 - b + v >= 0.

    All coefficients are integers; variable order (a, b, u, v).
    """
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
    formula = FAnd((upper_plus, upper_minus, FOr((zero_inside, right_of_zero, left_of_zero))))
    return formula, 1


@lru_cache(maxsize=None)
def squaring_system() -> DecidableSystem:
    formula, nvars = squaring_formula()
    return semialgebraic_system(formula, nvars, name="square")
