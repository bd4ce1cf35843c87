"""Built-in approximation systems: division, cosine, and semialgebraic sets.

Each system is a decidable quadruple predicate wrapped by dovetailing; the
constructors return shared singletons so enumeration caches are reused.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

from .core import DecidableSystem, Quadruple
from .errors import FormatError
from .numerics import Point, Rat, rat_div

# --- division ----------------------------------------------------------------

def _division_decide(q: Quadruple) -> bool:
    # b must be the exact quotient, and the input radius small enough that
    # every point of the ball keeps the quotient within 1/(n+1):
    # sup |x1/x2 - b| over the ball is (1/(m+1)) * (|b| + 1/(m+1) + ...); the
    # closed form below is the integer test that bounds it strictly.
    a1, a2 = q.a
    if a2 * q.b != a1:
        return False
    return (q.m + 1) * abs(a2) >= 1 + (q.n + 1) * (abs(q.b) + 1)


def _division_witness(a: Point, m: int, n: int) -> Optional[Rat]:
    a1, a2 = a
    if a2 == 0:
        return None
    return a1 / a2


def _division_fast_scan(lo: int, hi: int):
    """Bulk form of enumerate for the division system.

    Identical verdicts to decode_quadruple + _division_decide, but with the
    pairing inverses inlined on machine integers; Fractions are built only
    for accepted codes.  The cross-multiplied tests are representation-free,
    so the non-reduced (r - s, t + 1) readings of the codes are safe.
    """
    isqrt = math.isqrt
    out = []
    for k in range(lo, hi):
        t = (isqrt(8 * k + 1) - 1) // 2
        rest = k - t * (t + 1) // 2
        i = t - rest
        t = (isqrt(8 * rest + 1) - 1) // 2
        rest2 = rest - t * (t + 1) // 2
        m = t - rest2
        t = (isqrt(8 * rest2 + 1) - 1) // 2
        n = rest2 - t * (t + 1) // 2
        j = t - n

        t = (isqrt(8 * i + 1) - 1) // 2
        c2 = i - t * (t + 1) // 2
        c1 = t - c2

        t = (isqrt(8 * c2 + 1) - 1) // 2
        t2 = c2 - t * (t + 1) // 2
        w = t - t2
        t = (isqrt(8 * w + 1) - 1) // 2
        s2 = w - t * (t + 1) // 2
        p2 = t - s2 - s2
        if p2 == 0:
            continue
        q2 = t2 + 1

        t = (isqrt(8 * c1 + 1) - 1) // 2
        t1 = c1 - t * (t + 1) // 2
        w = t - t1
        t = (isqrt(8 * w + 1) - 1) // 2
        s1 = w - t * (t + 1) // 2
        p1 = t - s1 - s1
        q1 = t1 + 1

        t = (isqrt(8 * j + 1) - 1) // 2
        tb = j - t * (t + 1) // 2
        w = t - tb
        t = (isqrt(8 * w + 1) - 1) // 2
        sb = w - t * (t + 1) // 2
        pb = t - sb - sb
        qb = tb + 1

        if p2 * pb * q1 != p1 * q2 * qb:
            continue
        if (m + 1) * abs(p2) * qb < q2 * qb + (n + 1) * (abs(pb) + qb) * q2:
            continue
        quad = Quadruple(
            (Fraction(p1, q1), Fraction(p2, q2)), m, Fraction(pb, qb), n
        )
        out.append((k, quad))
    return out


@lru_cache(maxsize=None)
def division_system() -> DecidableSystem:
    """Approximation system for (x1, x2) |-> x1/x2 on x2 != 0."""
    return DecidableSystem(
        _division_decide,
        dim=2,
        witness=_division_witness,
        name="division",
        fast_scan=_division_fast_scan,
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
    # from zero, i.e. (m+1)|a2| > 1.
    a1, a2 = q.a
    if (q.m + 1) * abs(a2) <= 1:
        return False
    v = Fraction(1, q.n + 1)
    lo, hi = q.b - v, q.b + v
    for c in _corners(q.a, q.m):
        if c < lo or c > hi:
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
    (a,) = a_pt
    g = Fraction(1, n + 1) - Fraction(1, m + 1)
    if g < 0:
        return None
    if g == 0:
        # only the degenerate a = 0 quadruples admit equality
        return Fraction(1) if a == 0 else None
    k = _cos_k0(a * a)
    for _ in range(400):
        if _half_term(a, k) <= g:
            return sigma_k(a, k)
        k += 1
    return None


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


def fand(*args: Formula) -> FAnd:
    return FAnd(tuple(args))


def for_(*args: Formula) -> FOr:
    return FOr(tuple(args))


def fnot(arg: Formula) -> FNot:
    return FNot(arg)


def _eval_poly(poly: Poly, vals: Tuple[Rat, ...]) -> Rat:
    total = Fraction(0)
    for coef, exps in poly:
        term = Fraction(coef)
        for val, e in zip(vals, exps):
            if e:
                term *= val ** e
        total += term
    return total


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


def eval_formula(formula: Formula, vals: Tuple[Rat, ...]) -> bool:
    return _holds(formula, lambda at: _sign_holds(at.op, _eval_poly(at.poly, vals)))


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


def _simplest_dyadic(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """The dyadic j/2^k in the open interval (lo, hi) with the least k.

    None stands for an infinite end.  At k = 0 the interval may hold several
    integers and the one of least magnitude is returned; for k >= 1 the
    dyadic is unique, since two neighbours on the 2^-k grid include one on
    the 2^-(k-1) grid.  Requires lo < hi.
    """
    first = None if lo is None else math.floor(lo) + 1
    last = None if hi is None else math.ceil(hi) - 1
    if first is None or last is None or first <= last:
        j = 0
        if first is not None:
            j = max(j, first)
        if last is not None:
            j = min(j, last)
        return Fraction(j)
    # Both ends are finite now.  "Some multiple of 2^-k lies in (lo, hi)" is
    # monotone in k and holds once 2^-k < hi - lo, so bisect on k.
    w = hi - lo
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def above_lo(k: int) -> int:  # the least multiple of 2^-k above lo, times 2^k
        return (ln << k) // ld + 1

    k_lo, k_hi = 1, (w.denominator // w.numerator).bit_length()
    while k_lo < k_hi:
        k = (k_lo + k_hi) // 2
        if above_lo(k) * hd < hn << k:
            k_hi = k
        else:
            k_lo = k + 1
    return Fraction(above_lo(k_lo), 1 << k_lo)


def _linear_witness(formula: Formula, dim: int):
    """Witness for a formula whose atoms all have degree <= 1 in b.

    Returns None for formulas with a higher power of b.  Otherwise the
    returned function finds, for given (a, m, n), a b satisfying the formula
    by virtual substitution (Weispfenning, "The complexity of linear
    problems in fields", J. Symb. Comp. 1988): each atom is c1*b + c0 with
    c0, c1 fixed by (a, u, v); the roots -c0/c1 cut the b-line into open
    cells on which every atom, hence the formula, has constant truth.  The
    first satisfied open cell yields its simplest dyadic, which keeps result
    bits O(log n); failing that, the first satisfying root; failing that,
    None.  All arithmetic is exact, so a returned b satisfies the formula.
    """
    atoms = _atoms(formula)
    if any(e[dim] > 1 for at in atoms for _, e in at.poly):
        return None
    # Scaling every atom by D = prod_x den(x)^top(x), with top(x) the largest
    # exponent of x in the formula, keeps every sign and every root and
    # leaves integer coefficients: monomial coef * prod_x x^e contributes
    # coef * prod_x num(x)^e * den(x)^(top(x) - e).  x runs over
    # (a_1..a_N, u, v); b's exponent (index dim) picks c1 or c0.
    others = [i for i in range(dim + 3) if i != dim]
    top = [max((e[i] for at in atoms for _, e in at.poly), default=0) for i in others]
    monomials = [[(c, e[dim], [e[i] for i in others]) for c, e in at.poly] for at in atoms]

    def witness(a: Point, m: int, n: int) -> Optional[Rat]:
        fracs = [(x.numerator, x.denominator) for x in a] + [(1, m + 1), (1, n + 1)]
        pows = [
            [num ** e * den ** (t - e) for e in range(t + 1)]
            for (num, den), t in zip(fracs, top)
        ]
        lines = []  # per atom: [c0, c1], integers
        for monos in monomials:
            c = [0, 0]
            for coef, eb, es in monos:
                term = coef
                for p, e in zip(pows, es):
                    term *= p[e]
                c[eb] += term
            lines.append(c)
        atom_roots = [Fraction(-c0, c1) if c1 else None for c0, c1 in lines]
        order = sorted((i for i, r in enumerate(atom_roots) if r is not None),
                       key=atom_roots.__getitem__)
        roots: List[Rat] = []
        places = [-1] * len(atoms)
        for i in order:
            if not roots or atom_roots[i] != roots[-1]:
                roots.append(atom_roots[i])
            places[i] = 2 * len(roots) - 1
        # Position p on the b-line: p = 2i is the open cell below roots[i]
        # (above roots[-1] for i = len(roots)), p = 2i + 1 is roots[i].  An
        # atom with root roots[i] has place 2i + 1 and the sign
        # sign(c1) * sign(p - place); an atom free of b has place -1, below
        # every p, and the sign of c0.
        signed = {
            id(at): ((c1 > 0) - (c1 < 0) if c1 else (c0 > 0) - (c0 < 0), place)
            for at, (c0, c1), place in zip(atoms, lines, places)
        }

        def holds(p: int) -> bool:
            def atom_holds(at: Atom) -> bool:
                s, place = signed[id(at)]
                return _sign_holds(at.op, s * ((p > place) - (p < place)))

            return _holds(formula, atom_holds)

        for i in range(len(roots) + 1):
            if holds(2 * i):
                lo = roots[i - 1] if i > 0 else None
                hi = roots[i] if i < len(roots) else None
                return _simplest_dyadic(lo, hi)
        for i, r in enumerate(roots):
            if holds(2 * i + 1):
                return r
        return None

    return witness


def semialgebraic_system(formula: Formula, dim: int, *, name: str = "semialgebraic") -> DecidableSystem:
    """System whose members are the quadruples satisfying `formula`.

    The formula is evaluated exactly at (a_1, ..., a_N, b, u, v) with
    u = 1/(m+1) and v = 1/(n+1).  Soundness is the formula author's burden;
    the verifier module exists to audit it.  When every atom has degree
    <= 1 in b the system also provides a witness (see _linear_witness); like
    every witness it is only a hint, and apply certifies it through decide.
    """
    _validate_formula(formula, dim)

    def decide(q: Quadruple) -> bool:
        vals = q.a + (q.b, Fraction(1, q.m + 1), Fraction(1, q.n + 1))
        return eval_formula(formula, vals)

    return DecidableSystem(decide, dim, witness=_linear_witness(formula, dim), name=name)


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
    zero_inside = fand(
        atom(">", (1, U), (-1, A)),
        atom(">", (1, U), (1, A)),
        atom(">", (1, V), (-1, B)),
    )
    right_of_zero = fand(
        atom(">=", (1, A), (-1, U)),
        atom(">=", (1, AA), (-2, AU), (1, UU), (-1, B), (1, V)),
    )
    left_of_zero = fand(
        atom(">=", (-1, A), (-1, U)),
        atom(">=", (1, AA), (2, AU), (1, UU), (-1, B), (1, V)),
    )
    formula = fand(upper_plus, upper_minus, for_(zero_inside, right_of_zero, left_of_zero))
    return formula, 1


@lru_cache(maxsize=None)
def squaring_system() -> DecidableSystem:
    formula, nvars = squaring_formula()
    return semialgebraic_system(formula, nvars, name="square")
