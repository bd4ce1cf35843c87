"""The three benchmark workloads: seeded inputs, timed calls, checks.

Each workload is a closed loop with one caller.  A run draws one pool of
episodes from its seed; an episode is a short list of operations that run in
order (a cold request and its warm follow-up, or one stream's index ladder).
The runner times the pool in passes: every pass runs each episode once, in an
order drawn from (seed, pass).  The pool is stratified, so pools of different
seeds hold the same mix of operation kinds and magnitudes and only the drawn
values inside each stratum differ.

A workload exposes
    pool()               -> list of episodes (lists of Op), fixed by the seed;
    pass_order(p)        -> the pool's episodes in the order of pass p;
    start_episode(ops)   -> untimed preparation before an episode's first op;
    prepare(op)          -> zero-argument callable, the timed part of op;
    check(op, out)       -> status string, run outside the timed region;
    fingerprint(out)     -> comparable form of out, to check repetitions.
`prepare` also resets caches the way the workload's cache discipline says
(see README.md).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import digests
import oracles

OK, TIMEOUT, WRONG, COUNTER_EXAMPLE = "ok", "timeout", "wrong", "counter_example"

CTOR_NAMES = {
    "division": "division_system",
    "maximal-division": "maximal_division_system",
    "cosine": "cosine_system",
    "square": "squaring_system",
}


@dataclass(eq=False)
class Op:
    kind: str
    system: str  # system name, or a chain label such as "cosine.cosine"
    args: tuple
    cold: bool = False  # caches are cleared before the op
    warm: bool = False  # runs on state an earlier op of its episode, or priming, left behind
    id: int = -1  # position in the run's pool


class Workload:
    name = ""

    def __init__(self, ax, seed: int):
        self.ax = ax
        self.seed = seed
        self._pool: Optional[List[List[Op]]] = None

    def set_up(self):
        """Build the systems, generate the inputs, warm up."""
        for name in CTOR_NAMES:
            self.system(name)
        self.pool()
        self.warm_up()

    def warm_up(self):
        pass

    def prime(self):
        """Untimed work done once per run, after set-up, before timing."""

    def system(self, name: str):
        return getattr(self.ax.systems, CTOR_NAMES[name])()

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def pool(self) -> List[List[Op]]:
        if self._pool is None:
            self._pool = self.make_pool(self.rng("pool"))
            ops = [op for episode in self._pool for op in episode]
            for i, op in enumerate(ops):
                op.id = i
        return self._pool

    def ops(self) -> List[Op]:
        return [op for episode in self.pool() for op in episode]

    def pass_order(self, p: int) -> List[List[Op]]:
        order = list(self.pool())
        self.rng(f"pass:{p}").shuffle(order)
        return order

    def make_pool(self, rng: random.Random) -> List[List[Op]]:
        raise NotImplementedError

    def start_episode(self, episode: List[Op]):
        """Every repetition of an episode starts from the same cache state:
        the module-level function caches of approxsys are dropped (the
        built-in constructors too, unless the workload keeps them)."""
        self.clear_function_caches(keep=self.KEEP_SINGLETONS)

    KEEP_SINGLETONS = False

    def clear_function_caches(self, keep: bool):
        ax = self.ax
        ctors = set(CTOR_NAMES.values())
        for module in (ax.numerics, ax.core, ax.systems, ax.names, ax.evaluate, ax.verify):
            for name, obj in vars(module).items():
                if keep and name in ctors:
                    continue
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()

    def output_bytes(self, out) -> int:
        return 0

    def prepare(self, op: Op) -> Callable[[], object]:
        raise NotImplementedError

    def check(self, op: Op, out) -> str:
        raise NotImplementedError

    def fingerprint(self, out):
        return out


def _rational(rng: random.Random, lo, hi, max_den: int) -> Fraction:
    """Random rational in [lo, hi] with a random denominator <= max_den."""
    lo, hi = Fraction(lo), Fraction(hi)
    q = rng.randint(1, max_den)
    x = Fraction(round(rng.uniform(float(lo), float(hi)) * q), q)
    return min(max(x, lo), hi)  # rounding to the 1/q grid may leave the slice


def _on_grid(rng: random.Random, lo, hi, den: int) -> Fraction:
    """Random p/den in [lo, hi] with p prime to den, so every draw has the
    same denominator (and operand size) and never reduces to a coarser
    one: a dyadic or integer point would make its names exact and cheap."""
    lo, hi = Fraction(lo), Fraction(hi)
    first, last = math.ceil(lo * den), math.floor(hi * den)
    while True:
        num = rng.randint(first, last)
        if math.gcd(num, den) == 1:
            return Fraction(num, den)


def _signed(rng: random.Random, x: Fraction) -> Fraction:
    return x if rng.random() < 0.5 else -x


# --- point-eval ------------------------------------------------------------------

class PointEval(Workload):
    """apply() on constant names of exact points, all four built-in systems."""

    name = "point-eval"
    BUDGET = 5_000
    MAX_N = 10_000
    N_STRATA = 3
    # Division and maximal-division calls are cheap, so there are many of
    # them: they set the median latency, which is steady over this many.
    DIVISION_OPS = 240
    MAXIMAL_DIVISION_OPS = 720
    COSINE_MAX = 100
    COSINE_SLICES = 30  # |x| slices of [0, COSINE_MAX), each at every n stratum
    COSINE_DEN = 7
    SQUARE_DEN = 16
    # Square: |x| <= 7/5 needs at most ~2,300 probes at any n < 10^4, and
    # every |x| >= 7/4 uses up any budget.  Each region is sliced evenly; the
    # band between them needs more or fewer probes than BUDGET depending on n
    # and is left out, so every pool holds the same number of timeouts.
    # Twelve timeouts, each 5,000 probes, are the slowest operations, so the
    # tail (the 11th slowest) is one of them.
    SQUARE_OK = (Fraction(0), Fraction(7, 5), 6)
    SQUARE_TIMEOUT = (Fraction(7, 4), Fraction(4), 12)

    def make_pool(self, rng: random.Random) -> List[List[Op]]:
        ops = []
        for i in range(self.DIVISION_OPS):
            ops.append(self._op(rng, "division", self._quotient(rng), i))
        for i in range(self.MAXIMAL_DIVISION_OPS):
            ops.append(self._op(rng, "maximal-division", self._quotient(rng), i))
        width = Fraction(self.COSINE_MAX, self.COSINE_SLICES)
        for k in range(self.COSINE_SLICES):
            for i in range(self.N_STRATA):
                x = _on_grid(rng, k * width, (k + 1) * width, self.COSINE_DEN)
                ops.append(self._op(rng, "cosine", (_signed(rng, x),), i))
        for lo, hi, slices in (self.SQUARE_OK, self.SQUARE_TIMEOUT):
            width = (hi - lo) / slices
            for k in range(slices):
                x = _on_grid(rng, lo + k * width, lo + (k + 1) * width, self.SQUARE_DEN)
                ops.append(self._op(rng, "square", (_signed(rng, x),), k))
        return [[op] for op in ops]

    def _op(self, rng, system: str, point, i: int) -> Op:
        return Op("apply", system, (point, self._precision(rng, i % self.N_STRATA)))

    def _quotient(self, rng) -> Tuple[Fraction, Fraction]:
        x2 = _signed(rng, _rational(rng, 1, 50, 16))
        return (_rational(rng, -50, 50, 16), x2)

    def _precision(self, rng: random.Random, stratum: int) -> int:
        """Index n >= 0 with n + 1 log-uniform in the stratum-th of N_STRATA
        equal slices of [1, MAX_N] on a log scale."""
        return int(self.MAX_N ** ((stratum + rng.random()) / self.N_STRATA)) - 1

    def warm_up(self):
        for system, point in (("division", (1, 3)), ("maximal-division", (1, 3)),
                              ("cosine", (1,)), ("square", (Fraction(1, 2),))):
            self.ax.evaluate.apply(self.system(system), self.ax.names.name_of_point(point), 10, self.BUDGET)

    def prepare(self, op: Op):
        point, n = op.args
        system = self.system(op.system)
        ax = self.ax
        return lambda: ax.evaluate.apply(system, ax.names.name_of_point(point), n, self.BUDGET)

    def check(self, op: Op, out) -> str:
        point, n = op.args
        if out.precision_index != n:
            return WRONG
        return OK if oracles.check_value(op.system.split("."), point, n, out.value) else WRONG

    def fingerprint(self, out):
        return (out.value, out.precision_index, out.search_steps)


# --- stream-eval -----------------------------------------------------------------

class StreamEval(Workload):
    """Reads of eval_name output names on a geometric index ladder."""

    name = "stream-eval"
    CHAINS = (
        ("cosine",),
        ("square",),
        ("cosine", "cosine"),
        ("cosine", "division"),
        ("square", "cosine"),
    )
    # Index ladder per name kind.  A Cauchy round trip reads the truncation
    # name at about 3n, so its operands are larger and its ladder shorter.
    LADDERS = {"truncation": (1, 3, 10, 30, 100, 300), "cauchy": (1, 3, 10, 30, 100)}
    INPUT_STRATA = 4
    BUDGET = 20_000
    # |x| <= 1 for square keeps the stream on names and operand growth; the
    # square budget defect at |x| >= 7/4 is measured by point-eval.
    INPUT_MAX = {"cosine": 4, "square": 1}

    def __init__(self, ax, seed: int):
        super().__init__(ax, seed)
        self._out = None

    def make_pool(self, rng: random.Random) -> List[List[Op]]:
        # one stream per (chain, name kind, input stratum); the seed sets
        # the order of the streams in every pass
        pool = []
        for chain in self.CHAINS:
            for kind, ladder in self.LADDERS.items():
                for stratum in range(self.INPUT_STRATA):
                    point = self._point(rng, chain, stratum)
                    pool.append([Op("read", ".".join(chain), (kind, point, n), warm=i > 0)
                                 for i, n in enumerate(ladder)])
        return pool

    def warm_up(self):
        for chain in self.CHAINS:
            point = (1, 3) if chain[-1] == "division" else (Fraction(1, 3),)
            self._build(chain, "truncation", point).approx(1)

    def _point(self, rng, chain, stratum: int) -> Tuple[Fraction, ...]:
        """Fixed input near the middle of the stratum-th of INPUT_STRATA
        equal slices of [0, INPUT_MAX] (for division, the quotient), with
        denominator 7.  The seed does not move it: the cost of the top reads
        swings fivefold between neighbouring points (square.cosine on a
        Cauchy name at n = 100: 1.8 s at 23/7, 0.3 s at 26/7), so drawn
        points would make one seed's run twice as long as another's."""
        lim = self.INPUT_MAX["cosine" if chain[-1] == "division" else chain[-1]]
        num = round((stratum + Fraction(1, 2)) * Fraction(lim, self.INPUT_STRATA) * 7)
        x = Fraction(num if num % 7 else num + 1, 7) * (-1) ** stratum
        if chain[-1] == "division":
            x2 = Fraction(11, 5)
            return (x * x2, x2)
        return (x,)

    def _schedule(self, i: int) -> int:
        return self.BUDGET

    def start_episode(self, episode: List[Op]):
        """Fresh caches and names, so every pass reads the stream from scratch."""
        super().start_episode(episode)
        kind, point, _ = episode[0].args
        self._out = self._build(episode[0].system.split("."), kind, point)

    def prepare(self, op: Op):
        out, n = self._out, op.args[2]
        return lambda: out.approx(n)[0]

    def _build(self, chain, kind, point):
        names = self.ax.names
        f = names.dyadic_name(point)
        if kind == "cauchy":
            f = names.cauchy_to_ordinary(names.ordinary_to_cauchy(f))
        for step in reversed(chain):
            f = self.ax.evaluate.eval_name(self.system(step), f, self._schedule)
        return f

    def check(self, op: Op, out) -> str:
        _, point, n = op.args
        return OK if oracles.check_value(op.system.split("."), point, n, out) else WRONG


# --- enumerate-audit ----------------------------------------------------------------

_ENUM_LINE = re.compile(r"#\d+: a=\(([^)]*)\) m=(\d+) b=(\S+) n=(\d+)$")
_CONDITION = re.compile(r"^(condition[12]): outcome = (\w+), samples = (\d+)", re.M)


@dataclass(frozen=True)
class _Quad:
    a: tuple
    m: int
    b: Fraction
    n: int


class EnumerateAudit(Workload):
    """CLI enumerate/verify requests and direct containment audits."""

    name = "enumerate-audit"
    # Cold episodes of one copy of the menu, per kind: the cold-op arguments
    # (count, xi per quad, --cond2-xi) each occur once, and the follow-up
    # counts (None: no follow-up) are dealt to them in a seeded order.  The
    # cold op drops the division singleton and its prefix cache first; a
    # follow-up runs right after it on the warm instance.
    COLD = {
        "enumerate": (((5, 2, False), (10, 2, False), (20, 2, False), (50, 2, False)),
                      (100, 200, None, None)),
        "verify": (((20, 2, False), (20, 4, True), (50, 2, True), (50, 4, False)),
                   (200, None, None, None)),
        "containment": (((100, 2, False), (100, 2, False), (300, 2, False), (300, 2, False)),
                        (1000, None, None, None)),
    }
    # Requests on the other three systems, whose prefixes prime() fills once
    # per run: a cold scan of those costs 3-13 s, too long to repeat.  One
    # copy of the menu holds the first three, the other the last three.
    PRIMED = (
        ("enumerate", "square", (200, 2, False)),
        ("verify", "maximal-division", (50, 4, True)),
        ("verify", "cosine", (None, 2, False)),
        ("enumerate", "cosine", (2000, 2, False)),
        ("verify", "square", (50, 2, False)),
        ("enumerate", "maximal-division", (200, 2, False)),
    )
    COPIES = 2
    KEEP_SINGLETONS = True  # the primed prefixes persist for the whole run
    COND2_XI = {"division": "1,3", "maximal-division": "1,3"}

    def __init__(self, ax, seed: int):
        super().__init__(ax, seed)
        self.frozen = digests.load()

    def make_pool(self, rng: random.Random) -> List[List[Op]]:
        pool = []
        primed = iter(self.PRIMED)
        for _ in range(self.COPIES):
            for kind, (cold_args, follows) in self.COLD.items():
                follows = list(follows)
                rng.shuffle(follows)
                for args, follow in zip(cold_args, follows):
                    episode = [Op(kind, "division", args, cold=True)]
                    if follow is not None:
                        episode.append(Op(kind, "division", (follow, 2, False), warm=True))
                    pool.append(episode)
            for _ in range(len(self.PRIMED) // self.COPIES):
                kind, system, args = next(primed)
                pool.append([Op(kind, system, args, warm=True)])
        return pool

    def warm_up(self):
        self._cli(["enumerate", "--system", "division", "--count", "5"])
        self._clear()

    def prime(self):
        for _, system, _ in self.PRIMED:
            self.system(system).members_prefix(max(digests.PREFIX_COUNTS[system]))

    def _clear(self):
        """Cold start: drop the division singleton and its prefix cache."""
        self.ax.systems.division_system.cache_clear()

    def prepare(self, op: Op):
        if op.cold:
            self._clear()
        count, xi, cond2 = op.args
        if op.kind == "containment":
            sub, sup = self.system("division"), self.system("maximal-division")
            return lambda: self.ax.verify.verify_containment(sub, sup, count)
        self.system(op.system)  # the instance the CLI will resolve
        if op.kind == "enumerate":
            argv = ["enumerate", "--system", op.system, "--count", str(count)]
        else:
            argv = ["verify", "--system", op.system]
            if count is not None:
                argv += ["--quads", str(count), "--xi-per-quad", str(xi)]
            if cond2:
                argv += ["--cond2-xi", self.COND2_XI[op.system]]
        return lambda: self._cli(argv)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.ax.cli.main(argv)
        return rc, out.getvalue()

    def output_bytes(self, out) -> int:
        return len(out[1]) if isinstance(out, tuple) else 0

    def fingerprint(self, out):
        return out if isinstance(out, tuple) else (out.outcome.value, out.samples)

    def check(self, op: Op, out) -> str:
        count = op.args[0]
        if op.kind == "containment":
            outcome = out.outcome.value
            if outcome == "counter_example":
                return COUNTER_EXAMPLE
            if outcome != "pass" or out.samples != count:
                return WRONG
            return self._prefix_ok("division", count)
        rc, text = out
        if rc == 2:
            return TIMEOUT
        if op.kind == "enumerate":
            if rc != 0:
                return WRONG
            quads = [self._parse(line) for line in text.splitlines()]
            ok = None not in quads and digests.matches(self.frozen, op.system, count, quads)
            return OK if ok else WRONG
        if rc == 3:
            return COUNTER_EXAMPLE
        outcomes = {label: outcome for label, outcome, _ in _CONDITION.findall(text)}
        expected = {"condition1", "condition2"} if op.args[2] else {"condition1"}
        if rc not in (0, 4) or set(outcomes) != expected:
            return WRONG
        return self._prefix_ok(op.system, 1000 if count is None else count)

    def _prefix_ok(self, system: str, count: int) -> str:
        """The warm instance's cached prefix must equal the frozen one."""
        quads = self.system(system).members_prefix(count)
        return OK if digests.matches(self.frozen, system, count, quads) else WRONG

    @staticmethod
    def _parse(line: str) -> Optional[_Quad]:
        m = _ENUM_LINE.match(line)
        if m is None:
            return None
        a = tuple(Fraction(c) for c in m[1].split(", "))
        return _Quad(a, int(m[2]), Fraction(m[3]), int(m[4]))


WORKLOADS: Dict[str, type] = {w.name: w for w in (PointEval, StreamEval, EnumerateAudit)}
