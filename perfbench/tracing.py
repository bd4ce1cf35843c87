"""In-memory spans around the benchmark's calls into approxsys.

Every wrapper lives here; the program is not modified.  `Instrumentation`
replaces public names on approxsys modules (and public attributes on the
system and name objects the benchmark obtains) with traced versions, and
restores all of them on `uninstall`.  Each span records its name,
start, end, parent span and the benchmark operation it belongs to, in flat
arrays that are written out when the run ends.

Paths the program takes without passing a public name stay invisible: the
division system's bulk scanner calls neither `enumerate` nor `decide`, so
codes scanned for division are not observable from here.
"""

from __future__ import annotations

import dataclasses
import gzip
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

SYSTEM_NAMES = ("division", "maximal-division", "cosine", "square")


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    """Span recorder plus named counters and samples."""

    def __init__(self):
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.label = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.op_id = -1
        self.active = False
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def begin(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def current(self) -> int:
        """Innermost open span."""
        return self._stack[-1]

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, label: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Traced version of fn; after(args, result, error) runs inside the span."""
        label_id = self.label_id(label)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(label_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, None, exc)
                self.finish(idx)
                raise
            if after is not None:
                after(args, result, None)
            self.finish(idx)
            return result

        return traced

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Calls, total and self seconds per span label."""
        own = self_times(self.start, self.end, self.parent)
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.labels}
        for i, lid in enumerate(self.label):
            row = out[self.labels[lid]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out

    def write(self, path):
        """Spans as gzip'd CSV: op, span, parent, name, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{self.labels[self.label[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def point_bits(point) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in point)


class Instrumentation:
    """Attach a Tracer to the public surface of one imported approxsys."""

    def __init__(self, ax, tracer: Tracer):
        self.ax = ax
        self.t = tracer
        self._saved: List[tuple] = []
        self._done = weakref.WeakSet()
        self.apply_spans: Dict[str, List[int]] = defaultdict(list)

    # -- module names --------------------------------------------------------

    def _patch(self, obj, attr: str, replacement):
        """Set obj.attr, remembering whether obj itself held the old value."""
        own = vars(obj)
        self._saved.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, replacement)

    def install(self):
        ax, t = self.ax, self.t
        self._patch(ax.core, "decode_quadruple",
                    t.wrap("numerics.decode_quadruple", ax.core.decode_quadruple))
        self._patch(ax.evaluate, "apply", t.wrap("evaluate.apply", ax.evaluate.apply, self._after_apply))
        for module in (ax.verify, ax.cli):
            for fname, label in (("verify_condition1", "verify.condition1"),
                                 ("verify_condition2", "verify.condition2")):
                self._patch(module, fname, self._oracle_traced(
                    t.wrap(label, getattr(module, fname), self._after_verdict)))
        self._patch(ax.verify, "verify_containment",
                    t.wrap("verify.containment", ax.verify.verify_containment, self._after_verdict))
        self._patch(ax.cli, "main", t.wrap("cli.main", ax.cli.main))
        for fname in ("name_of_point", "dyadic_name", "ordinary_to_cauchy", "cauchy_to_ordinary"):
            self._patch(ax.names, fname, self._name_factory(getattr(ax.names, fname), False))
        self._patch(ax.evaluate, "eval_name", self._name_factory(ax.evaluate.eval_name, True))
        for fname in ("division_system", "maximal_division_system", "cosine_system", "squaring_system"):
            self._patch(ax.systems, fname, self._system_factory(getattr(ax.systems, fname)))

    def uninstall(self):
        """Restore every patched module name and object attribute."""
        self.t.active = False
        for obj, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._saved.clear()
        self._done = weakref.WeakSet()

    # -- objects the factories return ----------------------------------------

    def _system_factory(self, ctor):
        def factory():
            return self.system(ctor())

        factory.cache_clear = ctor.cache_clear
        return factory

    def system(self, s):
        """Trace the public methods of one system instance (idempotent)."""
        if s in self._done:
            return s
        self._done.add(s)
        t, label = self.t, s.name
        counts = t.counts

        def after_decide(args, result, error):
            counts[f"systems.{label}.decide.accepted"] += bool(result)

        def after_prefix(args, result, error):
            if result is not None:
                counts["core.members_returned"] += len(result)
                if label != "division":
                    counts["core.members_returned_observable"] += len(result)

        if s.decide is not None:
            self._patch(s, "decide", t.wrap(f"systems.{label}.decide", s.decide, after_decide))
        self._patch(s, "witness", t.wrap(f"systems.{label}.witness", s.witness))
        self._patch(s, "membership", t.wrap("core.membership", s.membership))
        self._patch(s, "enumerate", t.wrap("core.enumerate", s.enumerate))
        self._patch(s, "members_prefix", t.wrap("core.members_prefix", s.members_prefix, after_prefix))
        return s

    def _name_factory(self, factory, from_eval_name: bool):
        def traced_factory(*args, **kwargs):
            return self.name(factory(*args, **kwargs), from_eval_name)

        return traced_factory

    def name(self, f, from_eval_name: bool = False):
        counts, samples = self.t.counts, self.t.samples

        def after_read(args, result, error):
            if result is None:
                return
            counts["names.reads"] += 1
            counts["names.max_index"] = max(counts["names.max_index"], args[0])
            samples["names.point_bits"].append(point_bits(result))
            if from_eval_name:
                counts["evaluate.eval_name.reads"] += 1

        self._patch(f, "approx", self.t.wrap("names.approx", f.approx, after_read))
        return f

    # -- hooks ------------------------------------------------------------------

    def _after_apply(self, args, result, error):
        counts, samples = self.t.counts, self.t.samples
        system = args[0]
        if result is not None:
            samples["evaluate.probes"].append(result.search_steps)
            samples["evaluate.result_bits"].append(point_bits((result.value,)))
        elif isinstance(error, self.ax.SearchTimeout):
            counts["evaluate.timeouts"] += 1
            samples["evaluate.probes"].append(error.budget)
        self.apply_spans[system.name].append(self.t.current())

    def _after_verdict(self, args, result, error):
        if result is None:
            return
        counts = self.t.counts
        counts["verify.samples"] += result.samples
        counts["verify.verdicts"] += 1
        counts["verify.inconclusive"] += result.outcome is self.ax.Outcome.INCONCLUSIVE

    def _oracle_traced(self, audit):
        """Route the oracle argument of a condition audit through a span."""
        t = self.t

        def traced_audit(system, oracle, *args, **kwargs):
            if t.active:
                oracle = dataclasses.replace(oracle, eval=t.wrap("verify.oracle", oracle.eval))
            return audit(system, oracle, *args, **kwargs)

        return traced_audit
