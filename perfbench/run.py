"""approxsys benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload point-eval --seed 1 --seconds 30 --trace 0

Imports approxsys from the `src` directory next to this one and sets it up
SETUP_REPEATS times (the median is `setup_s`).  The seed fixes one pool of
operations; the runner times it in whole passes, at least MIN_PASSES, until
the timed calls have used --seconds.  Every output is checked outside the
timed region: the first repetition against an oracle, the others for
equality with it.

Times are reported at a reference machine speed.  On a shared host, other
tenants slow everything a process does by up to half, for seconds or for
minutes.  So between episodes the runner times fixed pure-Python kernels
(speed.py; they call nothing in approxsys), each call's time is divided by
how much slower than its reference the matching kernel ran around it, and
an operation's latency is the median of its scaled repetitions.  The
figures as measured are printed too.  The last line of standard output is one JSON
object; the lines before it are the same metrics for a reader.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one unmeasured
pass, then alternates untraced and traced passes for --seconds, reports the
per-layer metrics of the traced passes and the tracing overhead, and writes
the spans to perfbench/out/.

Exit status: 0 when every output is correct, 1 when a check failed, 2 when
approxsys cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Tuple

import speed
import stats
import workloads
from tracing import Instrumentation, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 15
MIN_PASSES = 3


def import_approxsys():
    """Fresh import of approxsys from ROOT/src, and nothing else."""
    src = ROOT / "src"
    if not (src / "approxsys" / "__init__.py").is_file():
        print(f"error: no approxsys package under {src}", file=sys.stderr)
        raise SystemExit(2)
    for mod in [m for m in sys.modules if m == "approxsys" or m.startswith("approxsys.")]:
        del sys.modules[mod]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ax = importlib.import_module("approxsys")
    importlib.import_module("approxsys.cli")
    if not Path(ax.__file__).resolve().is_relative_to(src):
        print(f"error: imported approxsys from {ax.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return ax


@dataclass
class Record:
    """One timed call: an operation of the pool in one pass."""
    op: workloads.Op
    latency_s: float  # as measured
    status: str
    output_bytes: int
    scaled_s: float = 0.0  # latency_s at the reference machine speed
    start: float = 0.0  # perf_counter() when the call began


@dataclass
class OpResult:
    """An operation over all its timed repetitions."""
    op: workloads.Op
    latency_s: float  # median repetition, at the reference machine speed
    status: str  # the worst status of any repetition
    calls: int
    raw_s: float = 0.0  # median repetition as measured


def set_up(workload: str, seed: int) -> Tuple[object, float, float]:
    """Import, build systems, generate inputs, warm up: median of repeats,
    scaled and as measured."""
    times = []
    meter = speed.Meter()
    start = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        meter.sample()
        t0 = time.perf_counter()
        ax = import_approxsys()
        wl = workloads.WORKLOADS[workload](ax, seed)
        wl.set_up()
        times.append(time.perf_counter() - t0)
    meter.sample()
    raw = median(times)
    return wl, raw / meter.factor(start, time.perf_counter()), raw


class Checker:
    """Checks each operation's first output with the workload's oracle and
    every later repetition for equality with that first output."""

    def __init__(self, wl):
        self.wl = wl
        self.first: Dict[int, tuple] = {}

    def __call__(self, op: workloads.Op, out, status) -> str:
        if status is None:
            fp = self.wl.fingerprint(out)
        else:
            fp = status
        if op.id not in self.first:
            self.first[op.id] = (fp, status or self.wl.check(op, out))
        want, first_status = self.first[op.id]
        return first_status if fp == want else workloads.WRONG


def run_passes(wl, checker: Checker, meter: speed.Meter, first_pass: int, seconds: float,
               tracer: Tracer = None, min_passes: int = 1) -> Tuple[List[Record], int]:
    """Whole passes from first_pass, at least min_passes, until the timed
    calls used `seconds`; returns the records and the next pass's index."""
    records: List[Record] = []
    busy = 0.0
    p = first_pass
    while busy < seconds or p < first_pass + min_passes:
        gc.collect()
        for episode in wl.pass_order(p):
            meter.sample_if_due()
            wl.start_episode(episode)
            for op in episode:
                call = wl.prepare(op)
                if tracer is not None:
                    tracer.op_id += 1
                    tracer.active = True
                gc.disable()
                t0 = time.perf_counter()
                try:
                    out, status = call(), None
                except wl.ax.SearchTimeout:
                    out, status = None, workloads.TIMEOUT
                except Exception:  # a crash is a wrong output; keep measuring
                    traceback.print_exc()
                    out, status = None, workloads.WRONG
                finally:
                    dt = time.perf_counter() - t0
                    gc.enable()
                    if tracer is not None:
                        tracer.active = False
                busy += dt
                records.append(Record(op, dt, checker(op, out, status), wl.output_bytes(out),
                                      start=t0))
        p += 1
    # the kernel samples after the last call bound its window too
    for _ in range(speed.MIN_SAMPLES):
        meter.sample()
    for r in records:
        r.scaled_s = r.latency_s / meter.factor(r.start, r.start + r.latency_s)
    return records, p


def timed_s(records: List[Record]) -> float:
    return sum(r.latency_s for r in records)


FAILED = (workloads.TIMEOUT, workloads.WRONG, workloads.COUNTER_EXAMPLE)
INCORRECT = (workloads.WRONG, workloads.COUNTER_EXAMPLE)
_SEVERITY = {workloads.OK: 0, workloads.TIMEOUT: 1, workloads.COUNTER_EXAMPLE: 2, workloads.WRONG: 3}


def per_op(records: List[Record]) -> List[OpResult]:
    """Fold the repetitions of each operation, in pool order."""
    by_id: Dict[int, List[Record]] = {}
    for r in records:
        by_id.setdefault(r.op.id, []).append(r)
    folded = []
    for i in sorted(by_id):
        reps = by_id[i]
        status = max((r.status for r in reps), key=_SEVERITY.__getitem__)
        folded.append(OpResult(reps[0].op, median(r.scaled_s for r in reps), status, len(reps),
                               median(r.latency_s for r in reps)))
    return folded


def end_to_end(ops: List[OpResult], setup_s: float) -> Dict[str, Tuple[float, str]]:
    lat = [o.latency_s for o in ops]
    failed = sum(o.status in FAILED for o in ops)
    tail = stats.tail(lat)
    if tail is None:
        raise SystemExit(f"error: {len(lat)} operations are too few for a tail percentile")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * median(lat), "ms"),
        "latency_tail_ms": (1000 * tail.value, "ms"),
        "completed_ratio": (1 - failed / len(lat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def describe(ops: List[OpResult], records: List[Record], meter: speed.Meter,
             setup_raw_s: float) -> List[str]:
    """Reader-facing lines that the JSON does not carry."""
    lat = [o.latency_s for o in ops]
    raw = [o.raw_s for o in ops]
    tail = stats.tail(lat)
    failed = [o for o in ops if o.status in FAILED]
    by_status = dict(Counter(o.status for o in failed))
    busy = sum(lat)
    split: Dict[str, float] = {}
    for o in ops:
        split[o.op.system] = split.get(o.op.system, 0.0) + o.latency_s
    reps = Counter(o.calls for o in ops)
    return [
        f"  as measured: setup_s = {setup_raw_s:.6g} s, ops_per_s = {len(raw) / sum(raw):.6g} 1/s, "
        f"latency_p50_ms = {1000 * median(raw):.6g} ms, "
        f"latency_tail_ms = {1000 * stats.tail(raw).value:.6g} ms",
        f"  machine speed over {len(meter.at)} kernel samples: small kernel quartiles "
        + ", ".join(f"{1000 * q:.4g}" for q in quantiles(meter.small, n=4))
        + f" ms (reference {1000 * speed.SMALL_REFERENCE_S:g}); big kernel quartiles "
        + ", ".join(f"{1000 * q:.4g}" for q in quantiles(meter.big, n=4))
        + f" ms (reference {1000 * speed.BIG_REFERENCE_S:g})",
        f"  latency_tail is {stats.percentile_label(tail)}",
        f"  failed_ratio = {len(failed) / len(ops):.6f} ({len(failed)}/{len(ops)} operations; "
        f"{by_status or 'none'})",
        f"  timed calls = {len(records)} in {timed_s(records):.2f} s; repetitions per operation: "
        + ", ".join(f"{k} x{v}" for k, v in sorted(reps.items())),
        f"  warm_share = {sum(o.op.warm for o in ops) / len(ops):.4f} "
        f"(operations on state their episode or priming left; cold operations cleared "
        f"caches first: {sum(o.op.cold for o in ops)})",
        "  time split: " + ", ".join(f"{k} {v / busy:.1%}" for k, v in sorted(split.items())),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl, setup_s, setup_raw_s = set_up(args.workload, args.seed)
    t0 = time.perf_counter()
    wl.prime()
    prime_s = time.perf_counter() - t0
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  pool = {len(wl.ops())} operations in {len(wl.pool())} episodes; "
          f"untimed priming {prime_s:.2f} s")
    checker = Checker(wl)
    meter = speed.Meter()

    if args.trace:
        import layers

        # Pass 0 warms what later passes find warm and is not measured.
        # Then passes alternate untraced and traced, so drift in machine
        # speed falls on both sides alike.
        warm, p = run_passes(wl, checker, meter, 0, 0)
        untraced: List[Record] = []
        records: List[Record] = []
        tracer = Tracer()
        inst = Instrumentation(wl.ax, tracer)
        while not (untraced and records) or timed_s(untraced) + timed_s(records) < args.seconds:
            if p % 2:
                untraced += run_passes(wl, checker, meter, p, 0)[0]
            else:
                inst.install()
                try:
                    records += run_passes(wl, checker, meter, p, 0, tracer)[0]
                finally:
                    inst.uninstall()
            p += 1
        metrics = layers.per_layer(tracer, inst, records, untraced)
        for line in layers.report(metrics):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        print(f"  {len(tracer.start)} spans written to {span_file.relative_to(ROOT)}")
        records = warm + untraced + records
        ops = per_op(records)
    else:
        records, _ = run_passes(wl, checker, meter, 0, args.seconds, min_passes=MIN_PASSES)
        ops = per_op(records)
        metrics = end_to_end(ops, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        for line in describe(ops, records, meter, setup_raw_s):
            print(line)

    incorrect = [o for o in ops if o.status in INCORRECT]
    for o in incorrect[:10]:
        print(f"  INCORRECT {o.status}: {o.op}", file=sys.stderr)
    result = {
        "correct": not incorrect,
        "attempted": len(ops),
        "failed": sum(o.status in FAILED for o in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
