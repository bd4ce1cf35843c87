"""Per-layer metrics of a traced run, grouped by approxsys module.

Counts and self times cover the traced passes of the run only.  Self time is a
span's duration minus the time its child spans cover (tracing.self_times).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Tuple

from tracing import SYSTEM_NAMES, Instrumentation, Tracer

Metric = Tuple[float, str]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("numerics.decode_quadruple.calls", "count", "lower"),
    ("numerics.decode_quadruple.self_s", "s", "lower"),
    ("core.members_prefix.calls", "count", "lower"),
    ("core.members_prefix.self_s", "s", "lower"),
    ("core.members_returned", "count", "higher"),
    ("core.codes_scanned", "count", "lower"),
    ("core.scan_yield", "ratio", "higher"),
    ("core.membership.calls", "count", "lower"),
]
for _s in SYSTEM_NAMES:
    PER_LAYER += [
        (f"systems.{_s}.decide.calls", "count", "lower"),
        (f"systems.{_s}.decide.self_s", "s", "lower"),
        (f"systems.{_s}.decide.accept_ratio", "ratio", "higher"),
        (f"systems.{_s}.witness.calls", "count", "lower"),
        (f"systems.{_s}.witness.self_s", "s", "lower"),
    ]
PER_LAYER += [
    ("names.reads", "count", "lower"),
    ("names.max_index", "index", "lower"),
    ("names.point_bits_p50", "bits", "lower"),
    ("names.point_bits_max", "bits", "lower"),
    ("names.self_s", "s", "lower"),
    ("evaluate.apply.calls", "count", "lower"),
    ("evaluate.apply.self_s", "s", "lower"),
    ("evaluate.probes_p50", "count", "lower"),
    ("evaluate.probes_max", "count", "lower"),
    ("evaluate.timeouts", "count", "lower"),
    ("evaluate.result_bits_p50", "bits", "lower"),
    ("evaluate.result_bits_max", "bits", "lower"),
]
PER_LAYER += [(f"evaluate.apply_ms.{_s}.p50", "ms", "lower") for _s in SYSTEM_NAMES]
PER_LAYER += [
    ("evaluate.eval_name.reads", "count", "lower"),
    ("verify.condition1.calls", "count", "lower"),
    ("verify.condition1.self_s", "s", "lower"),
    ("verify.condition2.self_s", "s", "lower"),
    ("verify.containment.self_s", "s", "lower"),
    ("verify.oracle.calls", "count", "lower"),
    ("verify.oracle.self_s", "s", "lower"),
    ("verify.samples", "count", "higher"),
    ("verify.inconclusive_ratio", "ratio", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("bench.ops", "count", "higher"),
    ("bench.warm_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Rows the wrappers cannot see in full, printed next to their values.
NOT_OBSERVABLE = {
    "core.codes_scanned": "division: not observable (its bulk scanner bypasses enumerate)",
    "core.scan_yield": "generic-scan systems only; division not observable",
    "systems.division.decide.calls": "division prefix scans: not observable (bulk scanner bypasses decide)",
    "numerics.decode_quadruple.calls": "division prefix scans: not observable (bulk scanner decodes inline)",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values) -> float:
    return median(values) if values else 0.0


def _typical(records) -> Dict[int, float]:
    """Median timed call of each pool operation, at the reference speed."""
    reps: Dict[int, List[float]] = {}
    for r in records:
        reps.setdefault(r.op.id, []).append(r.scaled_s)
    return {i: median(v) for i, v in reps.items()}


def per_layer(tracer: Tracer, inst: Instrumentation, records, untraced) -> Dict[str, Metric]:
    agg = tracer.aggregate()
    counts, samples = tracer.counts, tracer.samples

    def calls(label):
        return agg.get(label, {}).get("calls", 0)

    def self_s(label):
        return agg.get(label, {}).get("self_s", 0.0)

    codes = calls("core.enumerate")
    values: Dict[str, float] = {
        "numerics.decode_quadruple.calls": calls("numerics.decode_quadruple"),
        "numerics.decode_quadruple.self_s": self_s("numerics.decode_quadruple"),
        "core.members_prefix.calls": calls("core.members_prefix"),
        "core.members_prefix.self_s": self_s("core.members_prefix"),
        "core.members_returned": counts["core.members_returned"],
        "core.codes_scanned": codes,
        "core.scan_yield": _ratio(counts["core.members_returned_observable"], codes),
        "core.membership.calls": calls("core.membership"),
    }
    for s in SYSTEM_NAMES:
        decide = f"systems.{s}.decide"
        values[f"{decide}.calls"] = calls(decide)
        values[f"{decide}.self_s"] = self_s(decide)
        values[f"{decide}.accept_ratio"] = _ratio(counts[f"{decide}.accepted"], calls(decide))
        values[f"systems.{s}.witness.calls"] = calls(f"systems.{s}.witness")
        values[f"systems.{s}.witness.self_s"] = self_s(f"systems.{s}.witness")
    bits = samples["names.point_bits"]
    probes = samples["evaluate.probes"]
    result_bits = samples["evaluate.result_bits"]
    values.update({
        "names.reads": counts["names.reads"],
        "names.max_index": counts["names.max_index"],
        "names.point_bits_p50": _p50(bits),
        "names.point_bits_max": max(bits, default=0),
        "names.self_s": self_s("names.approx"),
        "evaluate.apply.calls": calls("evaluate.apply"),
        "evaluate.apply.self_s": self_s("evaluate.apply"),
        "evaluate.probes_p50": _p50(probes),
        "evaluate.probes_max": max(probes, default=0),
        "evaluate.timeouts": counts["evaluate.timeouts"],
        "evaluate.result_bits_p50": _p50(result_bits),
        "evaluate.result_bits_max": max(result_bits, default=0),
    })
    for s in SYSTEM_NAMES:
        spans = inst.apply_spans.get(s, [])
        values[f"evaluate.apply_ms.{s}.p50"] = 1000 * _p50([tracer.end[i] - tracer.start[i] for i in spans])
    traced_typical, untraced_typical = _typical(records), _typical(untraced)
    both = traced_typical.keys() & untraced_typical.keys()
    values.update({
        "evaluate.eval_name.reads": counts["evaluate.eval_name.reads"],
        "verify.condition1.calls": calls("verify.condition1"),
        "verify.condition1.self_s": self_s("verify.condition1"),
        "verify.condition2.self_s": self_s("verify.condition2"),
        "verify.containment.self_s": self_s("verify.containment"),
        "verify.oracle.calls": calls("verify.oracle"),
        "verify.oracle.self_s": self_s("verify.oracle"),
        "verify.samples": counts["verify.samples"],
        "verify.inconclusive_ratio": _ratio(counts["verify.inconclusive"], counts["verify.verdicts"]),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": sum(r.output_bytes for r in records),
        "bench.ops": len(records),
        "bench.warm_share": _ratio(sum(r.op.warm for r in records), len(records)),
        "trace.spans": len(tracer.start),
        # summed latency of the operations timed both ways, traced over
        # untraced, as a percentage increase
        "trace.overhead_pct": 100 * (_ratio(sum(traced_typical[i] for i in both),
                                            sum(untraced_typical[i] for i in both)) - 1),
    })
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}


def report(metrics: Dict[str, Metric]) -> List[str]:
    lines = []
    module = None
    for name, (value, unit) in metrics.items():
        head = name.split(".")[0]
        if head != module:
            module = head
            lines.append(f"  [{module}]")
        note = NOT_OBSERVABLE.get(name)
        lines.append(f"    {name} = {value:.6g} {unit}" + (f"   ({note})" if note else ""))
    return lines
