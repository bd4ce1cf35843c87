"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from fractions import Fraction

import pytest
from mpmath import iv

import digests
import oracles
import stats
from run import import_approxsys
from tracing import Instrumentation, Tracer, self_times


@pytest.fixture(scope="module")
def ax():
    return import_approxsys()


# --- tail percentile ----------------------------------------------------------


def test_tail_is_the_eleventh_largest_with_its_sample_count():
    t = stats.tail(list(range(1, 101)))
    assert (t.value, t.percentile, t.samples, t.beyond) == (90, 90.0, 100, 10)
    assert stats.percentile_label(t) == "p90.0 of 100 samples, 10 beyond"


def test_tail_needs_more_samples_than_it_leaves_beyond():
    assert stats.tail([5.0] * 10) is None
    t = stats.tail([float(i) for i in range(11)])
    assert (t.value, t.samples) == (0.0, 11)
    assert t.percentile == pytest.approx(100 / 11)


def test_tail_ignores_input_order():
    values = [3.0, 9.0, 1.0] * 7
    assert stats.tail(values) == stats.tail(sorted(values))


# --- span self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_links_nested_spans_and_sums_self_time():
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    t.active = True
    t.op_id = 7
    assert outer(1) == 3
    t.active = False
    assert outer(1) == 3  # inactive: no spans
    assert list(t.parent) == [-1, 0, 0]
    assert list(t.op) == [7, 7, 7]
    agg = t.aggregate()
    assert agg["outer"]["calls"] == 1 and agg["inner"]["calls"] == 2
    total = agg["outer"]["total_s"]
    assert agg["outer"]["self_s"] + agg["inner"]["total_s"] == pytest.approx(total)


def test_instrumentation_restores_every_patched_name(ax):
    before = {(m.__name__, k): v for m in (ax.core, ax.evaluate, ax.verify, ax.cli, ax.names, ax.systems)
              for k, v in vars(m).items()}
    inst = Instrumentation(ax, Tracer())
    inst.install()
    assert ax.evaluate.apply is not before[("approxsys.evaluate", "apply")]
    system = ax.systems.division_system()
    decide = vars(system)["decide"]
    name = ax.names.name_of_point((1, 3))
    assert "witness" in vars(system) and "approx" in vars(name)
    inst.uninstall()
    assert "witness" not in vars(system) and "approx" not in vars(name)
    assert vars(system)["decide"] is not decide  # the original predicate is back
    after = {(m.__name__, k): v for m in (ax.core, ax.evaluate, ax.verify, ax.cli, ax.names, ax.systems)
             for k, v in vars(m).items()}
    assert after == before


# --- enumeration-order digests ----------------------------------------------------


def test_digest_accepts_the_reference_prefix_and_rejects_a_reordering(ax):
    frozen = digests.load()
    prefix = digests.reference_prefix(ax, ax.systems.division_system(), 5)
    assert digests.matches(frozen, "division", 5, prefix)
    swapped = [prefix[1], prefix[0]] + prefix[2:]
    assert not digests.matches(frozen, "division", 5, swapped)
    assert not digests.matches(frozen, "division", 5, prefix[:4])
    assert not digests.matches(frozen, "division", 7, prefix)  # count not frozen


def test_frozen_digests_match_the_reference_enumerator_on_small_counts(ax):
    frozen = digests.load()
    for system, ctor in (("square", ax.systems.squaring_system),
                         ("maximal-division", ax.systems.maximal_division_system)):
        count = min(digests.PREFIX_COUNTS[system])
        assert digests.matches(frozen, system, count, digests.reference_prefix(ax, ctor(), count))


# --- oracles --------------------------------------------------------------------------


def test_exact_oracle_rejects_a_value_exactly_one_over_n_plus_one_off():
    n = 10
    truth = Fraction(9, 4)
    assert oracles.check_value(["square"], (Fraction(3, 2),), n, truth + Fraction(1, n + 2))
    assert not oracles.check_value(["square"], (Fraction(3, 2),), n, truth + Fraction(1, n + 1))
    assert not oracles.check_value(["division"], (Fraction(1), Fraction(3)), n,
                                   Fraction(1, 3) - Fraction(1, n + 1))


def test_interval_oracle_rejects_a_value_exactly_one_over_n_plus_one_off():
    n = 99
    # cos 0 = 1 is exact, so the enclosure is the point 1 at every precision
    assert not oracles.check_value(["cosine"], (Fraction(0),), n, 1 + Fraction(1, n + 1))
    assert oracles.check_value(["cosine"], (Fraction(0),), n, 1 + Fraction(1, n + 2))
    eighth = Fraction(3, 8)  # dyadic, so its enclosure is exact
    assert not oracles.within_enclosure(eighth + Fraction(1, n + 1), n, lambda: oracles.iv_rat(eighth))
    # 1/3 has no exact enclosure: a value exactly at the bound never resolves
    third = Fraction(1, 3)
    with pytest.raises(oracles.Unresolved):
        oracles.within_enclosure(third + Fraction(1, n + 1), n, lambda: oracles.iv_rat(third))


def test_interval_oracle_refines_a_straddle_instead_of_passing_it():
    n = 9
    iv.prec = 400
    lo, _ = oracles.interval_endpoints(iv.cos(oracles.iv_rat(Fraction(1, 3))))
    iv.prec = 53
    near = lo + Fraction(1, n + 1) - Fraction(1, 2 ** 300)  # inside by 2^-300
    assert oracles.check_value(["cosine"], (Fraction(1, 3),), n, near)
    beyond = lo + Fraction(1, n + 1) + Fraction(1, 2 ** 300)  # outside by ~2^-300
    assert not oracles.check_value(["cosine"], (Fraction(1, 3),), n, beyond)


def test_interval_oracle_reports_an_unresolvable_straddle():
    n = 9
    with pytest.raises(oracles.Unresolved):
        # the enclosure never narrows, so it straddles at every precision
        oracles.within_enclosure(Fraction(1, 20), n, lambda: iv.mpf(["0", "0.25"]))


# --- repetitions ---------------------------------------------------------------------


def _op(i):
    import workloads

    return workloads.Op("apply", "division", (), id=i)


def test_per_op_keeps_the_median_repetition_and_the_worst_status():
    import run
    import workloads

    a, b = _op(0), _op(1)
    # (op, as measured, status, bytes, scaled): the median is taken on each scale
    records = [
        run.Record(a, 0.3, workloads.OK, 0, 0.15),
        run.Record(b, 0.2, workloads.OK, 0, 0.2),
        run.Record(a, 0.1, workloads.OK, 0, 0.25),
        run.Record(b, 0.4, workloads.WRONG, 0, 0.4),
        run.Record(a, 0.2, workloads.TIMEOUT, 0, 0.2),
    ]
    folded = run.per_op(records)
    assert [(o.op.id, o.latency_s, o.raw_s, o.status, o.calls) for o in folded] == [
        (0, 0.2, 0.2, workloads.TIMEOUT, 3),
        (1, pytest.approx(0.3), pytest.approx(0.3), workloads.WRONG, 2)]


def test_speed_factor_is_the_local_median_of_the_matching_kernel():
    import speed

    meter = speed.Meter()
    # a fast phase until t = 10 s, then one where the small kernel runs 1.6
    # and the big kernel 1.25 times slower
    meter.at = [0.1 * i for i in range(200)]
    meter.small = [speed.SMALL_REFERENCE_S * (1 if t < 10 else 1.6) for t in meter.at]
    meter.big = [speed.BIG_REFERENCE_S * (1 if t < 10 else 1.25) for t in meter.at]
    assert meter.factor(3.0, 3.2) == pytest.approx(1.0)
    assert meter.factor(15.0, 15.5) == pytest.approx(1.25)
    assert meter.factor(15.0, 15.0001) == pytest.approx(1.6)  # a short call
    # a call far from every sample takes the nearest ones
    assert meter.factor(100.0, 101.0) == pytest.approx(1.25)
    meter.sample()
    assert meter.small[-1] > 0 and meter.big[-1] > 0


def test_checker_rejects_a_repetition_that_differs_from_the_first():
    import run
    import workloads

    class Fake:
        checked = 0

        def fingerprint(self, out):
            return out

        def check(self, op, out):
            self.checked += 1
            return workloads.OK

    wl = Fake()
    checker = run.Checker(wl)
    op = _op(0)
    assert checker(op, Fraction(1, 3), None) == workloads.OK
    assert checker(op, Fraction(1, 3), None) == workloads.OK
    assert checker(op, Fraction(1, 4), None) == workloads.WRONG
    assert checker(op, None, workloads.TIMEOUT) == workloads.WRONG
    assert wl.checked == 1  # the oracle runs on the first output only


# --- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json
    from pathlib import Path

    import layers
    import run
    import workloads

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    ops = [run.OpResult(_op(i), 0.001 * i, workloads.OK, 3) for i in range(1, 20)]
    reported = run.end_to_end(ops, 0.5)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, (_, unit) in reported.items()]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
