from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from approxsys import core
from approxsys.core import (
    ApproxSystem,
    DecidableSystem,
    Membership,
    Quadruple,
    decode_quadruple,
    encode_quadruple,
)
from approxsys.errors import DimensionError, DomainError, SearchTimeout
from approxsys.evaluate import apply
from approxsys.names import name_of_point
from approxsys.numerics import cantor_join, cantor_split
from approxsys.systems import (
    FAnd,
    atom,
    cosine_system,
    division_system,
    maximal_division_system,
    semialgebraic_system,
    squaring_system,
)
from conftest import EnumerableDivision

rationals = st.fractions(max_denominator=60)
small_nats = st.integers(min_value=0, max_value=200)


def test_quadruple_code_frozen():
    q = Quadruple((F(1), F(3)), 1, F(1, 3), 2)
    assert encode_quadruple(q) == 2_087_671
    assert decode_quadruple(2_087_671, 2) == q
    q0 = Quadruple((F(0), F(1)), 1, F(0), 0)
    assert encode_quadruple(q0) == 7
    assert decode_quadruple(7, 2) == q0


def test_quadruple_is_an_immutable_value():
    q = Quadruple((F(1), F(3)), 1, F(1, 3), 2)
    with pytest.raises(AttributeError):
        q.m = 5
    same = Quadruple((F(1), F(3)), 1, F(1, 3), 2)
    assert q == same and hash(q) == hash(same) and len({q, same}) == 1
    assert q != Quadruple((F(1), F(3)), 1, F(1, 3), 3)
    assert repr(q) == "Quadruple(a=(1, 3), m=1, b=1/3, n=2)"
    a, m, b, n = q
    assert (a, m, b, n) == (q.a, q.m, q.b, q.n)


def test_quadruple_json_record():
    q = Quadruple((F(1), F(-3, 2)), 4, F(1, 3), 2)
    assert q.to_json_dict() == {"a": ["1", "-3/2"], "m": 4, "b": "1/3", "n": 2}


@given(st.lists(rationals, min_size=1, max_size=2), small_nats, rationals, small_nats)
def test_quadruple_code_round_trip(coords, m, b, n):
    q = Quadruple(tuple(coords), m, b, n)
    assert decode_quadruple(encode_quadruple(q), len(coords)) == q


def test_decode_quadruple_total():
    for k in range(3000):
        q = decode_quadruple(k, 2)
        assert len(q.a) == 2 and q.m >= 0 and q.n >= 0


def test_enumeration_completeness_for_decidable():
    div = division_system()
    hits = 0
    for k in range(3000):
        q = div.enumerate(k)
        if q is not None:
            assert div.enumerate(encode_quadruple(q)) == q
            hits += 1
    assert hits > 0


def test_membership_decidable_ignores_budget():
    div = division_system()
    member = Quadruple((F(0), F(1)), 1, F(0), 0)
    assert div.membership(member, 0) is Membership.YES
    non_member = Quadruple((F(1), F(0)), 5, F(2), 0)
    assert div.membership(non_member, 10**6) is Membership.NOT_YET


def test_generic_membership_budget_boundary():
    sys = EnumerableDivision()
    q = Quadruple((F(0), F(1)), 1, F(0), 0)  # sits at code 7
    assert sys.membership(q, 6) is Membership.NOT_YET
    assert sys.membership(q, 7) is Membership.YES


@pytest.mark.parametrize("dim", [0, -1])
def test_decidable_system_rejects_nonpositive_dimension(dim):
    with pytest.raises(DimensionError) as info:
        DecidableSystem(lambda q: True, dim)
    assert str(info.value) == f"dimension must be at least 1, got {dim}"


def test_membership_dimension_check():
    with pytest.raises(DimensionError):
        division_system().membership(Quadruple((F(1),), 0, F(0), 0), 10)


def test_members_prefix_deterministic_and_cached():
    div = division_system()
    first = div.members_prefix(200)
    second = div.members_prefix(200)
    assert first == second
    assert div.members_prefix(50) == first[:50]


@pytest.mark.parametrize("fresh", [division_system.__wrapped__])
def test_members_prefix_honours_scan_cap_on_warm_cache(fresh):
    cold = fresh().members_prefix(256, scan_cap=2000)
    warm_system = fresh()
    warm_system.members_prefix(1000)
    warm = warm_system.members_prefix(256, scan_cap=2000)
    assert warm == cold
    assert len(cold) == 209
    assert all(encode_quadruple(q) < 2000 for q in cold)


@pytest.mark.parametrize("count, scan_cap", [
    (-1, None),  # unchecked, the whole cached prefix: 200 members here
    (5, -4),  # unchecked, []
    (-1, 10),
])
def test_members_prefix_rejects_negative_count_or_scan_cap(count, scan_cap):
    div = division_system.__wrapped__()
    div.members_prefix(200)
    scanned = div._scanned
    with pytest.raises(DomainError) as info:
        div.members_prefix(count, scan_cap)
    name, value = ("count", count) if count < 0 else ("scan_cap", scan_cap)
    assert str(info.value) == f"{name} must be at least 0, got {value}"
    assert div._scanned == scanned
    assert div.members_prefix(0) == []


def test_members_prefix_in_enumeration_order():
    div = division_system()
    members = div.members_prefix(300)
    explicit = []
    k = 0
    while len(explicit) < 300:
        q = div.enumerate(k)
        if q is not None:
            explicit.append(q)
        k += 1
    assert members == explicit


def test_empty_system_scan_terminates():
    empty = DecidableSystem(lambda q: False, 1, name="empty")
    assert empty.members_prefix(5, scan_cap=5000) == []


def test_full_system_enumerates_every_code():
    full = DecidableSystem(lambda q: True, 1, name="full")
    for k in range(50):
        assert full.enumerate(k) == decode_quadruple(k, 1)


def test_decidable_system_witness_plumbing():
    # witness is None or a function, as decide and modulus are
    assert ApproxSystem.witness is None
    assert DecidableSystem(lambda q: True, 1).witness is None

    with_hint = DecidableSystem(
        lambda q: True, 1, witness=lambda a, m, n: F(7)
    )
    assert with_hint.witness((F(0),), 3, 3) == F(7)
    assert "witness" not in vars(with_hint)  # the class-level method
    assert callable(division_system().witness)


@pytest.mark.parametrize("ctor", [
    division_system, maximal_division_system, cosine_system, squaring_system,
], ids=lambda ctor: ctor.__name__)
def test_members_prefix_equals_reference_scan(ctor):
    system = ctor.__wrapped__()
    reference = []
    k = 0
    while len(reference) < 200:
        q = decode_quadruple(k, system.dim_in)
        if system.decide(q):
            reference.append(q)
        k += 1
    assert system.members_prefix(200) == reference


def test_members_prefix_scans_only_to_the_count_th_member():
    calls = 0

    def counting_decide(q):
        nonlocal calls
        calls += 1
        return division_system().decide(q)

    div = DecidableSystem(counting_decide, 2)
    assert len(div.members_prefix(5)) == 5
    assert calls == 57  # the 5th member sits at code 56
    assert len(div.members_prefix(10)) == 10
    assert calls == 57 + 41  # resumed at code 57, not rescanned
    div.members_prefix(5)
    assert calls == 98  # served from the cache


# --- the diagonal walk ----------------------------------------------------------------


def _three_dim_system():
    return DecidableSystem(lambda q: q.a[0] + q.a[1] * q.a[2] <= q.b + q.m - q.n, 3, name="3d")


def _sum_formula_system():
    # |b - (a1 + a2)| <= u + v over (a1, a2, b, u, v)
    A1, A2, B, U, V = (tuple(int(j == i) for j in range(5)) for i in range(5))
    return semialgebraic_system(FAnd((
        atom(">=", (1, U), (1, V), (-1, B), (1, A1), (1, A2)),
        atom(">=", (1, U), (1, V), (1, B), (-1, A1), (-1, A2)),
    )), 2, name="sum")


WALKED = {
    "division": division_system.__wrapped__,
    "maximal-division": maximal_division_system.__wrapped__,
    "cosine": cosine_system.__wrapped__,
    "square": squaring_system.__wrapped__,
    "3d": _three_dim_system,
    "sum-formula": _sum_formula_system,
}
HORIZON = 4000  # reference scans cover the codes below this
MAX_DIAGONAL = 85  # every code on diagonals up to here is below HORIZON


@lru_cache(maxsize=None)
def _reference_scan(name):
    """(code, member) below HORIZON: decode_quadruple, then decide, from code 0."""
    system = WALKED[name]()
    return [(k, q) for k in range(HORIZON)
            if system.decide(q := decode_quadruple(k, system.dim_in))]


@pytest.mark.parametrize("name", sorted(WALKED))
@settings(max_examples=30, deadline=None)
@given(
    c1=st.integers(0, 60),
    c2=st.integers(0, 120),
    # scan_cap at position r >= 1 of diagonal t, i.e. mid-diagonal, or the default
    cap_at=st.none() | st.integers(1, MAX_DIAGONAL).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(1, t))),
)
@example(c1=5, c2=10, cap_at=None)  # resumes at code 57 = C(8, 2), mid-diagonal
@example(c1=5, c2=120, cap_at=(60, 30))
def test_resumed_members_prefix_equals_reference_scan(name, c1, c2, cap_at):
    reference = _reference_scan(name)
    assert len(reference) >= 120  # so that no request scans past HORIZON
    system = WALKED[name]()
    assert system.members_prefix(c1) == [q for _, q in reference[:c1]]
    scan_cap = None if cap_at is None else cantor_join(cap_at[0] - cap_at[1], cap_at[1])
    below = reference if scan_cap is None else [(k, q) for k, q in reference if k < scan_cap]
    assert system.members_prefix(c2, scan_cap) == [q for _, q in below[:c2]]


@pytest.mark.parametrize("name", sorted(WALKED))
@pytest.mark.parametrize("start", [0, 1, 2, 5, 56, 57, 1000])
def test_walk_equals_enumerate_from_any_start(name, start):
    system = WALKED[name]()
    i, r = cantor_split(start + 200)
    t = i + r
    # stop equal to start, mid-diagonal, at diagonal t's last code and just past it
    for stop in (start, cantor_join(t - t // 2, t // 2), cantor_join(0, t), cantor_join(0, t) + 1):
        members = [(k, q) for k in range(start, stop) if (q := system.enumerate(k)) is not None]
        assert list(system._walk(start, stop)) == members
        assert list(ApproxSystem._walk(system, start, stop)) == members


def _screened(system, start, stop):
    """The quadruples of codes start..stop-1 whose screen keys match, in code order."""
    point_key, tail_key = system.screen
    return [q for k in range(start, stop)
            if point_key((q := decode_quadruple(k, system.dim_in)).a) == tail_key(q.m, q.b, q.n)]


def test_members_prefix_decides_once_per_code_scanned():
    # division states a screen, so decide runs once per scanned code whose keys match
    div = division_system.__wrapped__()
    decide, seen = div.decide, []
    div.decide = lambda q: seen.append(q) or decide(q)  # as a tracer patches it
    members = div.members_prefix(10**4)
    assert len(members) == 10**4
    assert div._scanned == div._codes[-1] + 1
    passed = _screened(div, 0, div._scanned)
    assert seen == passed and seen[-1] == members[-1]  # in code order, none past the last member
    assert div.members_prefix(50, scan_cap=990) == members[:50]
    assert len(seen) == len(passed)
    start, scan_cap = div._scanned, div._scanned + 12_345  # reached before the 2 * 10^4-th member
    div.members_prefix(2 * 10**4, scan_cap)
    assert div._scanned == scan_cap
    assert seen == passed + _screened(div, start, scan_cap)


def test_resumed_requests_decode_each_point_and_tail_once(monkeypatch):
    # a request that resumes mid-diagonal finds the diagonal's entries kept
    reference = division_system().members_prefix(300)
    decoded = {"point": Counter(), "tail": Counter()}

    def counting(kind, decode):
        return lambda code, *rest: decoded[kind].update([code]) or decode(code, *rest)

    monkeypatch.setattr(core, "decode_point", counting("point", core.decode_point))
    monkeypatch.setattr(core, "_decode_tail", counting("tail", core._decode_tail))
    div = division_system.__wrapped__()
    for count in (100, 200, 300):
        assert div.members_prefix(count) == reference[:count]
    t = sum(cantor_split(div._scanned - 1))  # the last diagonal scanned
    for kind in decoded:
        assert decoded[kind] == Counter(range(t + 1)), kind


@pytest.mark.parametrize("key", [0, 1], ids=["point-key", "tail-key"])
def test_a_screen_key_that_raises_leaves_the_scan_aligned(key):
    screen = division_system().screen
    raising = {30}  # the entry whose key raises, once

    def flaky(*args):
        if len(system._points) in raising:
            raising.clear()
            raise DomainError("flaky key")
        return screen[key](*args)

    keys = list(screen)
    keys[key] = flaky
    system = DecidableSystem(division_system().decide, 2, screen=tuple(keys))
    with pytest.raises(DomainError):
        system.members_prefix(300)
    assert not raising
    assert system.members_prefix(300) == division_system().members_prefix(300)


def test_screen_skips_most_decide_calls_and_only_where_stated():
    calls = 0

    def counting_decide(q):
        nonlocal calls
        calls += 1
        return division_system().decide(q)

    screened = division_system.__wrapped__()
    screened.decide = counting_decide  # as a tracer patches it
    members = screened.members_prefix(2000)
    assert len(members) == 2000
    assert calls < screened._scanned / 4
    calls = 0
    unscreened = DecidableSystem(counting_decide, 2)
    assert unscreened.screen is None
    assert unscreened.members_prefix(2000) == members
    assert calls == unscreened._scanned == screened._scanned


def test_decide_replaced_on_the_instance_is_called_once_per_membership_and_probe():
    div = division_system.__wrapped__()
    decide, seen = div.decide, []
    div.decide = lambda q: seen.append(q) or decide(q)  # as a tracer patches it
    q = Quadruple((F(1), F(3)), 9, F(1, 3), 0)
    assert div.membership(q, 0) is Membership.YES and seen == [q]
    seen.clear()
    res = apply(div, name_of_point((F(1), F(3))), 99, 100)
    assert res.value == F(1, 3) and len(seen) == res.search_steps == 1
    seen.clear()
    with pytest.raises(SearchTimeout):  # (1, 0) is outside the domain
        apply(div, name_of_point((F(1), F(0))), 3, 50)
    assert len(seen) == 50


def test_members_prefix_resumes_one_past_the_last_member_listed():
    for code in (30, 28, 35):  # mid-diagonal 7, its first code, its last code
        calls, fail_at = 0, {code + 1}  # from code 0, call k + 1 decides code k

        def flaky_decide(q):
            nonlocal calls
            calls += 1
            if calls in fail_at:
                raise DomainError("flaky predicate")
            return division_system().decide(q)

        div = DecidableSystem(flaky_decide, 2)
        with pytest.raises(DomainError):
            div.members_prefix(10)
        assert div._scanned == 19  # one past division's member at code 18
        raised_at = calls
        assert div.members_prefix(10) == division_system().members_prefix(10)
        assert calls - raised_at == 79  # codes 19..97, the tenth member's code
        resumed = div._scanned  # the first code after a resume raises
        fail_at.add(calls + 1)
        with pytest.raises(DomainError):
            div.members_prefix(20)
        assert div._scanned == resumed
        assert div.members_prefix(20) == division_system().members_prefix(20)


def test_generic_walk_resumes_one_past_the_last_member_listed():
    class Flaky(EnumerableDivision):
        calls = 0

        def enumerate(self, k):
            self.calls += 1
            if self.calls == 31:  # from code 0, call k + 1 lists code k
                raise DomainError("flaky enumerate")
            return super().enumerate(k)

    flaky = Flaky()
    with pytest.raises(DomainError):
        flaky.members_prefix(10)
    assert flaky._scanned == 19  # one past division's member at code 18
    assert flaky.members_prefix(10) == division_system().members_prefix(10)
