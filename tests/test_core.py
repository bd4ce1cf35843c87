from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from approxsys.core import (
    ApproxSystem,
    DecidableSystem,
    Membership,
    Quadruple,
    decode_quadruple,
    encode_quadruple,
)
from approxsys.errors import DimensionError
from approxsys.systems import (
    cosine_system,
    division_system,
    maximal_division_system,
    squaring_system,
)

rationals = st.fractions(max_denominator=60)
small_nats = st.integers(min_value=0, max_value=200)


def test_quadruple_code_frozen():
    q = Quadruple((F(1), F(3)), 1, F(1, 3), 2)
    assert encode_quadruple(q) == 2_087_671
    assert decode_quadruple(2_087_671, 2) == q
    q0 = Quadruple((F(0), F(1)), 1, F(0), 0)
    assert encode_quadruple(q0) == 7
    assert decode_quadruple(7, 2) == q0


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


class _EnumerableFacade(ApproxSystem):
    """Same members as division but with decide hidden: membership must scan."""

    dim_in = 2
    name = "division-enumerable"

    def enumerate(self, k):
        return division_system().enumerate(k)


def test_generic_membership_budget_boundary():
    sys = _EnumerableFacade()
    q = Quadruple((F(0), F(1)), 1, F(0), 0)  # sits at code 7
    assert sys.membership(q, 6) is Membership.NOT_YET
    assert sys.membership(q, 7) is Membership.YES


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
    bare = DecidableSystem(lambda q: True, 1)
    assert not bare.provides_witness
    assert bare.witness((F(0),), 3, 3) is None

    with_hint = DecidableSystem(
        lambda q: True, 1, witness=lambda a, m, n: F(7)
    )
    assert with_hint.provides_witness
    assert with_hint.witness((F(0),), 3, 3) == F(7)


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
