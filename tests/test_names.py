import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from approxsys.errors import DimensionError, DomainError
from approxsys.names import (
    CauchyName,
    OrdinaryName,
    cauchy_to_ordinary,
    check_name_consistency,
    dyadic_name,
    name_of_point,
    ordinary_to_cauchy,
)
from approxsys.numerics import dist
from conftest import edge_cauchy_name, edge_ordinary_name

rationals = st.fractions(max_denominator=1000)


def test_name_of_point_contract():
    f = name_of_point((F(1), F(3)))
    assert f.dim == 2
    for i in range(50):
        assert f.approx(i) == (F(1), F(3))


def test_name_of_point_is_one_point_at_every_index():
    point = (F(1, 3), F(-2))
    f = name_of_point(point)
    assert isinstance(f, OrdinaryName) and f.dim == 2
    assert f.approx(0) is f.approx(10**9) is point
    with pytest.raises(IndexError):
        f.approx(-1)
    reads = []
    approx = f.approx
    f.approx = lambda i: reads.append(i) or approx(i)  # as a tracer patches it
    assert f.approx(7) == point and reads == [7]


def test_dyadic_name_frozen_values():
    f = dyadic_name(F(1, 3))
    assert f.approx(0) == (F(1, 4),)
    assert f.approx(1) == (F(1, 4),)
    assert f.approx(2) == (F(5, 16),)
    assert f.approx(3) == (F(10, 32),)


def test_dyadic_name_ordinary_contract_exact():
    f = dyadic_name(F(1, 3))
    for i in range(101):
        assert dist(f.approx(i), (F(1, 3),)) < F(1, i + 1)


@given(rationals, st.integers(min_value=0, max_value=40))
def test_dyadic_truncation_error(x, i):
    f = dyadic_name(x)
    (v,) = f.approx(i)
    assert 0 <= x - v < F(1, 2 ** (i + 2))
    assert v.denominator & (v.denominator - 1) == 0  # a power of two


def test_ordinary_to_cauchy_reads_the_least_index():
    reads = []

    def fun(i):
        reads.append(i)
        return (F(0),)

    h = ordinary_to_cauchy(OrdinaryName(fun, dim=1))
    h.approx(0)
    h.approx(3)
    assert reads == [1, 11]  # the least j with 1/(j+1) <= (2/3) 2^-i
    # one index less at i breaks the Cauchy contract on a name just inside
    # its bound: the read there and a later one lie on opposite sides
    f = edge_ordinary_name((F(0),))
    edge = ordinary_to_cauchy(f)
    for i, j in ((0, 1), (3, 11)):
        assert any(dist(f.approx(j - 1), edge.approx(k)) > F(1, 2**i) for k in range(i + 1, i + 4))


def test_cauchy_contract_after_conversion():
    h = ordinary_to_cauchy(dyadic_name(F(1, 3)))
    vals = [h.approx(i) for i in range(9)]
    for i in range(9):
        for k in range(i + 1, 9):
            assert dist(vals[i], vals[k]) <= F(1, 2**i)


def test_cauchy_to_ordinary_index_formula():
    reads = []

    def fun(i):
        reads.append(i)
        return (F(0),)

    g = cauchy_to_ordinary(CauchyName(fun, dim=1))
    g.approx(0)
    assert reads == [1]  # the least i with 2^-i < 1
    g.approx(100)
    assert reads == [1, 7]
    # one index less breaks the strict ordinary contract on a name whose
    # every point is exactly at its bound
    h = edge_cauchy_name((F(0),))
    for n, i in ((0, 1), (100, 7)):
        assert dist(h.approx(i - 1), (F(0),)) >= F(1, n + 1)


def test_round_trip_preserves_ordinary_contract():
    f = dyadic_name(F(1, 3))
    g = cauchy_to_ordinary(ordinary_to_cauchy(f))
    for n in range(101):
        assert dist(g.approx(n), (F(1, 3),)) < F(1, n + 1)


EDGE_POINTS = [(F(-24, 7),), (F(-264, 35), F(11, 5))]


def _cauchy_contract_holds(h, upto):
    points = [h.approx(i) for i in range(upto + 1)]
    return all(dist(points[i], points[k]) <= F(1, 2**i)
               for i in range(upto + 1) for k in range(i + 1, upto + 1))


def _ordinary_contract_holds(g, point, upto):
    return (all(dist(g.approx(n), point) < F(1, n + 1) for n in range(upto + 1))
            and check_name_consistency(g, upto) is None)


@pytest.mark.parametrize("point", EDGE_POINTS)
def test_edge_names_keep_their_contracts(point):
    h, f = edge_cauchy_name(point), edge_ordinary_name(point)
    assert all(dist(h.approx(k), point) == F(1, 2**k) for k in range(201))
    assert _cauchy_contract_holds(h, 200)
    assert _ordinary_contract_holds(f, point, 200)


@pytest.mark.parametrize("point", EDGE_POINTS)
def test_conversions_keep_their_contracts_on_edge_names(point):
    h, f = edge_cauchy_name(point), edge_ordinary_name(point)
    assert _ordinary_contract_holds(cauchy_to_ordinary(h), point, 200)
    assert _cauchy_contract_holds(ordinary_to_cauchy(cauchy_to_ordinary(h)), 200)
    assert _ordinary_contract_holds(cauchy_to_ordinary(ordinary_to_cauchy(f)), point, 200)
    # index i reads f at about 1.5 * 2^i, a point of as many bits
    assert _cauchy_contract_holds(ordinary_to_cauchy(f), 12)


def test_check_name_consistency_accepts_valid():
    assert check_name_consistency(dyadic_name(F(22, 7)), 60) is None
    assert check_name_consistency(name_of_point((F(1), F(3))), 30) is None


def test_check_name_consistency_flags_corruption():
    def fun(i):
        return (F(2),) if i == 9 else (F(0),)

    assert check_name_consistency(OrdinaryName(fun, dim=1), 20) == (0, 9)


def test_check_name_consistency_rejects_a_negative_horizon():
    reads = []
    f = OrdinaryName(lambda i: reads.append(i) or (F(0),), dim=1)
    with pytest.raises(DomainError, match="^upto must be at least 0, got -3$"):
        check_name_consistency(f, -3)
    assert reads == []


def test_memoization_computes_once():
    calls = []

    def fun(i):
        calls.append(i)
        return (F(i),)

    f = OrdinaryName(fun, dim=1)
    for _ in range(5):
        f.approx(3)
    assert calls == [3]


def test_memoization_thread_safe():
    calls = []

    def fun(i):
        calls.append(i)
        return (F(i),)

    f = OrdinaryName(fun, dim=1)
    threads = [threading.Thread(target=lambda: [f.approx(i) for i in range(20)])
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(calls) == list(range(20))


def test_wrong_dimension_detected():
    f = OrdinaryName(lambda i: (F(0), F(0)), dim=1)
    with pytest.raises(DimensionError,
                       match="^point at index 0 has dimension 2, name has dimension 1$"):
        f.approx(0)


def test_negative_index_rejected():
    with pytest.raises(IndexError):
        name_of_point((F(0),)).approx(-1)
    with pytest.raises(IndexError):
        OrdinaryName(lambda i: (F(i),), dim=1).approx(-1)


@pytest.mark.parametrize("dim", [0, -1])
def test_memoised_name_rejects_a_dimension_below_one_at_construction(dim):
    calls = []
    for cls in (OrdinaryName, CauchyName):
        with pytest.raises(DimensionError, match=f"^dimension must be at least 1, got {dim}$"):
            cls(lambda i: calls.append(i) or (), dim=dim)
    assert calls == []


def test_constant_and_truncation_names_reject_the_empty_point():
    with pytest.raises(DimensionError):
        name_of_point(())
    with pytest.raises(DimensionError):
        dyadic_name(())
