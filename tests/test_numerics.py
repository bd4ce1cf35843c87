import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from approxsys.core import decode_quadruple
from approxsys.errors import DimensionError, DomainError, FormatError
from approxsys.numerics import (
    as_point,
    as_rat,
    cantor_join,
    cantor_split,
    decimal_str,
    decode_point,
    decode_rat,
    decode_tuple,
    dist,
    encode_point,
    encode_rat,
    encode_tuple,
    rat_div,
)

naturals = st.integers(min_value=0, max_value=10**6)
rationals = st.fractions(max_denominator=1000)


def diagonal_walk(limit):
    """Independent oracle for the pairing: walk diagonals in order."""
    out = []
    s = 0
    while len(out) < limit:
        for y in range(s + 1):
            out.append((s - y, y))
        s += 1
    return out[:limit]


def test_pairing_matches_diagonal_walk():
    for k, (x, y) in enumerate(diagonal_walk(500)):
        assert cantor_join(x, y) == k
        assert cantor_split(k) == (x, y)


def test_pairing_frozen_values():
    assert cantor_join(0, 0) == 0
    assert cantor_join(1, 0) == 1
    assert cantor_join(0, 1) == 2
    assert cantor_join(2, 0) == 3
    assert cantor_join(1, 1) == 4
    assert cantor_join(0, 2) == 5


@given(naturals, naturals)
def test_pairing_round_trip(x, y):
    assert cantor_split(cantor_join(x, y)) == (x, y)


def test_pairing_bijective_prefix():
    seen = set()
    for k in range(100_000):
        pair = cantor_split(k)
        assert pair not in seen
        seen.add(pair)
        assert cantor_join(*pair) == k


def test_triple_code_frozen():
    assert decode_tuple(0, 3) == (0, 0, 0)
    assert decode_tuple(1, 3) == (1, 0, 0)
    assert decode_tuple(2, 3) == (0, 0, 1)
    assert decode_tuple(3, 3) == (0, 1, 0)


@given(naturals, naturals, naturals)
def test_triple_code_round_trip(x, y, z):
    assert decode_tuple(encode_tuple((x, y, z)), 3) == (x, y, z)


@given(st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=6))
def test_tuple_round_trip(xs):
    assert decode_tuple(encode_tuple(xs), len(xs)) == tuple(xs)


def test_tuple_rejects_empty():
    with pytest.raises(DomainError):
        encode_tuple(())
    with pytest.raises(DomainError, match="^length must be at least 1, got 0$"):
        decode_tuple(3, 0)


# frozen rational codes; derived by hand from the (r, s, t) triple scheme
FROZEN_RAT_CODES = [
    (F(0), 0),
    (F(1), 1),
    (F(1, 2), 4),
    (F(2), 6),
    (F(1, 3), 8),
    (F(3), 21),
    (F(9, 4), 1179),
]


@pytest.mark.parametrize("value,code", FROZEN_RAT_CODES)
def test_encode_rat_frozen(value, code):
    assert encode_rat(value) == code
    assert decode_rat(code) == value


def test_decode_rat_not_injective():
    # (1,0,1) at code 4 and (2,1,1) at code 37 both read 1/2
    assert decode_tuple(37, 3) == (2, 1, 1)
    assert decode_rat(4) == decode_rat(37) == F(1, 2)


def test_decode_rat_total():
    for j in range(2000):
        decode_rat(j)  # never raises


@given(rationals)
def test_rat_code_round_trip(x):
    assert decode_rat(encode_rat(x)) == x


def test_point_codes_frozen():
    assert encode_point((F(1), F(2))) == 34
    assert encode_point((F(0), F(1))) == 2
    assert decode_point(34, 2) == (F(1), F(2))


@given(st.lists(rationals, min_size=1, max_size=3))
def test_point_code_round_trip(coords):
    p = tuple(coords)
    assert decode_point(encode_point(p), len(p)) == p


def test_decode_point_total():
    for code in range(1000):
        assert len(decode_point(code, 2)) == 2


def test_point_dim_errors():
    with pytest.raises(DimensionError, match="^dimension must be at least 1, got 0$"):
        encode_point(())
    with pytest.raises(DimensionError):
        decode_point(5, 0)


# --- metric -------------------------------------------------------------------

points2 = st.tuples(rationals, rationals)


def test_dist_is_max_metric():
    assert dist((F(0), F(0)), (F(1), F(3))) == 3
    assert dist((F(1, 2),), (F(1, 3),)) == F(1, 6)


@given(points2, points2, points2)
def test_dist_metric_axioms(p, q, r):
    assert dist(p, q) >= 0
    assert (dist(p, q) == 0) == (p == q)
    assert dist(p, q) == dist(q, p)
    assert dist(p, r) <= dist(p, q) + dist(q, r)


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionError, match="^point p has dimension 1, point q has dimension 2$"):
        dist((F(1),), (F(1), F(2)))
    with pytest.raises(DimensionError, match="^dimension must be at least 1, got 0$"):
        dist((), ())


def test_rat_div_refuses_zero():
    with pytest.raises(DomainError, match="division by zero"):
        rat_div(F(1), F(0))


# --- parsing and printing -------------------------------------------------------

def test_as_rat_parses_exactly():
    assert as_rat("0.25") == F(1, 4)
    assert as_rat("3/4") == F(3, 4)
    assert as_rat("-2") == F(-2)
    assert as_rat(" 7/2 ") == F(7, 2)
    assert as_rat("-3/4") == F(-3, 4)
    assert as_rat("+0.5") == F(1, 2)
    assert as_rat(5) == F(5)
    assert as_rat(F(2, 3)) == F(2, 3)


@pytest.mark.parametrize("bad", ["abc", "1/0", "", "1.5.2", 1.5, None, True,
                                 "1e3", "2.5e-3", "1_000", "1e-30000000", ".5", "5."])
def test_as_rat_rejects(bad):
    with pytest.raises(FormatError):
        as_rat(bad)


def test_as_point_keeps_a_point_and_coerces_the_rest():
    point = (F(1, 3), F(-2))
    assert as_point(point) is point
    assert as_point([F(1, 3), F(-2)]) == point
    assert as_point(("1/3", -2)) == point
    assert as_point("-1/2") == (F(-1, 2),)


@pytest.mark.parametrize("bad", [(F(1), 0.5), (True, F(1)), (F(1), "1e3"),
                                 0.5, None, object()])
def test_as_point_rejects(bad):
    with pytest.raises(FormatError):
        as_point(bad)


def test_decimal_str_frozen():
    assert decimal_str(F(1, 3), 4) == "0.3333"
    assert decimal_str(F(2, 3), 3) == "0.667"
    assert decimal_str(F(-7, 2), 0) == "-4"  # ties to even
    assert decimal_str(F(1, 2), 0) == "0"
    assert decimal_str(F(9, 4), 2) == "2.25"
    assert decimal_str(F(-1, 8), 2) == "-0.12"


def test_decimal_str_refuses_negative_digits():
    with pytest.raises(DomainError, match="^digits must be at least 0, got -1$"):
        decimal_str(F(1, 3), -1)


@given(rationals, st.integers(min_value=0, max_value=12))
def test_decimal_str_accuracy(x, digits):
    rendered = as_rat(decimal_str(x, digits))
    assert abs(rendered - x) <= F(1, 2 * 10**digits)


@pytest.mark.parametrize("decode, args", [
    (cantor_split, ()),
    (decode_tuple, (3,)),
    (decode_tuple, (1,)),
    (decode_rat, ()),
    (decode_point, (2,)),
    (decode_quadruple, (2,)),
], ids=["cantor_split", "decode_tuple", "decode_tuple_1", "decode_rat", "decode_point",
        "decode_quadruple"])
@pytest.mark.parametrize("code", [-1, -10**30])
def test_decoders_reject_negative_codes(decode, args, code):
    with pytest.raises(DomainError, match=f"^code must be at least 0, got {code}$"):
        decode(code, *args)
