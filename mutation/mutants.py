"""The mutation table: small deliberate faults that the named tests must
catch.

Each row names a file under the repository root, a snippet that occurs
exactly once in it, the text that replaces the snippet, and the tests that
must fail once it is replaced: test files, or single tests as pytest names
them (`tests/test_x.py::test_y`).  `mutation/run.py` applies the rows one
at a time to a temporary copy and runs their tests; `tests/test_mutants.py`
checks, in the tier-1 suite, that every snippet still occurs exactly once,
so that an edit to a mutated line shows up as a failure there.  A change to
a line that a snippet names updates the row, or retires it with a reason.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


SYSTEMS = "src/approxsys/systems.py"
VERIFY = "src/approxsys/verify.py"
CORE = "src/approxsys/core.py"
EVALUATE = "src/approxsys/evaluate.py"
NAMES = "src/approxsys/names.py"
NUMERICS = "src/approxsys/numerics.py"

MUTANTS = (
    # --- division's membership test
    Mutant(
        "division: b need not be the exact quotient",
        SYSTEMS,
        "if p2 * pb * q1 != p1 * q2 * qb:",
        "if False:",
        ("tests/test_systems.py::test_division_decide_double_entry",),
    ),
    Mutant(
        "division: the radius test drops the 1 of 1 + (n+1)(|b|+1)",
        SYSTEMS,
        "q2 * (qb + (q.n + 1) * (abs(pb) + qb))",
        "q2 * (q.n + 1) * (abs(pb) + qb)",
        ("tests/test_systems.py::test_division_zero_over_one_truth_table",),
    ),
    Mutant(
        "division: the radius test made strict",
        SYSTEMS,
        "abs(p2) * qb >= q2 * (qb +",
        "abs(p2) * qb > q2 * (qb +",
        ("tests/test_systems.py::test_division_zero_over_one_truth_table",),
    ),
    # --- the quotient range, shared by maximal division and the division oracle
    Mutant(
        "quotient range: big and small denominators swapped at the lower end",
        SYSTEMS,
        "return x_lo, y_big if x_lo >= 0 else y_small, x_hi,",
        "return x_lo, y_small if x_lo >= 0 else y_big, x_hi,",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "quotient range: a box whose x2-side ends at 0 is kept",
        SYSTEMS,
        "if M * abs(p2) <= q2:",
        "if M * abs(p2) < q2:",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "quotient range: the lower x1 end moved out by one more radius",
        SYSTEMS,
        "(M * p1 - q1) * q2",
        "(M * p1 - 2 * q1) * q2",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "quotient range: a negative a2 kept as it is",
        SYSTEMS,
        "if p2 < 0:",
        "if False:",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "quotient range: the upper x1 end moved out by one more radius",
        SYSTEMS,
        "(M * p1 + q1) * q2",
        "(M * p1 + 2 * q1) * q2",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "quotient range: big and small denominators swapped at the upper end",
        SYSTEMS,
        "x_hi, y_small if x_hi >= 0 else y_big",
        "x_hi, y_big if x_hi >= 0 else y_small",
        ("tests/test_systems.py::test_maximal_division_witness_matches_reference",),
    ),
    Mutant(
        "division oracle: ends flagged as reached inside the box",
        VERIFY,
        "((x_lo, y_lo), (x_hi, y_hi), True, True)",
        "((x_lo, y_lo), (x_hi, y_hi), False, False)",
        ("tests/test_verify.py::test_division_enclosure_holds_on_the_open_box",),
    ),
    Mutant(
        "maximal division: the lower end may not touch b - 1/(n+1)",
        SYSTEMS,
        "N * (pb * y_lo - x_lo * qb) <= qb * y_lo",
        "N * (pb * y_lo - x_lo * qb) < qb * y_lo",
        ("tests/test_systems.py::test_maximal_division_decide_matches_reference",),
    ),
    Mutant(
        "maximal division: the upper end may not touch b + 1/(n+1)",
        SYSTEMS,
        "N * (x_hi * qb - pb * y_hi) <= qb * y_hi",
        "N * (x_hi * qb - pb * y_hi) < qb * y_hi",
        ("tests/test_systems.py::test_maximal_division_decide_matches_reference",),
    ),
    Mutant(
        "maximal division: the lower end unchecked",
        SYSTEMS,
        "return N * (pb * y_lo - x_lo * qb) <= qb * y_lo and ",
        "return ",
        ("tests/test_systems.py::test_maximal_division_decide_matches_reference",),
    ),
    Mutant(
        "maximal division: the upper end unchecked",
        SYSTEMS,
        " and N * (x_hi * qb - pb * y_hi) <= qb * y_hi",
        "",
        ("tests/test_systems.py::test_maximal_division_decide_matches_reference",),
    ),
    Mutant(
        "maximal division: a ball reaching x2 = 0 not rejected",
        SYSTEMS,
        "    if (ends := _quotient_range(q.a, q.m)) is None:\n        return False\n",
        "    ends = _quotient_range(q.a, q.m)\n",
        ("tests/test_systems.py::test_maximal_division_decide_matches_reference",),
    ),
    # --- the division screen and the scan
    Mutant(
        "quotient key: the sign of a2 dropped",
        SYSTEMS,
        "g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)",
        "g = math.gcd(num, den)",
        ("tests/test_systems.py::test_division_members_below_10_5_pass_the_screen",),
    ),
    Mutant(
        "quotient key: a2 = 0 keyed like any other point",
        SYSTEMS,
        "    if not p2:\n        return None\n    num, den",
        "    num, den",
        ("tests/test_systems.py::test_division_members_below_10_5_pass_the_screen",),
    ),
    Mutant(
        "screened walk: every member's code one too high",
        CORE,
        "codes = [k - r + h for h in hits]",
        "codes = [k - r + h + 1 for h in hits]",
        ("tests/test_core.py::test_walk_equals_enumerate_from_any_start",),
    ),
    # --- the cosine system and its oracle
    Mutant(
        "sigma_k: the half term doubled",
        SYSTEMS,
        "return total + sign * _half_term(a, k)",
        "return total + sign * 2 * _half_term(a, k)",
        ("tests/test_systems.py::test_sigma_zero_is_one_half",),
    ),
    Mutant(
        "cosine decide: g < 0 reaches the Taylor scan",
        SYSTEMS,
        "    if g < 0:\n        return False\n",
        "",
        ("tests/test_systems.py::test_cosine_rejects_negative_gap",),
    ),
    Mutant(
        "cosine decide: the scan starts at k = 0, before the tail alternates",
        SYSTEMS,
        "return False\n    k = _cos_k0(a * a)",
        "return False\n    k = 0",
        ("tests/test_systems.py::test_cosine_decide_double_entry",),
    ),
    Mutant(
        "cosine decide: the Taylor error e_k left out of the accept test",
        SYSTEMS,
        "if f <= g:",
        "if f - e <= g:",
        ("tests/test_systems.py::test_cosine_decide_double_entry",),
    ),
    Mutant(
        "cosine decide: accepts only when F_k is below g",
        SYSTEMS,
        "if f <= g:",
        "if f < g:",
        ("tests/test_systems.py::test_cosine_accepts_where_the_bound_equals_the_slack",),
    ),
    Mutant(
        "cosine decide: rejects when the lower bound only reaches g",
        SYSTEMS,
        "if f - 2 * e > g:",
        "if f - 2 * e >= g:",
        ("tests/test_systems.py::test_cosine_frozen_memberships",),
    ),
    Mutant(
        "cosine witness: g = 0 reaches the Taylor scan",
        SYSTEMS,
        "if g <= 0:",
        "if g < 0:",
        ("tests/test_systems.py::test_cosine_witness_without_slack_takes_no_taylor_term",),
    ),
    Mutant(
        "cosine witness: 1 offered at a != 0 when m = n",
        SYSTEMS,
        "Fraction(1) if g == 0 and a == 0 else None",
        "Fraction(1) if g == 0 else None",
        ("tests/test_systems.py::test_cosine_witness_without_slack_takes_no_taylor_term",),
    ),
    Mutant(
        "cosine witness: 1 offered at a = 0 when m < n",
        SYSTEMS,
        "Fraction(1) if g == 0 and a == 0 else None",
        "Fraction(1) if a == 0 else None",
        ("tests/test_systems.py::test_cosine_witness_without_slack_takes_no_taylor_term",),
    ),
    Mutant(
        "cosine witness: a k whose e_k equals g is taken",
        SYSTEMS,
        "while (e := _half_term(a, k)) >= g:",
        "while (e := _half_term(a, k)) > g:",
        ("tests/test_systems.py::test_cosine_witness_skips_a_k_whose_slack_is_empty",),
    ),
    Mutant(
        "cosine witness: the scan starts at k = 0, before the tail alternates",
        SYSTEMS,
        "None\n    k = _cos_k0(a * a)",
        "None\n    k = 0",
        ("tests/test_systems.py::test_cosine_witness_is_the_simplest_dyadic_in_the_slack",),
    ),
    Mutant(
        "cosine enclosure: the parities of a multiple of pi swapped",
        VERIFY,
        "lo, hi = (bottom, hi) if k_lo % 2 else (lo, top)",
        "lo, hi = (lo, top) if k_lo % 2 else (bottom, hi)",
        ("tests/test_verify.py::test_cosine_enclosure_holds_on_the_ball",),
    ),
    Mutant(
        "cosine enclosure: no widening to 1 or -1 at one multiple of pi",
        VERIFY,
        "if k_lo == k_hi:",
        "if k_lo == k_hi and False:",
        ("tests/test_verify.py::test_cosine_enclosure_holds_on_the_ball",),
    ),
    Mutant(
        "cosine enclosure: the end values widened by one eps instead of two",
        VERIFY,
        "(t1 * ed - 2 * en * s1, s1 * ed)",
        "(t1 * ed - en * s1, s1 * ed)",
        ("tests/test_verify.py::test_cosine_enclosure_holds_on_the_ball",),
    ),
    Mutant(
        "cosine enclosure: both parities widened by one eps instead of two",
        VERIFY,
        "return Enclosure(bottom, top)",
        "return Enclosure(bottom, (ed + en, ed))",
        (
            "tests/test_verify.py::test_cosine_enclosure_is_both_extremes_where_pi_bounds_cannot_part_the_multiples",
        ),
    ),
    Mutant(
        "condition 1: an inexact oracle proves at eps, not eps/1000",
        VERIFY,
        "ped = _REFINE * ed",
        "ped = ed",
        (
            "tests/test_verify.py::test_default_cosine_audit_proves_every_ball_without_an_oracle_call",
        ),
    ),
    Mutant(
        "condition 1: a sample in the margin band queried once more than _REFINE_ROUNDS times",
        VERIFY,
        "while side == 0 and rounds < _REFINE_ROUNDS:",
        "while side == 0 and rounds <= _REFINE_ROUNDS:",
        ("tests/test_verify.py::test_condition1_refines_margin_straddles",),
    ),
    Mutant(
        "condition 1: a sample below the band at its first query counted as refined",
        VERIFY,
        "refined += side < 0 < rounds",
        "refined += side < 0",
        ("tests/test_verify.py::test_condition1_refines_margin_straddles",),
    ),
    # --- the square oracle
    Mutant(
        "square oracle: 0 inside the interval flagged as reached on the boundary",
        VERIFY,
        "return Enclosure((0, 1), (high, D), False, True)",
        "return Enclosure((0, 1), (high, D), True, True)",
        ("tests/test_verify.py::test_condition1_refutes_distance_equal_to_bound",),
    ),
    # --- the squaring formula
    Mutant(
        "square formula: b + v need not reach (a+u)^2",
        SYSTEMS,
        "FAnd((upper_plus, upper_minus, FOr(",
        "FAnd((upper_minus, FOr(",
        ("tests/test_square_formula.py::test_every_atom_is_needed",),
    ),
    Mutant(
        "square formula: b + v need not reach (a-u)^2",
        SYSTEMS,
        "FAnd((upper_plus, upper_minus, FOr(",
        "FAnd((upper_plus, FOr(",
        ("tests/test_square_formula.py::test_every_atom_is_needed",),
    ),
    Mutant(
        "square formula: b - v may touch 0 when 0 is inside the ball",
        SYSTEMS,
        'zero_inside = atom(">", (1, V), (-1, B))',
        'zero_inside = atom(">=", (1, V), (-1, B))',
        (
            "tests/test_square_formula.py::test_decide_and_witness_match_the_reference_at_the_edges",
        ),
    ),
    Mutant(
        "square formula: the end square (a+u)^2 no longer bounds the lower end",
        SYSTEMS,
        'atom(">=", (1, AA), (2, AU), (1, UU), (-1, B), (1, V)),',
        "",
        ("tests/test_square_formula.py::test_every_atom_is_needed",),
    ),
    Mutant(
        "square formula: 0 on the edge of the ball falls in neither case",
        SYSTEMS,
        'atom(">=", (1, AA), (-1, UU)),',
        'atom(">", (1, AA), (-1, UU)),',
        (
            "tests/test_square_formula.py::test_decide_and_witness_match_the_reference_at_the_edges",
        ),
    ),
    Mutant(
        "square formula: the lower end squares bound b with 0 inside the ball",
        SYSTEMS,
        'atom(">=", (1, AA), (-1, UU)),',
        "",
        ("tests/test_square_formula.py::test_every_atom_is_needed",),
    ),
    Mutant(
        "square formula: the end square (a-u)^2 no longer bounds the lower end",
        SYSTEMS,
        'atom(">=", (1, AA), (-2, AU), (1, UU), (-1, B), (1, V)),',
        "",
        ("tests/test_square_formula.py::test_every_atom_is_needed",),
    ),
    # --- codes and the scan
    Mutant(
        "cantor_split: y counted from the wrong triangle number",
        NUMERICS,
        "y = k - t * (t + 1) // 2",
        "y = k - t * (t - 1) // 2",
        ("tests/test_numerics.py::test_pairing_matches_diagonal_walk",),
    ),
    Mutant(
        "decode_rat: the sign part s added, not subtracted",
        NUMERICS,
        "Fraction(r - s, t + 1)",
        "Fraction(r + s, t + 1)",
        ("tests/test_numerics.py::test_decode_rat_not_injective",),
    ),
    Mutant(
        "walk: the next diagonal resumed at position 1",
        CORE,
        "i, r = t, 0",
        "i, r = t, 1",
        ("tests/test_core.py::test_members_prefix_honours_scan_cap_on_warm_cache",),
    ),
    Mutant(
        "walk: the kept lists grow by one entry at most per diagonal",
        CORE,
        "while len(points) <= t:",
        "if len(points) <= t:",
        ("tests/test_core.py::test_walk_equals_enumerate_from_any_start",),
    ),
    Mutant(
        "walk: the kept lists stop one entry short of the diagonal",
        CORE,
        "while len(points) <= t:",
        "while len(points) < t:",
        ("tests/test_core.py::test_members_prefix_equals_reference_scan",),
    ),
    Mutant(
        "walk: the point key appended before the tail key is computed",
        CORE,
        "pkey, tkey = point_key(point), tail_key(m, b, n)\n                    pkeys.append(pkey)",
        "pkeys.append(point_key(point))\n                    tkey = tail_key(m, b, n)",
        ("tests/test_core.py::test_a_screen_key_that_raises_leaves_the_scan_aligned",),
    ),
    # --- the formula evaluator
    Mutant(
        "formula: every power up to each variable's top exponent raised",
        SYSTEMS,
        "pairs = sorted({(x, e[i]) for at in atoms for _, e in at.poly for x, i in enumerate(others)})",
        "pairs = [(x, e) for x, t in enumerate(top) for e in range(t + 1)]",
        ("tests/test_systems.py::test_a_high_power_costs_only_the_powers_the_formula_uses",),
    ),
    # --- names and evaluation
    Mutant(
        "ladder: each rung one index above (n+1)*2^t - 1",
        EVALUATE,
        "l = ((n + 1) << t) - 1",
        "l = (n + 1) << t",
        ("tests/test_evaluate.py::test_apply_results_and_probe_counts_frozen",),
    ),
    Mutant(
        "phase B: (l, j) read as (j, l)",
        EVALUATE,
        "(*cantor_split(g), 0)",
        "(*cantor_split(g)[::-1], 0)",
        ("tests/test_evaluate.py::test_dovetail_on_decidable_system_without_witness",),
    ),
    Mutant(
        "cauchy_to_ordinary: one index less than the least with 2^-i < 1/(n+1)",
        NAMES,
        "h.approx((n + 1).bit_length())",
        "h.approx(n.bit_length())",
        ("tests/test_names.py::test_cauchy_to_ordinary_index_formula",),
    ),
    Mutant(
        "ordinary_to_cauchy: one index less than the least with 1/(j+1) <= (2/3) 2^-i",
        NAMES,
        "f.approx(((3 << i) - 1) // 2)",
        "f.approx(((3 << i) - 1) // 2 - 1)",
        ("tests/test_names.py::test_ordinary_to_cauchy_reads_the_least_index",),
    ),
    Mutant(
        "apply: the modulus asked at the first point only",
        EVALUATE,
        "_MODULUS_ASKS = 2",
        "_MODULUS_ASKS = 1",
        ("tests/test_evaluate.py::test_modulus_is_asked_again_at_the_finer_point",),
    ),
    Mutant(
        "extracted system: the operator's value may lie 1/(n+1) from b",
        EVALUATE,
        "tol = Fraction(1, 2 * n + 2)",
        "tol = Fraction(1, n + 1)",
        (
            "tests/test_evaluate.py::test_operator_system_accepts_b_strictly_within_half_the_radius",
        ),
    ),
)
