"""Exact real computation with enumerable approximation systems.

A system is a set of quadruples (a, m, b, n) promising "inputs within
1/(m+1) of a map to within 1/(n+1) of b".  The evaluator turns systems plus
input names into output names; the converse extractor recovers a system from
any budgeted name operator; the verifier audits systems against reference
oracles.
"""

from .core import (
    ApproxSystem,
    DecidableSystem,
    Membership,
    Quadruple,
    decode_quadruple,
    encode_quadruple,
)
from .errors import (
    ApproxSysError,
    DimensionError,
    DomainError,
    FormatError,
    SearchTimeout,
)
from .evaluate import (
    EvalResult,
    NameOperator,
    OracleMiss,
    OutOfBudget,
    Value,
    apply,
    default_budget_schedule,
    eval_name,
    make_budget_schedule,
    operator_from_system,
    system_from_operator,
)
from .names import (
    CauchyName,
    OrdinaryName,
    cauchy_to_ordinary,
    check_name_consistency,
    dyadic_name,
    name_of_point,
    ordinary_to_cauchy,
)
from .numerics import (
    Point,
    Rat,
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
from .systems import (
    Atom,
    FAnd,
    FNot,
    FOr,
    cosine_system,
    division_system,
    formula_from_json,
    formula_to_json,
    load_formula,
    maximal_division_system,
    semialgebraic_system,
    sigma_k,
    squaring_formula,
    squaring_system,
)
from .verify import (
    Outcome,
    RefOracle,
    Verdict,
    brute_force_condition1_check,
    cos_taylor,
    cosine_oracle,
    division_oracle,
    squaring_oracle,
    verify_condition1,
    verify_condition2,
    verify_containment,
)

__version__ = "0.1.0"
