"""overrank: an exact q-series engine and verification harness for
overpartition rank-difference identities.

The package builds every generating function, infinite product and
generalized Lambert series in the rank-difference circle of identities with
exact rational arithmetic, and machine-verifies each identity coefficient by
coefficient to a configurable truncation order, cross-checked against a
combinatorial counting oracle.
"""

from .combinat import (
    RankTable,
    nbar,
    nbar_class,
    nbar_class_series,
    nbar_series,
    pbar_series,
    rank_table,
)
from .errors import (
    BadArgument,
    BeyondTruncation,
    NegativeExponent,
    OverrankError,
    PoleHit,
    UnknownIdentity,
)
from .lambert import (
    g_index,
    g_series,
    s_bar,
    sigma_ab,
    sigma_primed,
    theta,
    verify_lemma41,
)
from .products import (
    P,
    Product,
    SignedMonomial,
    poch,
    triple_product,
    verify_addition,
    verify_hickerson,
    verify_lemma31,
)
from .rankdiff import (
    FinalFormSpec,
    FormulaTerm,
    RankDiffKey,
    brackets,
    combination_lhs,
    combination_rank_side,
    combination_theorem_side,
    rank_diff_formula,
    rank_diff_oracle,
    s_bar_b_decomposition,
    s_bar_final_form,
    sigma_coefficient_bracket,
    verify_check,
    verify_sbar_closed,
)
from .registry import IdentityEntry, list_identities, reports_json, run_suite, verify
from .report import IdentityReport, Mismatch, compare
from .series import (
    Coefficient,
    LaurentSeries,
    add,
    extract_progression,
    first_mismatch,
    mul,
    substitute_power,
)

__version__ = "0.1.0"
