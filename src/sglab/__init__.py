"""sglab: a workbench for finite semigroups given by Cayley tables.

Computes separators and idealizers of subsets, the congruence a subset
family induces through two-sided contexts, quotients and their
classification, permutation identities, and exhaustive catalogs of
small semigroups; ships a batch verifier that checks the quotient and
separator results over every catalog instance and reports any
counterexample with an explicit witness.
"""

from .catalog import canonical_form, catalog_line, enumerate_semigroups, parse_catalog_line, relabel
from .congruences import (
    Congruence,
    QuotientKind,
    QuotientSemigroup,
    classify_quotient,
    enumerate_congruences,
    identity_congruence,
    is_congruence,
    p_congruence,
    p_congruence_pairwise,
    quotient,
    universal_congruence,
    verify_corollary1,
    verify_theorem1_converse,
    verify_theorem1_forward,
)
from .core import (
    ElementSet,
    FiniteSemigroup,
    PowerChain,
    all_subsets,
    format_sg,
    identity_element,
    is_commutative,
    parse_sg,
    power_set_chain,
    read_sg,
    validate,
    word_product,
)
from .errors import (
    AmbientMismatch,
    DuplicateLabel,
    EmptyWord,
    IndexOutOfRange,
    NotACongruence,
    NotAssociative,
    OutOfRangeEntry,
    SgFormatError,
    SglabError,
    StatusNotInvariant,
    WorkBudgetExceeded,
    WorkerDied,
)
from .permutative import (
    Lemma4Result,
    PermutationIdentity,
    find_permutation_identity,
    format_permutation,
    lemma4_minimal_k,
    parse_permutation,
    satisfies_identity,
    verify_corollary2,
    verify_theorem2_converse,
    verify_theorem2_forward,
)
from .reports import FAIL, PASS, UNMET, CheckReport
from .subsets import (
    format_subset,
    idealizer,
    is_medial,
    is_reflexive,
    is_subsemigroup,
    is_unitary,
    parse_subset,
    separator,
)
from .sweep import SweepConfig, SweepReport, check_lemma1, check_lemma2, check_lemma3, run_sweep

__version__ = "0.1.0"
