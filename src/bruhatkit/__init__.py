"""Bruhat order on symmetric groups: reduced words, intervals, poset
isomorphism, and bounded factor-forcing searches."""

from .bruhat import (
    Interval,
    bruhat_leq,
    ideal,
    interval,
    interval_to_json,
)
from .forcing import (
    Counterexample,
    FactorCertificate,
    ForcingVerdict,
    factor_deletion,
    forces_factor,
    intervals_isomorphic_to,
)
from .limits import DEFAULT_LIMITS, CapExceeded, Limits
from .perms import (
    Perm,
    compose,
    embed,
    format_perm,
    identity,
    inverse,
    length,
    longest,
    parse_perm,
)
from .posets import (
    AtlasResult,
    AtlasRow,
    RankedPoset,
    atlas,
    canonical_form,
    is_isomorphic,
    to_dot,
)
from .structure import (
    Decomposition,
    NonForcingWitness,
    SwapString,
    decompose,
    detect_swap_string,
    nonforcing_witness,
    swap_string_factorization,
)
from .words import (
    ReducedWordSet,
    Word,
    evaluate,
    format_word,
    is_reduced,
    iter_reduced_words,
    lex_least_reduced_word,
    parse_word,
    reduced_words,
    shift,
)

__version__ = "0.1.0"
