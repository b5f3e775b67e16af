"""Guessing moments of a cipher system with a rate-limited secret key.

Computes exact finite-n attack moments under the probability-ordered
group-XOR encryption, the equivalent saturated-cost compression optimum
with relaxed and exact-integer solvers, finite-n bound sandwiches, and
single-letter exponent curves for iid, Markov, and unifilar sources.
"""

from .cipher import (
    AchievedExponent,
    BruteForceResult,
    Cipher,
    attack_moment,
    build_group_xor_cipher,
    brute_force_best_cipher,
    group_xor_moment_closed,
    guessing_exponent_achieved,
    keys_for_rate,
)
from .compression import (
    BoundValue,
    SaturatedOptimum,
    TopSetSummary,
    integer_bruteforce,
    lower_bound_finite,
    relaxed_optimum,
    top_set,
    upper_bound_finite,
)
from .errors import CapExceededError, GuessworkError, NumericError, ValidationError
from .exponents import (
    ExponentCurve,
    build_curve,
    certified_exponent,
    decomposition_check,
    iid_correct_term,
    iid_error_exponent,
    iid_exponent_grid,
    model_exponent_dual,
)
from .guessing import (
    GuessOrder,
    LengthFunction,
    harmonic_number,
    interleave,
    kraft_sum,
    lengths_from_order,
    order_from_lengths,
    saturated_moment,
)
from .sources import (
    ExplicitSource,
    IidSource,
    MarkovSource,
    Pmf,
    SourceModel,
    Spectrum,
    UnifilarSource,
    entropy,
    load_model,
    model_from_dict,
    n_letter_spectrum,
    pressure,
    pressure_slope,
    renyi_entropy,
    sort_desc,
    spectrum,
    stationary,
)

__version__ = "0.1.0"
