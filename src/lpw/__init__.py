"""Weighted Littlewood-Paley analysis on periodic grids."""

from .grid import (
    CubeFamily,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    lp_lq_norm,
    lp_norm,
    load_grid_function,
    save_grid_function,
    weighted_lp_norm,
)
from .weights import (
    AltConst,
    AltPow,
    Const,
    Dyadic,
    FamilyNodes,
    Pow,
    Prod,
    ShiftPow,
    WeightError,
    WeightSequence,
    WeightSpec,
    ap_constant,
    check_admissible,
    parse_weight,
    reverse_holder_probe,
    sigma1,
    xclass_constants,
    xclass_fit,
)
from .maximal import (
    fefferman_stein_ratio,
    kernel_sum_ratio,
    maximal_fn,
    maximal_fn_bruteforce,
    weighted_maximal_ratio,
)
from .lpaley import (
    CoefficientSet,
    LevelError,
    LPPair,
    analyze,
    band_decompose,
    calderon_residual,
    make_lp_pair,
    partition_sum,
    synthesize,
)
from .spaces import (
    NormRequest,
    TestFunctionDictionary,
    band_magnitudes,
    bmo_norm,
    besov_norm,
    build_dictionary,
    hardy_grand_norm,
    seq_b_norm,
    seq_f_infty_norm,
    seq_f_norms,
    stack_norm,
    tl_infty_norm,
    tl_norm,
)
from .verify import (
    CorpusMember,
    classical_band_magnitudes,
    classical_besov_norm,
    classical_tl_norm,
    coincidence_check,
    delta_coefficient_check,
    make_corpus,
    ratio_report,
    spike_family,
)

__version__ = "0.1.0"
