"""Incompatibility classification for pairs of orthonormal bases.

Two orthonormal bases of a d-dimensional complex Hilbert space are related by
a unitary transition matrix of overlaps. This package computes the
rank-deficiency levels of that matrix, the deficiency index tau and the
incompatibility order chi = d - tau, and reads a state of minimal support
uncertainty chi off the witness at tau; an exhaustive subset search finds that
minimum independently, to check chi against. For the DFT it also provides the
closed-form order, the classical support bounds and the comb states at them.
"""

from .deficiency import (
    DeficiencyProfile,
    DeficiencyWitness,
    deficiency_profile,
    r_col,
    r_row,
    r_t,
    tau_fast,
)
from .errors import (
    DegenerateWitnessError,
    DimensionCapError,
    IncompatError,
    InvalidDimensionError,
    InvalidParameterError,
    MatrixFormatError,
    MatrixShapeError,
    NoKernelError,
    NonFiniteEntryError,
    UnitarityError,
    ZeroVectorError,
)
from .fourier import (
    DivisorDecomposition,
    ZetaPoint,
    comb_submatrix_is_rank_one,
    dft_chi,
    divisor_decomposition,
    extremal_comb,
    meshulam_bound,
    zeta,
)
from .matrices import (
    SubmatrixSelector,
    TransitionMatrix,
    bronzan_rotation,
    dft_matrix,
    from_array,
    identity,
    load_matrix,
    matrix_to_json_dict,
    qubit_rotation,
    random_unitary,
    save_matrix,
)
from .rank import (
    KernelWitness,
    RankResult,
    extract_submatrix,
    kernel_witness,
    numerical_rank,
)
from .report import AnalysisReport, analyze_transition
from .support import (
    SupportWitness,
    min_support_uncertainty,
    support_at_tau,
    support_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "DeficiencyProfile",
    "DeficiencyWitness",
    "DegenerateWitnessError",
    "DimensionCapError",
    "DivisorDecomposition",
    "IncompatError",
    "InvalidDimensionError",
    "InvalidParameterError",
    "KernelWitness",
    "MatrixFormatError",
    "MatrixShapeError",
    "NoKernelError",
    "NonFiniteEntryError",
    "RankResult",
    "SubmatrixSelector",
    "SupportWitness",
    "TransitionMatrix",
    "UnitarityError",
    "ZeroVectorError",
    "ZetaPoint",
    "analyze_transition",
    "bronzan_rotation",
    "comb_submatrix_is_rank_one",
    "deficiency_profile",
    "dft_chi",
    "dft_matrix",
    "divisor_decomposition",
    "extract_submatrix",
    "extremal_comb",
    "from_array",
    "identity",
    "kernel_witness",
    "load_matrix",
    "matrix_to_json_dict",
    "meshulam_bound",
    "min_support_uncertainty",
    "numerical_rank",
    "qubit_rotation",
    "r_col",
    "r_row",
    "r_t",
    "random_unitary",
    "save_matrix",
    "support_at_tau",
    "support_counts",
    "tau_fast",
    "zeta",
]
