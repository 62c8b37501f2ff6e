"""Exact computer algebra for twisted quantum gl_n.

Builds twisted braidings from Belavin-Drinfeld-type diagram data, realizes
the quantum-matrix generators with operator entries, and verifies by exact
arithmetic over Q(s) that the quantum determinant equals every ordered
product of commuting corner quasiminors.
"""

from .errors import (
    BetaNotInH0Error,
    FieldMismatchError,
    InputError,
    InvalidTripleError,
    NonRepresentableExponentError,
    NoSolutionError,
    OrderReversingError,
    QdqError,
    SingularMatrixError,
    SubmatrixSingularError,
    WrongWedgeDimensionError,
    ZeroInverseError,
)
from .frt import (
    FRTModel,
    build_T,
    f_of_D_image,
    factors_commute,
    frt_check,
    qdet_coaction,
    verify_factorization,
)
from .linalg import (
    Matrix,
    TensorIndexing,
    flip_perm,
    gauss_invert,
    kernel_basis,
    kron,
    leg_embed,
)
from .quasidet import (
    NCSquare,
    all_sigmas,
    corner_factors,
    det_sigma,
    inverse_via_quasiminors,
    quasideterminant,
    triangular_invariance_check,
)
from .report import Report
from .rmatrix import (
    cartan_exp,
    hecke_check,
    l_minus,
    l_plus,
    r_hat,
    standard_r,
    wedge_top,
    weight_exp,
    ybe_check,
)
from .scalars import Q, RatFunc, ScalarField, q_power
from .twist import (
    BDTriple,
    CartanData,
    ThetaSolution,
    Twist,
    build_twist,
    cartan_data,
    cocycle_check,
    enumerate_triples,
    p_vector,
    solve_theta,
    theta_residuals,
    untwisted,
    validate_triple,
)

__version__ = "0.1.0"
