"""Trigonometric R-operators for the q-deformed loop superalgebra of sl(M|N).

The package builds the operator factor by factor from recursively constructed
root-vector images, resums every factor in closed form, and verifies the
graded Yang-Baxter equation and the coproduct intertwining property
numerically.
"""

from .scalars import (
    DegenerateQError,
    QContext,
    TruncatedSeries,
    f_m,
    q_exponential,
    q_number,
    series_exp,
    series_log,
)
from .rootdata import (
    AffineRoot,
    CartanData,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    delta_root,
    h_gamma,
    imaginary_root,
    normal_order_cmp,
    parity,
    positive_roots,
    real_plus_root,
    real_wrap_root,
    simple_root,
)
from .gradedmatrix import (
    GradedElement,
    graded_element,
    graded_kron,
    composite_parity,
    matrix_unit,
    q_supercommutator,
    supertrace,
)
from .reps import (
    EvaluationRep,
    GradingVector,
    check_defining_relations,
    coproduct_image,
    pi_generators,
)
from .tridiag import (
    Tridiagonal,
    bq_inverse_closed,
    bq_matrix,
    bq_tridiagonal,
    c_matrix,
    tridiag_inverse,
)
from .cartanweyl import (
    RootVectorTable,
    a_gamma,
    build_root_vectors,
    closed_form_imaginary,
    closed_form_root_vector,
    t_matrix,
    u_matrix,
    unprimed_imaginary,
)
from .rfactors import (
    RFactorSet,
    Zeta12,
    build_rfactors,
    k_operator_closed,
    k_operator_weights,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
    rho,
)
from .verify import (
    VerificationReport,
    VerifyConfig,
    run_suite,
    verify_intertwining,
    verify_ybe,
)

__version__ = "0.1.0"
