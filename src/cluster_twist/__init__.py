"""Exact cluster-seed mutation, Poisson structures and twist automorphisms."""

from .exact import (
    ExactError,
    Infeasible,
    IndexPartition,
    InternalConsistencyError,
    Matrix,
    NotFound,
    integer_solution,
    integral_member,
    permutation_matrix,
    solve_affine,
)
from .laurent import (
    DominanceUndecidable,
    LaurentPoly,
    PointedDecomposition,
    RationalExpr,
    dominance_leq,
    exact_divide,
    pointed_decompose,
)
from .mutation import (
    SeedTrajectory,
    T1Witness,
    TransitionMatrix,
    expand_cluster_variable,
    find_t1,
    hamiltonian_decompose_check,
    mutate_expr,
    run_trajectory,
    trans_matrix,
    verify_matrix_identities,
)
from .poisson import (
    LambdaForm,
    OmegaForm,
    check_lambda_omega_link,
    mutate_lambda,
    omega_from_seed,
    poisson_bracket,
    solve_compatible_lambda,
)
from .seeds import (
    Seed,
    SimilarityWitness,
    find_similarities,
    find_skew_symmetrizer,
    full_rank_check,
    make_seed,
    mutate_b,
    p_star,
    principal_seed,
    seed_from_json,
    seed_to_json,
    validate,
)
from .twist import (
    TwistPair,
    TwistSpec,
    apply_twist,
    build_dt_twist,
    build_principal_twist,
    invert_twist,
    make_twist,
    p_commutation_check,
    verify_twist,
)
from .variation import (
    MVariation,
    NVariation,
    VariationFamily,
    apply_variation,
    is_poisson,
    pullback,
    solve_M_variation,
    solve_N_variation,
    transport,
)

__version__ = "0.1.0"
