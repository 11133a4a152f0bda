"""Operator-algebra laboratory for multiplicativity-defect bounds.

Numerically verifies, on matrix algebras, the product bound

    || Phi(AB) - Phi(A) Phi(B) ||  <=  delta(A) * delta(B)

for unital n-positive linear maps (n >= 3), where delta(C) is the operator
norm distance of C from the scalars, together with its supporting
inequalities, the constructive constructions they rest on (Stinespring
dilation, unitary averages), and the transpose-map instance showing the
bound fails for merely positive maps.
"""

from .errors import (
    ContractError,
    DimensionError,
    GrussLabError,
    NotCompletelyPositiveError,
    NumericError,
    UnitalizationError,
)
from .harness import (
    CounterexampleReport,
    GrussReport,
    TrialSummary,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_theorem,
    explore_two_positive,
    gruss_defect,
    proof_chain,
    reproduce_counterexample,
    run_trials,
)
from .linalg import (
    as_matrix,
    dag,
    ginibre,
    haar_unitary,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    random_ensemble,
)
from .posmap import (
    CERTIFIED_CP,
    CERTIFIED_NOT_N_POSITIVE,
    HEURISTICALLY_N_POSITIVE,
    MapRep,
    NPositivityVerdict,
    amplify,
    apply,
    builtin,
    choi_map,
    choi_matrix,
    choi_to_kraus,
    compose,
    cp_test,
    from_choi,
    from_kraus,
    identity_map,
    is_unital,
    map_from_json,
    map_to_json,
    mix,
    n_positivity_search,
    normalized_choi_map,
    random_unital_cp,
    rayleigh_value,
    schmidt_decompose,
    superop_matrix,
    to_choi,
    transpose_map,
    unitalize,
    unitary_conj,
    witness_vector,
)
from .scalar_distance import (
    DeltaResult,
    delta,
    delta_general,
    is_normal,
)
from .stinespring import (
    StinespringDilation,
    dilate,
    dilation_residual,
    homomorphism_check,
    lemma2_defect_identity,
)
from .unitary_sum import (
    UnitarySumDecomposition,
    decompose_unitary_sum,
    rescale_for_decomposition,
    scalar_unimodular_sum,
)

__version__ = "0.1.0"
