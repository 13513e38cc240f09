"""Anti-concentration bounds with exact brute-force oracles.

Exact rational linear algebra, closed-form bound evaluators, lattice
distribution convolution, orthogonal-row sign-matrix censuses, and the
commutator-constrained counting machinery, all cross-checked against
enumeration oracles.
"""

from .bounds import (
    BoundParams,
    ReciprocalTuple,
    StableRankReport,
    atom_general_bound,
    enumerate_reciprocal_tuples,
    erdos_lo_bound,
    halasz_atom_bound,
    halasz_sbp_bound,
    howard_oskolkov_bound,
    improved_constant_bound,
    odlyzko_bound,
    rogozin_bound,
    sbp_general_bound,
    stable_rank,
)
from .distributions import (
    LatticeDistribution,
    convolve,
    replication_atom_check,
    replication_sbp_check,
    self_convolve,
    symmetrize,
)
from .exactmat import (
    BudgetExceededError,
    ExactMatrix,
    NonconvergenceError,
    cauchy_binet_check,
    count_nonzero_minors,
    det,
    gram_det,
    rank,
)
from .hadamard import (
    CensusResult,
    RankPartition,
    enumerate_partial_hadamard,
    feasibility_condition,
    greedy_rank_partition,
    hadamard_upper_bound_exponent,
    pipeline_bound_check,
)
from .normal import (
    PartialMatrix,
    RankProfile,
    build_t_system,
    case_functions,
    improved_case_constants,
    is_n_normal,
    partial_census,
    random_rank_experiment,
    rank_profile_value,
    solve_case_constants,
)
from .oracle import (
    AtomTable,
    atom_distribution,
    atom_max,
    combinatorial_dimension,
    count_sign_solutions,
    levy_lower_bound,
)
from .system import VectorSystem

__version__ = "0.1.0"
