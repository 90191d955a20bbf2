"""Symmetric distribution of quantum information and its classical shadows.

Library layout:

- linalg: dense operators for the dense route and the oracles, state checks
- symspace: occupation coordinates of the symmetric subspace, Haar-random kets
- channels: the many-user channel specs, their outputs, the Choi-form oracle
- definetti: occupation-coordinate states and their classical approximations
- metrics: trace distance, error probabilities, closed-form bounds
- scenario / cli: config-driven runs with CSV/JSON emission
"""

from .channels import (
    QuantumChannel,
    SDIChannelSpec,
    SDIReport,
    apply,
    embed_pure_input,
    fixed_prep_channel,
    measure_prepare,
    noisy_cloner,
    universal_cloner,
    validate_sdi,
)
from .definetti import (
    OccupationState,
    mc_reduce_coords,
    purified_state,
    purify_perm_invariant,
    symmetric_state,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    basis_ket,
    herm_eigvals,
    identity,
    ket,
    partial_trace,
    permutation_operator,
    projector,
    tensor_power,
    tensor_product,
    validate_state,
)
from .metrics import (
    general_bound,
    helstrom_perr,
    lemma1_bound,
    perr_lower_bound,
    trace_distance,
    universal_clone_gap,
)
from .scenario import (
    ResultRecord,
    ScenarioConfig,
    SchemaError,
    emit,
    run_scenario,
    run_suite,
    scenario_from_dict,
)
from .symspace import haar_kets, sym_dim, symmetrizer

__version__ = "0.1.0"
