"""Symmetric distribution of quantum information and its classical shadows.

Library layout (the run path; the dense oracles that tests compare it with
live under tests/):

- linalg: dense operators for the dense route, state checks
- symspace: occupation coordinates of the symmetric subspace, Haar-random
  kets, the size plan
- channels: the many-user channel specs and their outputs
- definetti: occupation-coordinate states and their classical approximations
- metrics: trace distance, error probabilities, closed-form bounds
- scenario / cli: config-driven runs with CSV/JSON emission
"""

from .channels import SDIChannelSpec
from .definetti import (
    OccupationState,
    mc_reduce_coords,
    purified_state,
    purify_perm_invariant,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    DenseOperator,
    ResourceLimitError,
    herm_eigvals,
    ket,
    tensor_power,
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
from .symspace import haar_kets, sym_dim

__version__ = "0.1.0"
