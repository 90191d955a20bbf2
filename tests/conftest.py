import numpy as np
import pytest

from symdist import DEFAULT_DIM_CAP, DenseOperator

from dense_oracles import (
    apply,
    basis_ket,
    embed_coords,
    embed_pure_input,
    universal_cloner,
    validate_sdi,
)


def random_state(rng, dim, dims=None):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DenseOperator(rho, dims if dims is not None else (dim,))


def users(state, k, cap=DEFAULT_DIM_CAP):
    """The k-user marginal and mixture of an OccupationState, from a sweep
    at k alone, whose kernels run at k itself: the direct results that each
    chained k of a longer sweep is checked against."""
    _, marginal, mixture = next(state.sweep((k,), cap))
    return marginal, mixture


def dense_users(state, k, cap=DEFAULT_DIM_CAP):
    """users(state, k) on (C^d)^{tensor k}, the frame of partial_trace and
    the Choi apply: unpaired results embedded by embed_coords, paired ones
    as they come."""
    results = users(state, k, cap)
    if state.paired:
        return tuple(DenseOperator(x, (state.d,) * k) for x in results)
    return tuple(embed_coords(x, state.d, k, cap) for x in results)


@pytest.fixture(scope="session")
def cloner10():
    return universal_cloner(2, 1, 10)


@pytest.fixture(scope="session")
def cloner10_report(cloner10):
    return validate_sdi(cloner10)


@pytest.fixture(scope="session")
def cloner10_output(cloner10):
    return apply(cloner10, embed_pure_input(cloner10, basis_ket(2, 0)))
