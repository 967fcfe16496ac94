"""Shared fixtures: preset quivers, contexts and indecomposable tables."""

import pytest

from mcfans.finrep import indecomposables
from mcfans.mutation import MutationContext, MutationState
from mcfans.seed import ValuedQuiver, preset


@pytest.fixture(scope="session")
def q2():
    return preset("a2")


@pytest.fixture(scope="session")
def q3():
    return preset("a3")


@pytest.fixture(scope="session")
def q2t():
    return preset("a2tilde")


@pytest.fixture(scope="session")
def qb2():
    return ValuedQuiver(2, ((1, 0), (-2, 2)), symmetrizer=(1, 2), name="b2")


@pytest.fixture(scope="session")
def table2(q2):
    return indecomposables(q2)


@pytest.fixture(scope="session")
def table3(q3):
    return indecomposables(q3)


@pytest.fixture(scope="session")
def state_x(q3):
    """The displayed a3 m=3 state with configuration S2(2), I1(1), S3(2)."""
    ctx = MutationContext(q3, 3)
    st = MutationState(ctx, ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
    assert st.B == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    return st
