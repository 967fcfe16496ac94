"""Slope-graded mutation: worked chains, inverses, validation, JSON."""

import pytest

from mcfans.mutation import (GradedVector, MutationContext, MutationState,
                             initial_state, is_terminal, mu_minus, mu_plus,
                             signed_c_matrix, state_from_json, state_to_json,
                             validate_state)
from mcfans.errors import SlopeAtMax, SlopeAtMin
from mcfans.seed import ValuedQuiver, preset

# The full rank-2 chain at level 3, checked move by move.  Each entry is
# (B, absC, slopes); the mutation applied between entry t and t+1 is
# CHAIN_MOVES[t].
CHAIN = (
    (((0, -1), (1, 0)), ((1, 0), (0, 1)), (0, 0)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (0, 1)),
    (((0, -1), (1, 0)), ((1, 0), (1, 1)), (0, 2)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (0, 3)),
    (((0, -1), (1, 0)), ((1, 0), (1, 1)), (1, 3)),
    (((0, 1), (-1, 0)), ((1, 0), (1, 1)), (2, 3)),
    (((0, -1), (1, 0)), ((1, 1), (1, 0)), (3, 2)),
    (((0, 1), (-1, 0)), ((0, 1), (1, 0)), (3, 3)),
)
CHAIN_MOVES = (2, 2, 2, 1, 1, 1, 2)

# A rank-3 state at level 3 with two different legal moves.
X3 = (((0, -1, 1), (1, 0, -1), (-1, 1, 0)),
      ((0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 1, 2))
Y3 = (((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
      ((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 2, 2))
Z3_B = ((0, -1, -1), (1, 0, 1), (1, -1, 0))
Z3_SLOPES = (2, 1, 3)


@pytest.fixture(scope="module")
def ctx2(q2):
    return MutationContext(q2, 3)


@pytest.fixture(scope="module")
def ctx3(q3):
    return MutationContext(q3, 3)


def _state(ctx, triple):
    b, c, s = triple
    st = MutationState(ctx, c, s)
    assert st.B == b
    return st


def test_initial_state(ctx2):
    st = initial_state(ctx2)
    assert (st.B, st.absC, st.slopes) == CHAIN[0]
    assert not is_terminal(st)


def test_chain_replay(ctx2):
    st = initial_state(ctx2)
    for move, expected in zip(CHAIN_MOVES, CHAIN[1:]):
        st = mu_plus(st, move)
        assert (st.B, st.absC, st.slopes) == expected
    assert is_terminal(st)


def test_level_two_double_step(q2):
    ctx = MutationContext(q2, 2)
    st = mu_plus(initial_state(ctx), 1)
    assert (st.B, st.absC, st.slopes) == (
        ((0, 1), (-1, 0)), ((1, 0), (0, 1)), (1, 0))
    st = mu_plus(st, 1)
    assert (st.B, st.absC, st.slopes) == (
        ((0, -1), (1, 0)), ((1, 0), (0, 1)), (2, 0))


def test_rank3_branching(ctx3):
    x = _state(ctx3, X3)
    y = mu_plus(x, 2)
    assert (y.B, y.absC, y.slopes) == Y3
    z = mu_plus(x, 3)
    assert z.B == Z3_B
    assert z.slopes == Z3_SLOPES
    assert z.absC == x.absC  # vertex 3 has no same/adjacent-slope neighbour


def test_mu_plus_guards(ctx2):
    top = _state(ctx2, CHAIN[-1])
    with pytest.raises(SlopeAtMax):
        mu_plus(top, 1)
    with pytest.raises(ValueError):
        mu_plus(initial_state(ctx2), 0)
    with pytest.raises(ValueError):
        mu_plus(initial_state(ctx2), 3)


def test_mu_minus_inverts_chain(ctx2):
    states = [_state(ctx2, t) for t in CHAIN]
    for prev, move, cur in zip(states, CHAIN_MOVES, states[1:]):
        assert mu_minus(cur, move) == prev
    with pytest.raises(SlopeAtMin):
        mu_minus(states[0], 1)


def test_mu_minus_inverts_rank3(ctx3):
    x = _state(ctx3, X3)
    assert mu_minus(mu_plus(x, 2), 2) == x
    assert mu_minus(mu_plus(x, 3), 3) == x


def test_signed_c_matrix(ctx2):
    st4 = _state(ctx2, CHAIN[3])
    assert signed_c_matrix(st4) == ((1, 0), (1, -1))
    st1 = _state(ctx2, CHAIN[0])
    assert signed_c_matrix(st1) == ((1, 0), (0, 1))


def test_graded_column(ctx2):
    st = _state(ctx2, CHAIN[4])
    assert st.column(1) == (0, 1)
    gv = st.graded_column(1)
    assert gv == GradedVector((0, 1), 3)
    assert gv.to_json() == {"dim": [0, 1], "slope": 3}


def test_validate_state_good(ctx2, ctx3):
    for triple in CHAIN:
        assert validate_state(_state(ctx2, triple)).ok
    assert validate_state(_state(ctx3, X3))


def test_validate_state_flags_problems(ctx2):
    bad_slope = MutationState(ctx2, CHAIN[4][1], (1, 4))
    rep = validate_state(bad_slope)
    assert not rep.ok and any("slope" in p for p in rep.problems)

    zero_col = MutationState(ctx2, ((1, 0), (0, 0)), (0, 0))
    rep = validate_state(zero_col)
    assert any("zero" in p for p in rep.problems)

    # valued B3 with arrows 1 -> 2 and 2 -> 3 (weight 2): reversing the
    # columns gives det C = -1 but B[3][2] = (D B0)[1][2] / 2 = 1/2 (1-based)
    qb3 = ValuedQuiver(3, ((1, -1, 0), (0, 1, -2), (0, 0, 2)),
                       symmetrizer=(1, 1, 2))
    swapped = MutationState(MutationContext(qb3, 1),
                            ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (0, 0, 0))
    with pytest.raises(ValueError):
        swapped.B
    rep = validate_state(swapped)
    assert rep.problems == ["B-consistency product is not integral"]


def test_state_json_round_trip_preset(ctx2):
    st = _state(ctx2, CHAIN[3])
    data = state_to_json(st)
    assert data["quiver"] == "a2"
    assert data["m"] == 3
    back = state_from_json(data)
    assert back == st
    assert state_from_json(data, context=ctx2) == st


def test_state_json_round_trip_custom(qb2):
    ctx = MutationContext(qb2, 2)
    st = mu_plus(initial_state(ctx), 1)
    data = state_to_json(st)
    assert isinstance(data["quiver"], dict)
    back = state_from_json(data)
    assert back == st


def test_state_json_names_only_the_preset_itself():
    # the a3 preset is 1 <- 2 -> 3; this quiver only borrows its name
    q = ValuedQuiver(3, ((1, 0, 0), (-1, 1, 0), (0, -1, 1)), name="a3")
    st = mu_plus(initial_state(MutationContext(q, 2)), 1)
    data = state_to_json(st)
    assert data["quiver"] == q.to_json()
    assert state_from_json(data) == st
    for name in ("a2", "a3", "a2tilde", "a_n:<><"):
        st = mu_plus(initial_state(MutationContext(preset(name), 2)), 2)
        data = state_to_json(st)
        assert list(data) == ["B", "absC", "slopes", "m", "quiver"]
        assert data["quiver"] == name
        assert state_from_json(data) == st


def test_state_json_rejects_altered_b(ctx2, qb2):
    for st in (_state(ctx2, CHAIN[3]),
               mu_plus(initial_state(MutationContext(qb2, 2)), 1)):
        data = state_to_json(st)
        assert state_from_json(data) == st
        data["B"][0][1] += 1
        with pytest.raises(ValueError):
            state_from_json(data)


def test_state_json_rejects_invalid_state(ctx2):
    data = state_to_json(_state(ctx2, CHAIN[3]))
    for key, value in (("absC", [[1, 0]]), ("slopes", [0, 4]),
                       ("absC", [[1, 1], [1, 1]])):
        bad = dict(data, **{key: value})
        with pytest.raises(ValueError):
            state_from_json(bad)


def test_state_json_level_mismatch(ctx2, q2):
    data = state_to_json(initial_state(ctx2))
    other = MutationContext(q2, 2)
    with pytest.raises(ValueError):
        state_from_json(data, context=other)


def test_context_rejects_bad_level(q2):
    with pytest.raises(ValueError):
        MutationContext(q2, 0)
