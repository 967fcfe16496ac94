"""Quiver presets, pairings and g-vector transforms."""

import pytest

from mcfans.seed import ValuedQuiver, euler_pairing, g_of_dim, preset
from oracles import dim_of_g


def test_preset_exchange_matrices(q2, q3, q2t):
    assert q2.exchange == ((0, -1), (1, 0))
    assert q3.exchange == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    assert q2t.exchange == ((0, -1, -1), (1, 0, -1), (1, 1, 0))


def test_linear_preset_orientation():
    q4 = preset("a_n:<<<")
    assert q4.n == 4
    assert q4.arrows() == [(1, 0, 1), (2, 1, 1), (3, 2, 1)]
    q2b = preset("a_n:>")
    assert q2b.arrows() == [(0, 1, 1)]


def test_preset_errors():
    with pytest.raises(ValueError):
        preset("d4")
    with pytest.raises(ValueError):
        preset("a_n:")
    with pytest.raises(ValueError):
        preset("a_n:<x")


def test_valued_quiver_validation():
    with pytest.raises(ValueError):
        ValuedQuiver(2, ((1, -1), (-1, 1)))           # oriented 2-cycle
    with pytest.raises(ValueError):
        ValuedQuiver(2, ((2, 0), (-1, 1)))            # diagonal != symmetrizer
    with pytest.raises(ValueError):
        ValuedQuiver(2, ((1, 0), (-1, 2)), symmetrizer=(1, 0))
    with pytest.raises(ValueError):
        ValuedQuiver(2, ((1, 0), (-1, 2)), symmetrizer=(1, 2))  # indivisible


def test_valued_b2_exchange(qb2):
    assert qb2.exchange == ((0, -2), (1, 0))
    assert qb2.symmetrizer == (1, 2)


def test_euler_pairing_examples(q2, q3):
    # arrow 2 -> 1 contributes -1 to <S2, S1>
    assert euler_pairing(q2, (0, 1), (1, 0)) == -1
    assert euler_pairing(q2, (1, 0), (0, 1)) == 0
    assert euler_pairing(q2, (1, 0), (1, 0)) == 1
    assert euler_pairing(q3, (0, 1, 0), (0, 0, 1)) == -1
    assert euler_pairing(q3, (0, 0, 1), (0, 1, 0)) == 0


def test_g_vector_transforms(q2, q3):
    # projectives have unit g-vectors
    assert g_of_dim(q2, (1, 1)) == (0, 1)
    assert g_of_dim(q2, (1, 0)) == (1, 0)
    assert g_of_dim(q2, (0, 1)) == (-1, 1)
    assert dim_of_g(q2, (-1, 1)) == (0, 1)
    for d in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)):
        assert dim_of_g(q3, g_of_dim(q3, d)) == d


def test_quiver_json_round_trip(qb2):
    data = qb2.to_json()
    back = ValuedQuiver.from_json(data)
    assert back == qb2
    assert back.exchange == qb2.exchange
