"""Configurations, silting recovery, fan algebras and tagged wall sets."""

from itertools import permutations, product

import pytest

from mcfans.enumeration import exchange_graph
from mcfans.errors import DualityViolation, NotConfigurable
from mcfans.fans import (MConfiguration, check_hv_invariance,
                         configuration_of_state, fan_wall_set,
                         horizontal_algebra, silting_from_state,
                         vertical_algebra)
from mcfans.finrep import is_exceptional_sequence
from mcfans.mutation import MutationContext, MutationState, initial_state, mu_plus
from mcfans.seed import ValuedQuiver, preset


@pytest.fixture(scope="module")
def ctx2(q2):
    return MutationContext(q2, 3)


@pytest.fixture(scope="module")
def ctx21(q2):
    return MutationContext(q2, 1)


# --- configurations ---

def test_configuration_ordering(state_x):
    cfg = configuration_of_state(state_x)
    assert cfg.ordering == (1, 0, 2)
    assert cfg.ordered_items() == [((1, 1, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 2)]
    assert [m.dim for m in cfg.modules()] == [(0, 1, 0), (1, 1, 0), (0, 0, 1)]


def test_not_configurable(q2):
    # S2 below P2 can never be numbered exceptionally with increasing slopes
    with pytest.raises(NotConfigurable):
        MConfiguration(q2, 3, [((0, 1), 1), ((1, 1), 2)])
    with pytest.raises(NotConfigurable):
        MConfiguration(q2, 3, [((2, 1), 0), ((0, 1), 0)])  # not a root
    with pytest.raises(NotConfigurable):
        MConfiguration(q2, 3, [((1, 0), 4), ((0, 1), 0)])  # slope out of range


def _first_admissible_by_search(cfg):
    """The first slope-sorted order, each equal-slope block permuted in
    lexicographic order, that is an exceptional sequence (or None)."""
    mods = cfg.modules()
    blocks = [[j for j, (_d, s) in enumerate(cfg.items) if s == slope]
              for slope in sorted({s for (_d, s) in cfg.items})]
    for perms in product(*(permutations(b) for b in blocks)):
        perm = sum(perms, ())
        if is_exceptional_sequence([mods[j] for j in perm]):
            return perm
    return None


def test_ordering_matches_the_permutation_search():
    d4 = ValuedQuiver(4, ((1, -1, -1, -1), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1)), name="d4")
    cases = [(preset(name), m) for name in ("a3", "a_n:<><") for m in (1, 2)]
    states = 0
    for q, m in cases + [(d4, 1)]:
        for st in exchange_graph(MutationContext(q, m)).nodes.values():
            cfg = configuration_of_state(st)
            assert cfg.ordering == _first_admissible_by_search(cfg), st
            # reversed columns break the ties between free pairs the other way
            rev = MConfiguration(q, m, cfg.items[::-1])
            assert rev.ordering == _first_admissible_by_search(rev), st
            states += 1
    assert states == 14 + 55 + 42 + 273 + 50


# --- silting recovery ---

def test_silting_initial_and_terminal(ctx2):
    s = silting_from_state(initial_state(ctx2))
    assert [(it.dim, it.level, it.kind) for it in s.items] == [
        ((1, 0), 3, "shifted-projective"),
        ((1, 1), 3, "shifted-projective")]
    assert [it.g for it in s.items] == [(1, 0), (0, 1)]

    terminal = MutationState(ctx2, ((0, 1), (1, 0)), (3, 3))
    assert terminal.B == ((0, 1), (-1, 0))
    s = silting_from_state(terminal)
    assert [(it.dim, it.level, it.kind) for it in s.items] == [
        ((1, 1), 0, "module"), ((1, 0), 0, "module")]


def test_silting_rank3(state_x):
    s = silting_from_state(state_x)
    assert s.summand_dims() == [((0, 1, 1), 1), ((1, 0, 0), 2), ((0, 0, 1), 1)]
    assert all(it.kind == "module" for it in s.items)
    y = mu_plus(state_x, 2)
    assert silting_from_state(y).summand_dims() == [
        ((0, 1, 1), 1), ((1, 1, 1), 1), ((0, 0, 1), 1)]


def test_silting_covers_whole_graph(ctx21):
    from mcfans.enumeration import exchange_graph
    for st in exchange_graph(ctx21).nodes.values():
        s = silting_from_state(st)
        assert len(s.items) == 2


def test_duality_violation(ctx21):
    bad = MutationState(ctx21, ((1, 1), (1, 0)), (0, 1))
    assert bad.B == ((0, -1), (1, 0))
    with pytest.raises(DualityViolation):
        silting_from_state(bad)


# --- fan algebras ---

def test_initial_algebras(ctx2):
    cfg = configuration_of_state(initial_state(ctx2))
    h = horizontal_algebra(cfg)
    assert h.parity == "horizontal"
    assert h.factor_dims() == [
        (0, frozenset({(1, 0), (0, 1), (1, 1)})), (1, frozenset())]
    assert h.ranks() == [2, 0]
    v = vertical_algebra(cfg)
    assert v.factor_dims() == [
        (0, frozenset({(1, 0), (0, 1), (1, 1)})),
        (1, frozenset()), (2, frozenset())]
    assert v.ranks() == [2, 0, 0]


def test_algebra_json(ctx2):
    h = horizontal_algebra(configuration_of_state(initial_state(ctx2)))
    assert h.to_json() == {
        "parity": "horizontal",
        "factors": [{"slot": 0, "members": [[0, 1], [1, 0], [1, 1]]},
                    {"slot": 1, "members": []}]}


def test_algebra_equality_and_hash(state_x):
    h1 = horizontal_algebra(configuration_of_state(state_x))
    z = mu_plus(state_x, 3)  # even-slope move: horizontal data is preserved
    h2 = horizontal_algebra(configuration_of_state(z))
    assert h1 == h2 and hash(h1) == hash(h2)
    v1 = vertical_algebra(configuration_of_state(state_x))
    assert h1 != v1


def test_check_hv_invariance(state_x):
    assert check_hv_invariance(state_x, 3)  # slope 2: horizontal move
    assert check_hv_invariance(state_x, 2)  # slope 1: vertical move


# --- tagged wall sets ---

def test_fan_wall_set_horizontal(ctx2):
    cfg = configuration_of_state(initial_state(ctx2))
    walls = fan_wall_set(cfg, "horizontal")
    assert [(w.normal, sorted(w.subdims), w.slot, w.style) for w in walls] == [
        ((0, 1), [], 0, "black"),
        ((1, 0), [], 0, "black"),
        ((1, 1), [(1, 0)], 0, "black")]
    assert walls[-1].to_json() == {
        "normal": [1, 1], "subdims": [[1, 0]], "slot": 0, "style": "black"}


def test_fan_wall_set_vertical_is_negated(ctx2):
    cfg = configuration_of_state(initial_state(ctx2))
    walls = fan_wall_set(cfg, "vertical")
    assert [(w.normal, sorted(w.subdims), w.slot, w.style) for w in walls] == [
        ((-1, -1), [(-1, 0)], 0, "negated"),
        ((-1, 0), [], 0, "negated"),
        ((0, -1), [], 0, "negated")]


def test_fan_wall_set_blue_slots(ctx2):
    # all columns sit in slot 1 (slopes 2 and 3), so every wall renders blue
    st6 = MutationState(ctx2, ((1, 0), (1, 1)), (2, 3))
    assert st6.B == ((0, 1), (-1, 0))
    walls = fan_wall_set(configuration_of_state(st6), "horizontal")
    assert [(w.normal, w.slot, w.style) for w in walls] == [
        ((0, 1), 1, "blue"), ((1, 0), 1, "blue"), ((1, 1), 1, "blue")]


def test_fan_wall_set_bad_parity(ctx2):
    cfg = configuration_of_state(initial_state(ctx2))
    with pytest.raises(ValueError):
        fan_wall_set(cfg, "diagonal")
