"""Ray/arc geometry, projection poles, scene stats, SVG determinism."""

from fractions import Fraction

import pytest

from mcfans.errors import PoleOnWall, UnsupportedRank
from mcfans.fans import configuration_of_state, fan_wall_set
from mcfans.finrep import Wall, wall_of
from mcfans.mutation import MutationContext, MutationState, initial_state
from mcfans.render import (build_scene, project_wall, render_picture,
                           scene_stats, wall_rays)


@pytest.fixture(scope="module")
def walls2(table2):
    return [wall_of(m) for m in table2]


@pytest.fixture(scope="module")
def walls3(table3):
    return [wall_of(m) for m in table3]


# --- rank-2 rays ---

def test_wall_rays(table2):
    assert wall_rays(wall_of(table2.simple(1))) == [(0, 1), (0, -1)]
    assert wall_rays(wall_of(table2.simple(2))) == [(-1, 0), (1, 0)]
    # the submodule inequality kills one side of the P2 wall
    assert wall_rays(wall_of(table2.projective(2))) == [(-1, 1)]


def test_wall_rays_needs_rank2(table3):
    with pytest.raises(UnsupportedRank):
        wall_rays(wall_of(table3.simple(1)))


def test_rank2_scene(walls2):
    scene = build_scene(walls2)
    assert scene_stats(scene) == {"arc_group_count": 3, "black": 3, "blue": 0,
                                  "negated": 0, "ray_count": 5,
                                  "sector_count": 5}
    assert len(scene.labels) == 3
    assert all(polyline[0] == (0.0, 0.0) for (_w, polyline, _s) in scene.arcs)


# --- rank-3 arcs ---

def test_full_circles_for_simples(table3):
    lines = project_wall(wall_of(table3.simple(1)))
    assert len(lines) == 1 and len(lines[0]) == 721
    assert lines[0][0] == lines[0][-1]  # closed polyline
    lines = project_wall(wall_of(table3.simple(1)), samples=360)
    assert len(lines[0]) == 361


def test_clipped_arc(table3):
    lines = project_wall(wall_of(table3.projective(2)))
    assert len(lines) == 1
    arc = lines[0]
    assert len(arc) == 91 and arc[0] != arc[-1]  # open arc
    assert len(project_wall(wall_of(table3.projective(2)), samples=360)[0]) == 46


def test_half_circle_arcs(table3):
    for dim in ((1, 1, 0), (0, 1, 1)):
        lines = project_wall(wall_of(table3.by_dim[dim]))
        assert [len(a) for a in lines] == [361]


def test_negated_wall_is_antipodal(table3):
    w = wall_of(table3.projective(2))
    neg = Wall(tuple(-x for x in w.normal),
               {tuple(-x for x in d) for d in w.subdims})
    assert [len(a) for a in project_wall(neg)] == \
        [len(a) for a in project_wall(w)]


def test_samples_lie_exactly_on_plane():
    # the clipping contract: sampled points satisfy the wall equations in
    # exact rational arithmetic before any float projection happens
    from mcfans.intmat import dot
    from mcfans.render import _circle_samples, _plane_basis
    normal = (Fraction(1), Fraction(1), Fraction(1))
    u, v = _plane_basis(normal)
    for (c, s) in _circle_samples(36):
        p = tuple(c * ux + s * vx for ux, vx in zip(u, v))
        assert dot(p, normal) == 0


def test_project_needs_rank3(table2):
    with pytest.raises(UnsupportedRank):
        project_wall(wall_of(table2.simple(1)))


# --- poles ---

def test_pole_on_wall(table3):
    with pytest.raises(PoleOnWall):
        project_wall(wall_of(table3.simple(2)), pole=(1, 0, 0))
    with pytest.raises(PoleOnWall):
        project_wall(wall_of(table3.by_dim[(1, 1, 0)]), pole=(0, 0, 1))


def test_explicit_unit_pole(table3):
    pole = (Fraction(3, 13), Fraction(4, 13), Fraction(12, 13))
    lines = project_wall(wall_of(table3.projective(2)), pole=pole)
    assert lines and all(len(a) >= 2 for a in lines)


def test_pole_validation(table3):
    w = wall_of(table3.simple(1))
    with pytest.raises(ValueError):
        project_wall(w, pole=(1, 1, 1))      # not unit length
    with pytest.raises(ValueError):
        project_wall(w, pole=(0, 0, 0))


def test_rank3_scene(walls3):
    scene = build_scene(walls3)
    assert scene_stats(scene) == {"arc_group_count": 6, "black": 6, "blue": 0,
                                  "negated": 0, "ray_count": 0,
                                  "sector_count": 0}
    assert scene.meta["samples"] == 720 and scene.meta["pole"] == "default"
    small = build_scene(walls3, {"samples": 360})
    assert small.meta["samples"] == 360


def test_scene_rank_guards(walls2, walls3):
    with pytest.raises(UnsupportedRank):
        build_scene(walls2 + walls3)
    with pytest.raises(UnsupportedRank):
        build_scene([Wall((1, 0, 0, 0), ())])


# --- fan wall styling flows through ---

def test_tagged_scene_stats(q2, q3):
    cfg3 = configuration_of_state(initial_state(MutationContext(q3, 3)))
    hor = scene_stats(build_scene(fan_wall_set(cfg3, "horizontal")))
    assert (hor["black"], hor["blue"], hor["negated"]) == (6, 0, 0)
    ver = scene_stats(build_scene(fan_wall_set(cfg3, "vertical")))
    assert (ver["black"], ver["blue"], ver["negated"]) == (0, 0, 6)
    cfg2 = configuration_of_state(initial_state(MutationContext(q2, 3)))
    flat = scene_stats(build_scene(fan_wall_set(cfg2, "horizontal")))
    assert (flat["black"], flat["ray_count"], flat["sector_count"]) == (3, 5, 5)


# --- SVG output ---

def test_svg_structure(walls2):
    svg = render_picture(walls2)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert '<!-- rank=2 walls=3 -->' in svg
    assert svg.count('<g id="wall-') == 3
    assert svg.count('class="black"') == 3
    assert svg.count('<text') == 3
    assert '<circle' in svg            # rank-2 frame circle
    assert '-0.0000' not in svg
    assert svg.endswith('</svg>\n')


def test_svg_deterministic(walls2, walls3):
    assert render_picture(walls2) == render_picture(list(reversed(walls2)))
    assert render_picture(walls3) == render_picture(walls3)


def test_svg_styles(q2, q3):
    cfg3 = configuration_of_state(initial_state(MutationContext(q3, 3)))
    vsvg = render_picture(fan_wall_set(cfg3, "vertical"))
    assert 'stroke-dasharray="6,3"' in vsvg and 'class="negated"' in vsvg
    ctx2 = MutationContext(q2, 3)
    st6 = MutationState(ctx2, ((1, 0), (1, 1)), (2, 3))
    assert st6.B == ((0, 1), (-1, 0))
    bsvg = render_picture(fan_wall_set(configuration_of_state(st6), "horizontal"))
    assert '#1f4fd8' in bsvg and 'class="blue"' in bsvg


def test_svg_empty():
    svg = render_picture([], {"rank": 2})
    assert '<g id' not in svg
    assert '<rect' in svg and '<circle' in svg
