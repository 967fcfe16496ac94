"""Ray/arc geometry, projection poles, scene stats, SVG determinism."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfans.errors import PoleOnWall, UnsupportedRank
from mcfans.fans import configuration_of_state, fan_wall_set
from mcfans.finrep import Wall, indecomposables, wall_of
from mcfans.mutation import MutationContext, MutationState, initial_state
from mcfans.render import (build_scene, project_wall, render_picture,
                           scene_stats, wall_rays)
from mcfans.seed import preset


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
    # the clipping contract: sampled points are integer vectors that satisfy
    # the wall equation exactly before any float projection happens
    from mcfans.intmat import dot
    from mcfans.render import _circle_samples, _plane_basis
    normal = (1, 1, 1)
    u, v = _plane_basis(normal)
    for (c, s) in _circle_samples(36):
        p = tuple(c * ux + s * vx for ux, vx in zip(u, v))
        assert all(type(x) is int for x in p)
        assert dot(p, normal) == 0


def test_scaled_rotations_are_orthogonal():
    from mcfans.render import _rotation_for_pole
    for pole in (None, (Fraction(3, 13), Fraction(4, 13), Fraction(12, 13)),
                 (0, 0, 1), (0, 1, 0)):
        den, rot = _rotation_for_pole(pole)
        assert all(type(x) is int for row in rot for x in row)
        assert [[sum(a * b for a, b in zip(r1, r2)) for r2 in rot]
                for r1 in rot] == [[den * den * (i == j) for j in range(3)]
                                   for i in range(3)]
        if pole is not None:
            # R sends the pole to (0, 0, 1)
            assert [sum(x * p for x, p in zip(row, pole)) for row in rot] == \
                [0, 0, den]


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


# --- integer sampling against the Fraction reference ---

_REF_DEFAULT_ROTATION = (
    (Fraction(4, 5), Fraction(3, 13), Fraction(36, 65)),
    (Fraction(0), Fraction(12, 13), Fraction(-5, 13)),
    (Fraction(-3, 5), Fraction(4, 13), Fraction(48, 65)),
)


def _ref_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _ref_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _ref_rotation(pole):
    if pole is None:
        return _REF_DEFAULT_ROTATION
    p = tuple(Fraction(x) for x in pole)
    w = (p[0], p[1], p[2] - 1)
    ww = _ref_dot(w, w)
    if ww == 0:
        return tuple(tuple(Fraction(int(i == j)) for j in range(3))
                     for i in range(3))
    return tuple(tuple(Fraction(int(i == j)) - 2 * w[i] * w[j] / ww
                       for j in range(3)) for i in range(3))


def _reference_project_wall(w, pole=None, samples=720):
    """project_wall as it was with Fraction points: the oracle."""
    from mcfans.render import _runs_cyclic
    normal = tuple(Fraction(x) for x in w.normal)
    rot = _ref_rotation(pole)
    if _ref_dot(normal, rot[2]) == 0:
        raise PoleOnWall("reference")
    axis = min(range(3), key=lambda i: abs(normal[i]))
    u = _ref_cross(normal, tuple(Fraction(int(i == axis)) for i in range(3)))
    v = _ref_cross(normal, u)
    subdims = [tuple(Fraction(x) for x in d) for d in w.subdims]
    coords, kept = [], []
    for t in range(samples):
        theta = 2.0 * math.pi * t / samples
        c = Fraction(round(math.cos(theta) * (1 << 20)), 1 << 20)
        s = Fraction(round(math.sin(theta) * (1 << 20)), 1 << 20)
        p = tuple(c * ux + s * vx for ux, vx in zip(u, v))
        kept.append(all(_ref_dot(p, d) <= 0 for d in subdims))
        coords.append(p)
    runs, closed = _runs_cyclic(kept)
    polylines = []
    for run in runs:
        if len(run) < 2:
            continue
        line = []
        for i in run:
            qf = [float(_ref_dot(row, coords[i])) for row in rot]
            norm = math.sqrt(qf[0] ** 2 + qf[1] ** 2 + qf[2] ** 2)
            x, y, z = qf[0] / norm, qf[1] / norm, qf[2] / norm
            line.append((x / (1.0 - z), y / (1.0 - z)))
        if closed and line:
            line.append(line[0])
        polylines.append(line)
    return polylines


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PoleOnWall:
        return PoleOnWall


_QUADRUPLES = ((0, 0, 1, 1), (1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9),
               (4, 4, 7, 9), (2, 6, 9, 11), (3, 4, 12, 13), (12, 12, 1, 17))


@st.composite
def _poles(draw):
    if draw(st.booleans()):
        return None
    *xyz, d = draw(st.sampled_from(_QUADRUPLES))
    return tuple(Fraction(x, d) for x in draw(st.permutations(xyz)))


_small = st.integers(min_value=-4, max_value=4)
_vec3 = st.tuples(_small, _small, _small)


@settings(max_examples=60, deadline=None)
@given(normal=_vec3.filter(any), subdims=st.sets(_vec3, max_size=4),
       samples=st.integers(min_value=1, max_value=400), pole=_poles())
def test_integer_sampling_matches_fraction_reference(normal, subdims, samples,
                                                     pole):
    w = Wall(normal, subdims)
    assert _outcome(project_wall, w, pole=pole, samples=samples) == \
        _outcome(_reference_project_wall, w, pole=pole, samples=samples)


@pytest.mark.parametrize("orientation", ["<<", "<>", "><", ">>"])
@pytest.mark.parametrize("pole", [None, (Fraction(3, 13), Fraction(4, 13),
                                         Fraction(12, 13))])
def test_svg_and_stats_match_fraction_reference(monkeypatch, orientation,
                                                pole):
    import mcfans.render as render
    walls = [wall_of(m) for m in indecomposables(preset(f"a_n:{orientation}"))]
    options = {"pole": pole, "samples": 360}
    svg = render_picture(walls, options)
    stats = scene_stats(build_scene(walls, options))
    monkeypatch.setattr(render, "project_wall", _reference_project_wall)
    assert render_picture(walls, options) == svg
    assert scene_stats(build_scene(walls, options)) == stats


def test_build_scene_calls_project_wall_once_per_wall(monkeypatch, walls3):
    # the per-layer tracer wraps render.project_wall by name and reads the
    # sample count from positional argument 2 or the samples keyword
    import mcfans.render as render
    calls = []
    original = render.project_wall

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["samples"])
        return original(*args, **kwargs)

    monkeypatch.setattr(render, "project_wall", counting)
    build_scene(walls3, {"samples": 360})
    assert calls == [360] * 6
