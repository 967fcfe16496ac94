"""Deterministic SVG pictures of wall arrangements.

Rank 2 draws rays from the origin inside a unit circle; rank 3 samples each
wall's great circle at integer points, scaled by 2^20 (so every inequality
test is exact integer arithmetic), then stereographically projects to the
plane. All float formatting is fixed-precision, so identical inputs give
byte-identical SVG.
"""

import math
from fractions import Fraction

from .errors import PoleOnWall, UnsupportedRank
from .intmat import dot

# fixed aesthetic rotation R = Ry(3-4-5) * Rx(5-12-13), exact and
# orthogonal, as (den, den * R) with den = 65 its common denominator
_DEFAULT_ROTATION = (65, ((52, 15, 36), (0, 60, -25), (-39, 20, 48)))

_COS_DENOM = 1 << 20
DEFAULT_SAMPLES = 720


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def _rotation_for_pole(pole):
    """Exact orthogonal R sending the pole to (0,0,1) (Householder), as
    (den, den * R): den is the least common denominator of R's entries, so
    den * R is an integer matrix."""
    if pole is None:
        return _DEFAULT_ROTATION
    p = tuple(Fraction(x) for x in pole)
    if len(p) != 3 or all(x == 0 for x in p):
        raise ValueError("pole must be a nonzero 3-vector")
    w = (p[0], p[1], p[2] - 1)
    ww = dot(w, w)
    if ww == 0:
        return 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows = tuple(tuple((i == j) - 2 * w[i] * w[j] / ww for j in range(3))
                 for i in range(3))
    # scale-invariance: Householder sends p/|p| to e3 only for unit p; verify
    img = _mat_vec(rows, p)
    if not (img[0] == 0 and img[1] == 0 and img[2] > 0):
        raise ValueError("pole must have rational unit length "
                         f"(|pole|^2 = {dot(p, p)})")
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, tuple(tuple(int(x * den) for x in row) for row in rows)


def _plane_basis(normal):
    """Two integer vectors spanning normal^perp, for an integral normal."""
    axis = min(range(3), key=lambda i: abs(normal[i]))
    e = tuple(int(i == axis) for i in range(3))
    u = _cross(normal, e)
    return u, _cross(normal, u)


def _circle_samples(samples):
    """Integer pairs (C, S): sample t of the unit circle is (C, S) / 2^20."""
    out = []
    for t in range(samples):
        theta = 2.0 * math.pi * t / samples
        out.append((round(math.cos(theta) * _COS_DENOM),
                    round(math.sin(theta) * _COS_DENOM)))
    return out


def _runs_cyclic(kept):
    """Maximal contiguous index runs of True values, cyclically merged."""
    n = len(kept)
    if all(kept):
        return [list(range(n))], True
    runs = []
    current = []
    for i in range(n):
        if kept[i]:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    if len(runs) >= 2 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs[0] = runs.pop() + runs[0]
    return runs, False


def project_wall(w, pole=None, samples=DEFAULT_SAMPLES):
    """Polylines of the wall's spherical arcs, stereographically projected.

    Sample (C, S) is the integer point p = C*u + S*v of the wall's plane, so
    p . d = C (u . d) + S (v . d) tests each inequality exactly in integers.
    The rotated point is (den R) p / (den 2^20); each coordinate is one
    correctly rounded int/int division, and only the projection after it
    uses floats.
    """
    normal = tuple(w.normal)
    if len(normal) != 3:
        raise UnsupportedRank("projection needs rank 3")
    den, rot = _rotation_for_pole(pole)
    # the effective pole in wall coordinates is R^t e3 = third row of R^t
    if dot(normal, rot[2]) == 0:
        raise PoleOnWall(f"projection pole lies on the wall of {normal}")
    u, v = _plane_basis(normal)
    tests = [(dot(u, d), dot(v, d)) for d in w.subdims]
    pts = _circle_samples(samples)
    kept = [all(c * du + s * dv <= 0 for du, dv in tests) for c, s in pts]
    runs, closed = _runs_cyclic(kept)
    rot_uv = tuple(zip(_mat_vec(rot, u), _mat_vec(rot, v)))
    scale = den * _COS_DENOM
    polylines = []
    for run in runs:
        if len(run) < 2:
            continue
        line = []
        for i in run:
            c, s = pts[i]
            qf = [(c * a + s * b) / scale for a, b in rot_uv]
            norm = math.sqrt(qf[0] ** 2 + qf[1] ** 2 + qf[2] ** 2)
            x, y, z = qf[0] / norm, qf[1] / norm, qf[2] / norm
            line.append((x / (1.0 - z), y / (1.0 - z)))
        if closed and line:
            line.append(line[0])
        polylines.append(line)
    return polylines


# --- rank-2 ray geometry ---

def wall_rays(w):
    """Unit-free ray directions of a rank-2 wall (0, 1 or 2 of them)."""
    normal = tuple(w.normal)
    if len(normal) != 2:
        raise UnsupportedRank("rays are a rank-2 feature")
    base = (-normal[1], normal[0])
    rays = []
    for sign in (1, -1):
        r = (sign * base[0], sign * base[1])
        if all(r[0] * d[0] + r[1] * d[1] <= 0 for d in w.subdims):
            rays.append(r)
    return rays


# --- scenes ---

class Scene:
    """Projected arcs (wall id, polyline, style) plus labels and metadata."""

    def __init__(self, arcs, labels, meta):
        self.arcs = list(arcs)
        self.labels = list(labels)
        self.meta = dict(meta)


def _wall_style(w):
    return getattr(w, "style", "black")


def _sorted_walls(walls):
    return sorted(walls, key=lambda w: (tuple(w.normal), sorted(w.subdims),
                                        _wall_style(w)))


def build_scene(walls, options=None):
    options = dict(options or {})
    walls = _sorted_walls(walls)
    ranks = {len(w.normal) for w in walls}
    if ranks - {2, 3}:
        raise UnsupportedRank(f"cannot render rank {sorted(ranks - {2, 3})}")
    if len(ranks) > 1:
        raise UnsupportedRank("mixed-rank wall sets are not renderable")
    rank = ranks.pop() if ranks else int(options.get("rank", 2))
    samples = int(options.get("samples", DEFAULT_SAMPLES))
    pole = options.get("pole")
    arcs = []
    labels = []
    if rank == 2:
        ray_count = 0
        directions = set()
        for wid, w in enumerate(walls):
            rays = wall_rays(w)
            ray_count += len(rays)
            for r in rays:
                norm = math.sqrt(float(r[0] * r[0] + r[1] * r[1]))
                tip = (float(r[0]) / norm, float(r[1]) / norm)
                arcs.append((wid, [(0.0, 0.0), tip], _wall_style(w)))
                g = math.gcd(abs(int(r[0])), abs(int(r[1])))
                directions.add((int(r[0]) // g, int(r[1]) // g))
            if rays:
                labels.append((",".join(str(x) for x in w.normal),
                               arcs[-1][1][1]))
        meta = {"rank": 2, "wall_count": len(walls), "ray_count": ray_count,
                "sector_count": len(directions)}
    else:
        for wid, w in enumerate(walls):
            lines = project_wall(w, pole=pole, samples=samples)
            arcs.extend((wid, line, _wall_style(w)) for line in lines)
            if lines:
                labels.append((",".join(str(x) for x in w.normal),
                               lines[0][0]))
        meta = {"rank": 3, "wall_count": len(walls), "samples": samples,
                "pole": "default" if pole is None else
                ",".join(str(Fraction(x)) for x in pole)}
    meta["styles"] = {}
    for wid, w in enumerate(walls):
        style = _wall_style(w)
        meta["styles"][style] = meta["styles"].get(style, 0) + 1
    return Scene(arcs, labels, meta)


def scene_stats(scene):
    """Structural counts: arc groups, per-style wall counts, ray/sector."""
    stats = {"arc_group_count": len({wid for (wid, _pl, _s) in scene.arcs})}
    for style in ("black", "blue", "negated"):
        stats[style] = scene.meta.get("styles", {}).get(style, 0)
    stats["ray_count"] = scene.meta.get("ray_count", 0)
    stats["sector_count"] = scene.meta.get("sector_count", 0)
    return stats


# --- SVG assembly ---

_STYLE_ATTRS = {
    "black": 'stroke="#000000"',
    "blue": 'stroke="#1f4fd8"',
    "negated": 'stroke="#000000" stroke-dasharray="6,3"',
}


def _fmt(x):
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _svg_path(polyline, scale):
    parts = []
    for i, (x, y) in enumerate(polyline):
        cmd = "M" if i == 0 else "L"
        parts.append(f"{cmd} {_fmt(x * scale)} {_fmt(-y * scale)}")
    return " ".join(parts)


def render_picture(walls, options=None):
    """Byte-deterministic SVG of the wall set (rank 2 or 3)."""
    options = dict(options or {})
    scene = build_scene(walls, options)
    scale = 140.0 if scene.meta["rank"] == 2 else 110.0
    half = 200
    lines = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * half}" '
        f'height="{2 * half}" viewBox="{-half} {-half} {2 * half} {2 * half}">')
    lines.append(f'<!-- rank={scene.meta["rank"]} '
                 f'walls={scene.meta["wall_count"]} -->')
    lines.append(f'<rect x="{-half}" y="{-half}" width="{2 * half}" '
                 f'height="{2 * half}" fill="#ffffff"/>')
    if scene.meta["rank"] == 2:
        lines.append(f'<circle cx="0" cy="0" r="{_fmt(scale)}" fill="none" '
                     'stroke="#bbbbbb" stroke-width="1"/>')
    by_group = {}
    for (wid, polyline, style) in scene.arcs:
        by_group.setdefault(wid, (style, []))[1].append(polyline)
    for wid in sorted(by_group):
        style, polylines = by_group[wid]
        attrs = _STYLE_ATTRS.get(style, _STYLE_ATTRS["black"])
        lines.append(f'<g id="wall-{wid}" class="{style}">')
        for pl in polylines:
            lines.append(f'<path d="{_svg_path(pl, scale)}" fill="none" '
                         f'{attrs} stroke-width="1.5"/>')
        lines.append('</g>')
    for (text, anchor) in scene.labels:
        x, y = anchor
        lines.append(f'<text x="{_fmt(x * scale * 1.08)}" '
                     f'y="{_fmt(-y * scale * 1.08)}" font-size="10" '
                     f'font-family="monospace">{text}</text>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
