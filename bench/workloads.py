"""Seeded inputs for the benchmark workloads and the oracles that check them.

A workload is a fixed list of `mcfans` command lines. The workload seed only
chooses quiver orientations and render poles; the program receives nothing
but the generated argv. Every output is checked against an independent
oracle: a closed formula, or a second algorithm (green-path counting over
the exchange graph) for the counts the DFS produces.
"""

import hashlib
import json
import math
import random
import re
from itertools import permutations

WORKLOADS = ("graph", "green", "geometry")

# Maximal green sequence listings grow with the orientation (A5 at m=1 has
# 2,981 to 19,438 of them), so a seed may only move within one class of
# equal size: the images of a base orientation under mirroring the path and
# under reversing every arrow. Those classes have equal MGS counts, so runs
# with different seeds do the same amount of work on different inputs.
GREEN_LISTING_BASE = "<<><"     # A5, 12,575 MGSs at m=1 in each image
GREEN_DILOG_BASE = "<><"        # A4, 179 MGSs at m=1 in each image

# Pythagorean quadruples (a, b, c, d) with a^2 + b^2 + c^2 = d^2: every
# permutation of (a, b, c) / d is a rational unit pole. All entries are
# positive, so no pole lies on the wall of a positive root.
POLE_QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9),
                   (2, 6, 9, 11), (6, 6, 7, 11), (3, 4, 12, 13),
                   (2, 10, 11, 15), (1, 12, 12, 17), (8, 9, 12, 17))

RENDER_SAMPLES = 3600


class OutputError(Exception):
    """A command's output failed its oracle."""


class Command:
    """One `mcfans` invocation of a workload.

    `metric` names the per-command timing it adds to (enumerate, mgs, ...),
    `kind` selects the oracle, `n` and `m` are the rank and level it checks
    against, and `out` is the file an SVG render writes, if any.
    """

    def __init__(self, metric, kind, argv, n, m=None, out=None):
        self.metric = metric
        self.kind = kind
        self.argv = list(argv)
        self.n = n
        self.m = m
        self.out = out

    @property
    def quiver(self):
        return self.argv[self.argv.index("--quiver") + 1]

    @property
    def depth_cap(self):
        return int(self.argv[self.argv.index("--depth-cap") + 1])


# --- orientations ------------------------------------------------------------

def mirror(orient):
    """The same quiver with vertices relabelled i -> n+1-i."""
    return "".join("<" if c == ">" else ">" for c in reversed(orient))


def opposite(orient):
    """The quiver with every arrow reversed."""
    return "".join("<" if c == ">" else ">" for c in orient)


def orbit(orient):
    """Sorted images of an orientation under mirroring and reversal."""
    return sorted({orient, mirror(orient), opposite(orient),
                   mirror(opposite(orient))})


def _any_orientation(rng, n):
    return "".join(rng.choice("<>") for _ in range(n - 1))


def _pole(rng):
    a, b, c, d = rng.choice(POLE_QUADRUPLES)
    x, y, z = rng.choice(sorted(set(permutations((a, b, c)))))
    return f"{x}/{d},{y}/{d},{z}/{d}"


def generate(workload, seed, workdir):
    """The command list of a workload; the same seed gives the same list.

    workdir is where an SVG render writes, relative to the checkout root.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "graph":
        a4, a5 = (f"a_n:{_any_orientation(rng, n)}" for n in (4, 5))
        a4_longest = f"a_n:{_any_orientation(rng, 4)}"
        a4_fans = f"a_n:{_any_orientation(rng, 4)}"
        return [
            Command("enumerate", "enumerate", ["enumerate", "--quiver", a4, "--m", "3"], 4, 3),
            Command("enumerate", "enumerate", ["enumerate", "--quiver", a5, "--m", "1"], 5, 1),
            Command("longest", "longest",
                    ["mgs", "--quiver", a4_longest, "--m", "2", "--longest"], 4, 2),
            Command("fans", "fans", ["fans", "--quiver", a4_fans, "--m", "2"], 4, 2),
            Command("verify", "verify", ["verify"], None),
        ]
    if workload == "green":
        a5 = "a_n:" + rng.choice(orbit(GREEN_LISTING_BASE))
        a4 = "a_n:" + rng.choice(orbit(GREEN_DILOG_BASE))
        return [
            Command("mgs", "mgs", ["mgs", "--quiver", a5, "--m", "1", "--depth-cap", "15"], 5, 1),
            Command("dilog", "dilog", ["dilog", "--quiver", a4, "--m", "1", "--truncate", "5",
                                       "--depth-cap", "20"], 4, 1),
        ]
    if workload == "geometry":
        first, second = (_any_orientation(rng, 12) for _ in range(2))
        a3 = f"a_n:{_any_orientation(rng, 3)}"
        pole = _pole(rng)
        svg = str(workdir / "render.svg")
        samples = str(RENDER_SAMPLES)
        return [
            Command("walls", "walls", ["walls", "--quiver", f"a_n:{first}"], 12),
            Command("walls", "walls", ["walls", "--quiver", f"a_n:{second}"], 12),
            Command("render", "render_svg", ["render", "--quiver", a3, "--format", "svg",
                                             "--pole", pole, "--samples", samples,
                                             "--out", svg], 3, out=svg),
            Command("render", "render_stats", ["render", "--quiver", a3, "--format", "stats",
                                               "--pole", pole, "--samples", samples], 3),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- oracles -----------------------------------------------------------------

def fuss_catalan(n, m):
    """Number of m-clusters of type A_n (Fomin-Reading)."""
    return math.comb((m + 1) * (n + 1), n + 1) // (m * (n + 1) + 1)


def longest_length(n, m):
    """Longest maximal green sequence of A_n at level m: m * n(n+1)/2."""
    return m * n * (n + 1) // 2


def green_paths(quiver, m, depth_cap):
    """Number of green paths of at most depth_cap steps from the initial
    state to a terminal one, by dynamic programming over the edges of the
    canonicalized exchange graph (a second algorithm to the MGS search)."""
    from mcfans.enumeration import exchange_graph
    from mcfans.mutation import MutationContext
    from mcfans.seed import preset

    graph = exchange_graph(MutationContext(preset(quiver), m))
    succ = {key: [] for key in graph.nodes}
    for (u, v, _k, _p) in graph.edges:
        succ[u].append(v)
    terminals = set(graph.terminals)
    memo = {}

    def paths(key, budget):
        if key in terminals:
            return 1
        if budget == 0:
            return 0
        if (key, budget) not in memo:
            memo[key, budget] = sum(paths(v, budget - 1) for v in succ[key])
        return memo[key, budget]

    return paths(graph.initial, depth_cap)


def _require(cond, msg):
    if not cond:
        raise OutputError(msg)


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise OutputError(f"stdout is not JSON: {exc}") from None


def _is_interval_root(dim, n):
    """A positive root of A_n: a 0/1 vector whose ones are contiguous."""
    if len(dim) != n or any(x not in (0, 1) for x in dim) or 1 not in dim:
        return False
    ones = [i for i, x in enumerate(dim) if x]
    return ones[-1] - ones[0] + 1 == len(ones)


def check_output(cmd, stdout, out_file=None, expected_paths=None):
    """Check one command's output against its oracle; return its counts.

    stdout and out_file are bytes. expected_paths is green_paths() for the
    command's quiver, needed by the mgs and dilog oracles. Raises OutputError.
    """
    try:
        return _check(cmd, stdout, out_file, expected_paths)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise OutputError(f"malformed output: {type(exc).__name__}: {exc}") from None


def _check(cmd, stdout, out_file, expected_paths):
    n, m = cmd.n, cmd.m
    counts = {"stdout_bytes": len(stdout)}
    if cmd.kind == "verify":
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        _require(lines and lines[-1] == "11/11 checks passed",
                 f"verify ended with {lines[-1:]!r}, not '11/11 checks passed'")
        counts["checks"] = 11
        return counts
    if cmd.kind == "render_svg":
        _require(not stdout, "render --format svg printed to stdout")
        svg = (out_file or b"").decode("utf-8", "replace")
        groups = svg.count('<g id="wall-')
        _require(svg.rstrip().endswith("</svg>"), "SVG file is missing or truncated")
        _require(groups == n * (n + 1) // 2,
                 f"{groups} wall groups in the SVG, expected {n * (n + 1) // 2}")
        counts.update(wall_groups=groups, svg_bytes=len(out_file))
        return counts
    data = _json(stdout)
    if cmd.kind == "enumerate":
        want = fuss_catalan(n, m)
        _require(data["count"] == want, f"{data['count']} states, Fuss-Catalan says {want}")
        _require(len(data["graph"]["nodes"]) == want, "node list disagrees with count")
        _require(data["edge_count"] == len(data["graph"]["edges"]),
                 "edge list disagrees with edge_count")
        counts.update(states=want, edges=data["edge_count"])
    elif cmd.kind == "longest":
        want = longest_length(n, m)
        _require(data["longest"] == want, f"longest {data['longest']}, expected {want}")
        counts["longest"] = want
    elif cmd.kind == "fans":
        want = fuss_catalan(n, m)
        for parity in ("horizontal", "vertical"):
            comps = data[parity]["components"]
            states = [s for c in comps for s in c["states"]]
            _require(data[parity]["count"] == len(comps), f"{parity} count disagrees")
            _require(all(c["size"] == len(c["states"]) for c in comps),
                     f"{parity} component size disagrees with its states")
            _require(len(states) == len(set(states)) == want,
                     f"{parity} components do not partition the {want} states")
            counts[f"{parity}_components"] = len(comps)
        counts["states"] = want
    elif cmd.kind == "mgs":
        seqs = data["sequences"]
        _require(not data["truncated"], "listing was truncated")
        _require(data["count"] == len(seqs) == expected_paths,
                 f"{data['count']} sequences listed, {expected_paths} green paths")
        cap = cmd.depth_cap
        for seq in seqs:
            _require(len(seq["mutations"]) == len(seq["crossings"]) <= cap,
                     f"sequence {seq['mutations']} has a bad length")
            for cross in seq["crossings"]:
                _require(_is_interval_root(cross["dim"], n) and 0 <= cross["slope"] < m,
                         f"crossing {cross} is not a graded interval root")
        counts["sequences"] = len(seqs)
    elif cmd.kind == "dilog":
        _require(data["ok"] is True and data["mismatches"] == [],
                 f"wall-crossing products disagree at {data['mismatches'][:5]}")
        _require(data["count"] == expected_paths,
                 f"{data['count']} sequences, {expected_paths} green paths")
        counts["sequences"] = data["count"]
    elif cmd.kind == "walls":
        want = n * (n + 1) // 2
        normals = [tuple(w["normal"]) for w in data["walls"]]
        _require(data["count"] == len(normals) == want,
                 f"{data['count']} walls, expected {want}")
        _require(len(set(normals)) == want and all(_is_interval_root(d, n) for d in normals),
                 "wall normals are not the distinct positive roots")
        counts["walls"] = want
    elif cmd.kind == "render_stats":
        want = n * (n + 1) // 2
        _require(data["arc_group_count"] == data["black"] == want,
                 f"{data['arc_group_count']} arc groups, expected {want}")
        counts["arc_groups"] = want
    else:
        raise ValueError(f"unknown command kind {cmd.kind!r}")
    return counts


def digest(cmd, stdout, out_file=None):
    """Identity of a command's output, for repeat and tracing comparisons.

    The seconds column of the verify report is masked: it is a timing, not
    part of the result.
    """
    if cmd.kind == "verify":
        stdout = re.sub(rb" +[0-9]+[.][0-9]+s  ", b" <seconds>  ", stdout)
    h = hashlib.sha256(stdout)
    if out_file is not None:
        h.update(b"\0" + out_file)
    return h.hexdigest()
