"""Command-line interface.

Subcommands: enumerate, mgs, fans, walls, render, dilog, verify. JSON goes
to stdout, SVG to the --out file, log lines to stderr. Exit codes: 0 success,
1 a verification/domain failure, 2 a usage problem. Numeric flags beat the
MCF_NODE_CAP / MCF_SAMPLES environment variables, which beat the defaults.
"""

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from .dilog import edge_invariant_check
from .enumeration import (enumerate_mgs, exchange_graph, fan_components,
                          graph_to_json, green_paths, longest_mgs, mgs_to_json)
from .errors import McfError
from .fans import configuration_of_state, horizontal_algebra, vertical_algebra
from .finrep import indecomposables, wall_of
from .mutation import MutationContext
from .render import DEFAULT_SAMPLES, build_scene, render_picture, scene_stats
from .seed import preset
from .verify import format_report, run_verification

log = logging.getLogger("mcfans")

# Expanding one state runs n mutations of O(n^2) each and the node cap counts
# only states, so larger quivers are refused before any state or table exists.
MAX_VERTICES = 64


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    """argparse type of the numeric flags and variables: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return value


def _resolve_int(flag_value, env_name, default, parser):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"environment variable {env_name}: {exc}")


def _parse_pole(text, parser):
    if text is None:
        return None
    try:
        pole = tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        pole = ()
    if len(pole) != 3 or not any(pole):
        parser.error(f"--pole needs three comma-separated rationals, not all "
                     f"zero, got {text!r}")
    return pole


def _quiver(args, parser):
    try:
        q = preset(args.quiver)
    except ValueError as exc:
        parser.error(str(exc))
    if q.n > MAX_VERTICES:
        raise ValueError(f"quiver has {q.n} vertices, more than the "
                         f"{MAX_VERTICES} supported")
    return q


def _context(args, parser):
    q = _quiver(args, parser)
    try:
        return MutationContext(q, args.m)
    except ValueError as exc:
        parser.error(str(exc))


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- subcommand handlers ----------------------------------------------------

def _cmd_enumerate(args, parser):
    ctx = _context(args, parser)
    cap = _resolve_int(args.node_cap, "MCF_NODE_CAP", None, parser)
    graph = exchange_graph(ctx, node_cap=cap)
    log.info("enumerated %d states for %s m=%d", len(graph), args.quiver, args.m)
    _emit({"quiver": args.quiver, "m": args.m, "count": len(graph),
           "edge_count": len(graph.edges), "graph": graph_to_json(graph)})
    return 0


def _cmd_mgs(args, parser):
    ctx = _context(args, parser)
    cap = _resolve_int(args.node_cap, "MCF_NODE_CAP", None, parser)
    if args.longest:
        length = longest_mgs(ctx, node_cap=cap)
        _emit({"quiver": args.quiver, "m": args.m, "longest": length})
        return 0
    if args.depth_cap is None:
        parser.error("mgs needs --depth-cap (or --longest)")
    if args.count:
        graph = exchange_graph(ctx, node_cap=cap, depth_cap=args.depth_cap)
        paths = green_paths(graph, args.depth_cap)
        _emit({"quiver": args.quiver, "m": args.m, "count": paths.count,
               "truncated": paths.truncated})
        return 0
    result = enumerate_mgs(ctx, args.depth_cap, node_cap=cap)
    log.info("found %d sequences (truncated=%s)", len(result), result.truncated)
    payload = {"quiver": args.quiver, "m": args.m, "count": len(result)}
    payload.update(mgs_to_json(result))
    _emit(payload)
    return 0


def _one_parity(graph, parity):
    comps = fan_components(graph, parity)
    algebra_fn = (horizontal_algebra if parity == "horizontal"
                  else vertical_algebra)
    out = []
    for comp in comps:
        rep = graph.nodes[comp[0]]
        alg = algebra_fn(configuration_of_state(rep))
        out.append({"size": len(comp), "states": list(comp),
                    "algebra": alg.to_json()})
    return {"count": len(comps), "components": out}


def _cmd_fans(args, parser):
    ctx = _context(args, parser)
    cap = _resolve_int(args.node_cap, "MCF_NODE_CAP", None, parser)
    graph = exchange_graph(ctx, node_cap=cap)
    payload = {"quiver": args.quiver, "m": args.m}
    parities = [args.parity] if args.parity else ["horizontal", "vertical"]
    for parity in parities:
        payload[parity] = _one_parity(graph, parity)
    _emit(payload)
    return 0


def _cmd_walls(args, parser):
    q = _quiver(args, parser)
    walls = [wall_of(r) for r in indecomposables(q).reps]
    _emit({"quiver": args.quiver, "count": len(walls),
           "walls": [w.to_json() for w in walls]})
    return 0


def _cmd_render(args, parser):
    q = _quiver(args, parser)
    samples = _resolve_int(args.samples, "MCF_SAMPLES", DEFAULT_SAMPLES, parser)
    pole = _parse_pole(args.pole, parser)
    walls = [wall_of(r) for r in indecomposables(q).reps]
    options = {"samples": samples, "pole": pole}
    if args.format == "stats":
        _emit(scene_stats(build_scene(walls, options)))
        return 0
    if args.out is None:
        parser.error("render needs --out for SVG output (or --format stats)")
    svg = render_picture(walls, options)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    log.info("wrote %s (%d bytes)", args.out, len(svg))
    return 0


def _cmd_dilog(args, parser):
    ctx = _context(args, parser)
    graph = exchange_graph(ctx, depth_cap=args.depth_cap)
    count = green_paths(graph, args.depth_cap).count
    if not count:
        parser.error("no green sequences found within the depth cap")
    report = edge_invariant_check(ctx, graph, args.truncate)
    payload = {
        "quiver": args.quiver, "m": args.m, "truncation": args.truncate,
        "count": count, "ok": report.ok,
        "mismatches": [list(edge) for edge in report.mismatches],
    }
    if report.ok:
        payload["series"] = report.series.to_json()
    _emit(payload)
    return 0 if report.ok else 1


def _cmd_verify(args, parser):
    rows, all_ok = run_verification()
    sys.stdout.write(format_report(rows) + "\n")
    return 0 if all_ok else 1


# --- parser -----------------------------------------------------------------

def _add_quiver_m(sub, default_m=1):
    sub.add_argument("--quiver", required=True,
                     help="preset name: a2, a3, a2tilde, a_n:<orientation>")
    sub.add_argument("--m", type=int, default=default_m,
                     help=f"slope ceiling (default {default_m})")


def build_parser():
    parser = _Parser(
        prog="mcfans",
        description="Slope-graded mutation, green sequences, stability fans "
                    "and dilogarithm identities in exact arithmetic.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="exchange graph of a quiver/level")
    _add_quiver_m(p)
    p.add_argument("--node-cap", type=_positive_int,
                   help="abort past this many states")
    p.set_defaults(fn=_cmd_enumerate)

    p = subs.add_parser("mgs", help="maximal green sequences")
    _add_quiver_m(p)
    p.add_argument("--depth-cap", type=_positive_int, help="search depth bound")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--longest", action="store_true",
                      help="emit only the longest sequence length")
    only.add_argument("--count", action="store_true",
                      help="emit only the count and truncated flag, without "
                           "listing the sequences (needs --depth-cap)")
    p.add_argument("--node-cap", type=_positive_int,
                   help="abort past this many states")
    p.set_defaults(fn=_cmd_mgs)

    p = subs.add_parser("fans", help="fan components with their algebras")
    _add_quiver_m(p)
    p.add_argument("--parity", choices=("horizontal", "vertical"),
                   help="restrict to one parity (default: both)")
    p.add_argument("--node-cap", type=_positive_int,
                   help="abort past this many states")
    p.set_defaults(fn=_cmd_fans)

    p = subs.add_parser("walls", help="brick walls of a quiver")
    p.add_argument("--quiver", required=True,
                   help="preset name: a2, a3, a_n:<orientation>")
    p.set_defaults(fn=_cmd_walls)

    p = subs.add_parser("render", help="SVG picture of the brick walls")
    p.add_argument("--quiver", required=True,
                   help="preset name with 2 or 3 vertices")
    p.add_argument("--out", help="SVG output path")
    p.add_argument("--pole", help="projection pole, e.g. 3/13,4/13,12/13")
    p.add_argument("--samples", type=_positive_int,
                   help=f"great-circle samples (default {DEFAULT_SAMPLES})")
    p.add_argument("--format", choices=("svg", "stats"), default="svg",
                   help="svg writes --out; stats prints scene counts")
    p.set_defaults(fn=_cmd_render)

    p = subs.add_parser("dilog", help="wall-crossing series product report")
    _add_quiver_m(p)
    p.add_argument("--truncate", type=_positive_int, default=8,
                   help="series truncation order (default 8)")
    p.add_argument("--depth-cap", type=_positive_int, default=10,
                   help="green-sequence search bound (default 10)")
    p.set_defaults(fn=_cmd_dilog)

    p = subs.add_parser("verify", help="run the full acceptance battery")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except McfError as exc:
        sys.stderr.write(f"mcfans: {type(exc).__name__}: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"mcfans: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
