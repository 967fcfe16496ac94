"""Per-layer tracing of mcfans from outside the package.

The tracer wraps a fixed set of public functions by rebinding each name in
every `mcfans` module namespace that holds it, and wraps `Coeff.__add__` and
`Coeff.__mul__` on the class, so a call is seen whichever import path it
takes. For each function it aggregates calls, total time and self time,
keyed by the traced function that called it; the command itself is kept as
one whole span. Everything stays in memory and is written out once, when the
command ends. Uninstalling puts every original object back.

Run as a script to trace one CLI command in a fresh process:

    PYTHONPATH=src python3 bench/tracer.py TRACE.json -- enumerate --quiver a2 --m 3

stdout carries the command's own output, unchanged; the trace goes to
TRACE.json. `layer_metrics` turns the traces of one workload pass into the
per-layer metrics listed in LAYERS.
"""

import functools
import json
import sys
import time
from collections import Counter

ROOT_SPAN = "cli"

# module -> traced names; "Class.method" wraps a method on the class
TARGETS = {
    "mcfans.enumeration": ("canonical_key", "exchange_graph", "enumerate_mgs",
                           "longest_mgs", "fan_components", "graph_to_json",
                           "mgs_to_json"),
    "mcfans.mutation": ("mu_plus", "mu_minus"),
    "mcfans.intmat": ("mat_mul", "nullspace"),
    "mcfans.dilog": ("qseries_mul", "dt_invariant_check", "Coeff.__add__",
                     "Coeff.__mul__"),
    "mcfans.fans": ("configuration_of_state", "horizontal_algebra",
                    "vertical_algebra"),
    "mcfans.finrep": ("span_of", "hom_space", "indecomposables",
                      "submodule_dims", "wall_of"),
    "mcfans.render": ("project_wall", "build_scene", "render_picture"),
    "mcfans.verify": ("run_verification",),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_builds(counts, args, kwargs):
    # a build is a cache miss, seen from outside as an absent table key
    quiver = _arg(args, kwargs, 0, "q")
    if quiver.key() not in sys.modules["mcfans.finrep"]._TABLE_CACHE:
        counts["finrep.indecomposables.builds"] += 1


def _count_samples(counts, args, kwargs):
    default = sys.modules["mcfans.render"].DEFAULT_SAMPLES
    counts["render.samples_tested"] += _arg(args, kwargs, 2, "samples", default)


def _count_term_pairs(counts, args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counts["dilog.term_pairs"] += len(a.terms) * len(b.terms)


def _count_graph(counts, graph):
    counts["enumeration.exchange_graph.nodes"] += len(graph)
    counts["enumeration.exchange_graph.edges"] += len(graph.edges)


def _count_records(counts, result):
    counts["enumeration.enumerate_mgs.records"] += len(result)


BEFORE = {
    "finrep.indecomposables": _count_builds,
    "render.project_wall": _count_samples,
    "dilog.qseries_mul": _count_term_pairs,
}
AFTER = {
    "enumeration.exchange_graph": _count_graph,
    "enumeration.enumerate_mgs": _count_records,
}


class Tracer:
    """Wraps the TARGETS while installed (use as a context manager)."""

    def __init__(self):
        self.spans = {}             # (parent, name) -> [calls, total_s, self_s]
        self.counts = Counter()     # work counts taken from arguments/results
        self.raised = Counter()     # "<span>.<ExceptionType>" -> times raised
        self.verify = {}            # check name -> seconds, from its report rows
        self.command = None
        self._stack = [[ROOT_SPAN, 0.0]]
        self._saved = []

    # --- installation -----------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        import mcfans  # noqa: F401 - the package imports every module
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "mcfans" or name.startswith("mcfans.")]
        for modname, names in TARGETS.items():
            mod = sys.modules[modname]
            layer = modname.split(".")[1]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    span = f"{layer}.{cls_name}.{meth.strip('_')}"
                    self._rebind(cls, meth, orig, self._wrap(span, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(f"{layer}.{attr}", orig)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._rebind(holder, key, orig, wrapped)
        return self

    def _rebind(self, owner, key, orig, wrapped):
        self._saved.append((owner, key, orig))
        setattr(owner, key, wrapped)

    def uninstall(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        stack, spans, counts, raised = self._stack, self.spans, self.counts, self.raised
        before, after = BEFORE.get(name), AFTER.get(name)
        clock = time.perf_counter
        if name == "verify.run_verification":
            after = self._record_verify

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((parent[0], name))
                if rec is None:
                    rec = spans[parent[0], name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if after is not None:
                after(counts, result)
            return result

        return traced

    def _record_verify(self, _counts, result):
        rows, _all_ok = result
        for (check, _ok, seconds, _detail) in rows:
            self.verify[check] = self.verify.get(check, 0.0) + seconds

    # --- running a command ------------------------------------------------

    def run(self, main, argv):
        """Run main(argv) as the root span; returns its exit code."""
        root = self._stack[0]
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        self.command = {"argv": list(argv),
                        "seconds": time.perf_counter() - start,
                        "child_seconds": root[1]}
        return rc

    def to_json(self):
        return {"command": self.command,
                "spans": [[parent, name, *rec]
                          for (parent, name), rec in sorted(self.spans.items())],
                "counts": dict(self.counts),
                "raised": dict(self.raised),
                "verify": self.verify}


# --- per-layer metrics -------------------------------------------------------

VERIFY_CHECKS = ("small-cycle", "state-counts", "worked-mutations",
                 "longest-sequences", "affine-sequences", "graded-duality",
                 "torsion-classes", "fan-partitions", "hv-invariance",
                 "series-identities", "structural-properties")

_CANON = "enumerate_s, fans_s, longest_s on graph; no change on green or geometry"
_GRAPH = "enumerate_s, longest_s, fans_s on graph"
_MGS = "mgs_s, dilog_s on green"
_CLI = "mgs_s and peak_rss_mb on green; enumerate_s on graph"
_DILOG = "dilog_s on green"
_FANS = "fans_s, verify_s on graph"
_WALLS = "walls_s, render_s on geometry"
_RENDER = "render_s on geometry; a little of verify_s on graph"

# (metric, unit, better, source, the end-to-end metric it should move)
# source: calls:/self:/total:<span>, count:<key>, raised:<span.Exception>,
# verify:<check>, or one of the derived ratios named in layer_metrics.
LAYERS = (
    ("enumeration.canonical_key.calls", "count", "lower", "calls:enumeration.canonical_key", _CANON),
    ("enumeration.canonical_key.self_s", "s", "lower", "self:enumeration.canonical_key", _CANON),
    ("enumeration.dedup_ratio", "ratio", "higher", "dedup_ratio", _CANON),
    ("enumeration.exchange_graph.s", "s", "lower", "total:enumeration.exchange_graph", _GRAPH),
    ("enumeration.exchange_graph.nodes", "count", "lower", "count:enumeration.exchange_graph.nodes", _GRAPH),
    ("enumeration.exchange_graph.edges", "count", "lower", "count:enumeration.exchange_graph.edges", _GRAPH),
    ("enumeration.longest_mgs.s", "s", "lower", "total:enumeration.longest_mgs", "longest_s on graph"),
    ("enumeration.fan_components.s", "s", "lower", "total:enumeration.fan_components", "fans_s on graph"),
    ("mutation.mu_minus.calls", "count", "lower", "calls:mutation.mu_minus", "enumerate_s on graph"),
    ("mutation.mu_minus.self_s", "s", "lower", "self:mutation.mu_minus", "enumerate_s on graph"),
    ("mutation.mu_minus.failed", "count", "lower", "raised:mutation.mu_minus.NotInvertibleHere", "enumerate_s on graph"),
    ("mutation.mu_plus.calls", "count", "lower", "calls:mutation.mu_plus", "mgs_s on green; enumerate_s on graph"),
    ("mutation.mu_plus.self_s", "s", "lower", "self:mutation.mu_plus", "mgs_s on green; enumerate_s on graph"),
    ("intmat.mat_mul.calls", "count", "lower", "calls:intmat.mat_mul", "mgs_s on green; enumerate_s on graph"),
    ("intmat.mat_mul.self_s", "s", "lower", "self:intmat.mat_mul", "mgs_s on green; enumerate_s on graph"),
    ("enumeration.enumerate_mgs.s", "s", "lower", "total:enumeration.enumerate_mgs", _MGS),
    ("enumeration.enumerate_mgs.records", "count", "lower", "count:enumeration.enumerate_mgs.records", _MGS),
    ("mutation.mu_plus_per_record", "ratio", "lower", "mu_plus_per_record", _MGS),
    ("cli.self_s", "s", "lower", "cli_self", _CLI),
    ("cli.stdout_bytes", "bytes", "lower", "stdout_bytes", _CLI),
    ("enumeration.mgs_to_json.s", "s", "lower", "total:enumeration.mgs_to_json", _CLI),
    ("enumeration.graph_to_json.s", "s", "lower", "total:enumeration.graph_to_json", _CLI),
    ("dilog.qseries_mul.calls", "count", "lower", "calls:dilog.qseries_mul", _DILOG),
    ("dilog.qseries_mul.self_s", "s", "lower", "self:dilog.qseries_mul", _DILOG),
    ("dilog.term_pairs", "count", "lower", "count:dilog.term_pairs", _DILOG),
    ("dilog.Coeff.add.calls", "count", "lower", "calls:dilog.Coeff.add", _DILOG),
    ("dilog.Coeff.add.self_s", "s", "lower", "self:dilog.Coeff.add", _DILOG),
    ("dilog.Coeff.mul.calls", "count", "lower", "calls:dilog.Coeff.mul", _DILOG),
    ("dilog.Coeff.mul.self_s", "s", "lower", "self:dilog.Coeff.mul", _DILOG),
    ("dilog.dt_invariant_check.s", "s", "lower", "total:dilog.dt_invariant_check", _DILOG),
    ("fans.configuration_of_state.calls", "count", "lower", "calls:fans.configuration_of_state", _FANS),
    ("fans.configuration_of_state.self_s", "s", "lower", "self:fans.configuration_of_state", _FANS),
    ("fans.horizontal_algebra.self_s", "s", "lower", "self:fans.horizontal_algebra", _FANS),
    ("fans.vertical_algebra.self_s", "s", "lower", "self:fans.vertical_algebra", _FANS),
    ("finrep.span_of.calls", "count", "lower", "calls:finrep.span_of", _FANS),
    ("finrep.span_of.self_s", "s", "lower", "self:finrep.span_of", _FANS),
    ("finrep.hom_space.calls", "count", "lower", "calls:finrep.hom_space", _FANS),
    ("finrep.hom_space.self_s", "s", "lower", "self:finrep.hom_space", _FANS),
    ("intmat.nullspace.self_s", "s", "lower", "self:intmat.nullspace", _FANS),
    ("finrep.indecomposables.calls", "count", "lower", "calls:finrep.indecomposables", _WALLS),
    ("finrep.indecomposables.builds", "count", "lower", "count:finrep.indecomposables.builds", _WALLS),
    ("finrep.submodule_dims.calls", "count", "lower", "calls:finrep.submodule_dims", _WALLS),
    ("finrep.submodule_dims.self_s", "s", "lower", "self:finrep.submodule_dims", _WALLS),
    ("finrep.wall_of.calls", "count", "lower", "calls:finrep.wall_of", _WALLS),
    ("render.project_wall.calls", "count", "lower", "calls:render.project_wall", _RENDER),
    ("render.project_wall.self_s", "s", "lower", "self:render.project_wall", _RENDER),
    ("render.samples_tested", "count", "lower", "count:render.samples_tested", _RENDER),
    ("render.build_scene.s", "s", "lower", "total:render.build_scene", _RENDER),
    ("render.render_picture.s", "s", "lower", "total:render.render_picture", _RENDER),
) + tuple((f"verify.{check}.s", "s", "lower", f"verify:{check}", "verify_s on graph")
          for check in VERIFY_CHECKS)

# metrics that count work rather than time it; they must repeat exactly
DETERMINISTIC = tuple(name for (name, unit, _b, _s, _m) in LAYERS if unit != "s")


def layer_metrics(traces, stdout_bytes):
    """Per-layer metrics of one workload pass.

    traces are the Tracer.to_json() dicts of the pass's commands and
    stdout_bytes the sizes of their outputs.
    """
    calls, total, self_s = Counter(), Counter(), Counter()
    counts, raised, verify = Counter(), Counter(), Counter()
    mu_plus_in_search = 0
    cli_self = 0.0
    for trace in traces:
        for parent, name, n, tot, slf in trace["spans"]:
            calls[name] += n
            total[name] += tot
            self_s[name] += slf
            if (name, parent) == ("mutation.mu_plus", "enumeration.enumerate_mgs"):
                mu_plus_in_search += n
        counts.update(trace["counts"])
        raised.update(trace["raised"])
        verify.update(trace["verify"])
        cli_self += trace["command"]["seconds"] - trace["command"]["child_seconds"]
    records = counts["enumeration.enumerate_mgs.records"]
    derived = {
        "dedup_ratio": (counts["enumeration.exchange_graph.nodes"]
                        / calls["enumeration.canonical_key"]
                        if calls["enumeration.canonical_key"] else 0.0),
        "mu_plus_per_record": mu_plus_in_search / records if records else 0.0,
        "cli_self": cli_self,
        "stdout_bytes": sum(stdout_bytes),
    }
    sources = {"calls": calls, "self": self_s, "total": total,
               "count": counts, "raised": raised, "verify": verify}
    out = {}
    for (metric, _unit, _better, source, _moves) in LAYERS:
        kind, _, key = source.partition(":")
        out[metric] = sources[kind][key] if key else derived[kind]
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py TRACE.json -- <mcfans arguments>\n")
        return 2
    trace_path, cli_argv = argv[0], argv[2:]
    import mcfans.cli
    tracer = Tracer()
    with tracer:
        rc = tracer.run(mcfans.cli.main, cli_argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
