"""End-to-end benchmark of the mcfans command line.

    python3 bench/run.py --workload graph --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, default seed

Run from the root of a checkout: the program is imported from ./src. A
workload is a list of `mcfans` commands generated from the seed (see
workloads.py). Each command runs in its own fresh process; one parent starts
them one at a time, with no thread or process pool, and takes wall time from
spawn to exit and CPU time and peak RSS from os.wait4. Passes over the list
repeat until --seconds of command time is measured (by default run_seconds
of BENCHMARK.json); timings are medians over passes. Each command's timings
are scaled by the host's speed at that moment, measured by a fixed reference
program run just before it (see REFERENCE_PROGRAM); the measured timings are
reported too. Every output is checked by an independent oracle after its
process has exited, outside the timed window.

--trace 1 runs the list once untraced and twice more under bench/tracer.py,
and reports per-layer metrics instead of end-to-end ones. It fails the run
if a traced command's output differs from the untraced one or a work count
differs between the two traced passes.

The report lists each generated argv with the counts its oracle saw, the
end-to-end metrics wall_s, cpu_s, peak_rss_mb and setup_s, the per-command
medians (enumerate_s, longest_s, fans_s, verify_s, mgs_s, dilog_s, walls_s,
render_s, each on the workload that runs it) and error_rate, failed commands
over attempted ones. The last two lines of stdout are JSON. The first,
{"report": ...}, holds for each workload the per-command medians, the
measured timings, the median reference scale and error_rate, named like
green.mgs_s, green.measured_wall_s and green.error_rate. The last has the keys
correct, attempted, failed and metrics; its metrics are the end_to_end ones
of BENCHMARK.json, which every workload has (or, under --trace 1, its
per_layer ones).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DETERMINISTIC, LAYERS, layer_metrics
from workloads import WORKLOADS, OutputError, check_output, digest, generate, green_paths

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

DEFAULT_SEED = 1
SETUP_SAMPLES_PER_COMMAND = 2
TRACED_PASSES = 2
CHILD_CPU_LIMIT_S = 150     # a child past this much CPU time is killed and fails
SETUP_ARGV = [sys.executable, "-c", "import sys, mcfans.cli as cli; cli.build_parser(); "
              "sys.stdout.write(cli.__file__)"]

# The host's speed drifts by up to 1.6x over seconds to minutes, on wall and
# CPU time alike, so raw timings of two runs of the same code can differ by
# more than a regression bound. Right before each command the parent times
# this fixed program, which does pure-Python work like the package's hot paths
# (permuted tuples, JSON keys, Fraction sums) and imports nothing of mcfans,
# and scales the command's timings by REFERENCE_S over that time. The
# end-to-end timings are thus seconds on a host that runs the reference
# program in REFERENCE_S seconds; the measured ones are reported beside them.
REFERENCE_PROGRAM = """\
import json
from fractions import Fraction
from itertools import permutations
acc, seen = Fraction(0), {}
for i in range(1, 200):
    rows = tuple(tuple((i * (j + 1) + k) % 7 - 3 for k in range(4)) for j in range(4))
    key = min(json.dumps([[r[p] for p in perm] for r in rows]) for perm in permutations(range(4)))
    seen[key] = seen.get(key, 0) + 1
    acc += Fraction(i % 97, i % 89 + 1)
"""
REFERENCE_ARGV = [sys.executable, "-c", REFERENCE_PROGRAM]
REFERENCE_SAMPLES_PER_COMMAND = 2
REFERENCE_S = 0.1

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Child:
    """Outcome of one child process."""

    def __init__(self, rc, wall, cpu, rss_mb, stdout, stderr, out_file):
        self.rc = rc
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.out_file = out_file
        self.scale = 1.0        # REFERENCE_S over the reference time taken before it


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(argv, workdir, out=None):
    """Run argv to completion; stdout and stderr go to files read afterwards."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stdout_path, stderr_path = workdir / "stdout", workdir / "stderr"
    if out:
        (ROOT / out).unlink(missing_ok=True)    # judge this child's file, not an earlier one
    with open(stdout_path, "wb") as fout, open(stderr_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=env, cwd=ROOT,
                                preexec_fn=_limit_cpu)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out_file = (ROOT / out).read_bytes() if out and (ROOT / out).exists() else None
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, stdout_path.read_bytes(),
                 stderr_path.read_bytes(), out_file)


def mcfans(cmd):
    return [sys.executable, "-m", "mcfans.cli", *cmd.argv]


class Tally:
    """Commands attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, label, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {error}")


def child_error(child):
    if child.rc != 0:
        tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {child.rc} {tail}"
    if b"Traceback (most recent call last)" in child.stderr:
        return "traceback on stderr"
    return None


def judge(cmd, child, expected, first_digest):
    """Oracle verdict on one command's output: (error or None, counts, digest)."""
    error = child_error(child)
    counts, ident = {}, None
    if error is None:
        try:
            counts = check_output(cmd, child.stdout, child.out_file, expected)
        except OutputError as exc:
            error = str(exc)
        ident = digest(cmd, child.stdout, child.out_file)
        if error is None and first_digest not in (None, ident):
            error = "output differs from the first pass"
    return error, counts, ident


def setup_times(workdir, tally):
    """setup_s samples: a fresh process imports mcfans.cli and builds its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_COMMAND):
        child = spawn(SETUP_ARGV, workdir)
        error = child_error(child)
        loaded = Path(child.stdout.decode("utf-8", "replace") or ".").resolve()
        if error is None and SRC.resolve() not in loaded.parents:
            error = f"imported mcfans from {loaded}, not from {SRC}"
        tally.record("setup", error)
        samples.append(child.wall)
    return samples


def reference_scale(workdir, tally):
    """REFERENCE_S over the mean time of the reference program, run now."""
    walls = []
    for _ in range(REFERENCE_SAMPLES_PER_COMMAND):
        child = spawn(REFERENCE_ARGV, workdir)
        tally.record("reference", child_error(child))
        walls.append(child.wall)
    return REFERENCE_S / statistics.fmean(walls)


def expectations(cmds):
    """Green-path counts for the mgs and dilog commands, once per input."""
    return {i: green_paths(cmd.quiver, cmd.m, cmd.depth_cap)
            for i, cmd in enumerate(cmds) if cmd.kind in ("mgs", "dilog")}


def timed(cmds, expected, seconds, workdir, tally):
    """Passes over the command list until `seconds` of command time is measured.

    Before every command the reference program and the set-up process run,
    so that they see the host at the same times as the command does. Returns
    the passes (a Child per command, with its scale), the output counts and
    the set-up samples as (seconds, scale) pairs.
    """
    passes, counts, digests, setup = [], [{} for _ in cmds], [None] * len(cmds), []
    spawn(SETUP_ARGV, workdir)                   # warm-up: writes bytecode caches
    measured = 0.0
    while not passes or measured < seconds:
        children = []
        for i, cmd in enumerate(cmds):
            scale = reference_scale(workdir, tally)
            setup += [(t, scale) for t in setup_times(workdir, tally)]
            child = spawn(mcfans(cmd), workdir, cmd.out)
            child.scale = scale
            error, counts[i], ident = judge(cmd, child, expected.get(i), digests[i])
            digests[i] = digests[i] or ident
            tally.record(" ".join(cmd.argv), error)
            children.append(child)
            child.stdout = child.out_file = None     # large listings: drop early
        passes.append(children)
        measured += sum(c.wall for c in children)
    return passes, counts, setup


def end_to_end(cmds, passes, setup):
    """Medians over passes: the end-to-end metrics with scaled timings, the
    measured (unscaled) timings, and the scaled per-command medians."""
    def timings(scaled):
        k = (lambda c: c.scale) if scaled else (lambda c: 1.0)
        return {"wall_s": statistics.median(sum(c.wall * k(c) for c in p) for p in passes),
                "cpu_s": statistics.median(sum(c.cpu * k(c) for c in p) for p in passes),
                "setup_s": statistics.median(t * (s if scaled else 1.0) for t, s in setup)}

    metrics = timings(True)
    metrics["peak_rss_mb"] = statistics.median(max(c.rss_mb for c in p) for p in passes)
    per_command = {}
    for name in dict.fromkeys(cmd.metric for cmd in cmds):
        idx = [i for i, cmd in enumerate(cmds) if cmd.metric == name]
        per_command[f"{name}_s"] = statistics.median(sum(p[i].wall * p[i].scale for i in idx)
                                                     for p in passes)
    return metrics, timings(False), per_command


def traced(cmds, expected, workdir, tally):
    """One untraced pass, then TRACED_PASSES traced ones.

    Returns the per-layer metrics, the untraced pass's output counts and a
    line stating the tracing overhead.
    """
    reference, counts = [], []
    for i, cmd in enumerate(cmds):
        child = spawn(mcfans(cmd), workdir, cmd.out)
        error, cnt, ident = judge(cmd, child, expected.get(i), None)
        tally.record(" ".join(cmd.argv), error)
        reference.append((child.wall, ident))
        counts.append(cnt)
    untraced_wall = sum(wall for wall, _ in reference)
    runs, walls = [], []
    for rep in range(TRACED_PASSES):
        traces, sizes, wall = [], [], 0.0
        for i, cmd in enumerate(cmds):
            trace_path = workdir / f"trace-{rep}-{i}.json"
            child = spawn([sys.executable, str(TRACER), str(trace_path), "--", *cmd.argv],
                          workdir, cmd.out)
            error = child_error(child)
            if error is None and digest(cmd, child.stdout, child.out_file) != reference[i][1]:
                error = "output under tracing differs from the untraced run"
            tally.record("traced " + " ".join(cmd.argv), error)
            if trace_path.exists():
                traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
            sizes.append(len(child.stdout))
            wall += child.wall
        runs.append(layer_metrics(traces, sizes))
        walls.append(wall)
    for name in DETERMINISTIC:
        values = [run[name] for run in runs]
        if len(set(values)) != 1:
            tally.record(f"repeat {name}", f"work count changed between traced passes: {values}")
    metrics = {name: statistics.fmean(run[name] for run in runs) if unit == "s" else runs[0][name]
               for (name, unit, *_rest) in LAYERS}
    note = (f"tracing overhead {' '.join(f'{w / untraced_wall:.3f}' for w in walls)}  "
            f"(traced wall {' '.join(f'{w:.2f}' for w in walls)} s over untraced "
            f"{untraced_wall:.2f} s)")
    return metrics, counts, note


def run_workload(workload, seed, seconds, trace):
    """Run one workload; prints its report and returns (tally, metrics, report).

    report holds the figures of the JSON report line: the per-command medians,
    the measured timings, the median reference scale and error_rate.
    """
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        cmds = generate(workload, seed, workdir.relative_to(ROOT))
        expected = expectations(cmds)
        print(f"workload {workload}  seed {seed}  trace {trace}  nproc {os.cpu_count()}  "
              f"python {platform.python_version()}  machine {platform.machine()}")
        report = {}
        if trace:
            metrics, counts, note = traced(cmds, expected, workdir, tally)
            lines = [note] + [f"{name:<38} {metrics[name]:>14.6g} {unit:<5}  -> {moves}"
                              for (name, unit, _better, _source, moves) in LAYERS]
        else:
            passes, counts, setup = timed(cmds, expected, seconds, workdir, tally)
            metrics, measured, per_command = end_to_end(cmds, passes, setup)
            scales = [c.scale for p in passes for c in p]
            lines = [f"passes {len(passes)}  setup samples {len(setup)}  reference scale "
                     f"median {statistics.median(scales):.3f} range {min(scales):.3f}-"
                     f"{max(scales):.3f}"]
            lines += [f"{name:<12} {metrics[name]:>10.4f} {unit}"
                      + (f"  (measured {measured[name]:.4f} {unit})" if name in measured else "")
                      for name, unit in END_TO_END]
            lines += [f"{name:<12} {value:>10.4f} s" for name, value in per_command.items()]
            report = {name: (value, "s") for name, value in per_command.items()}
            report.update((f"measured_{k}", (v, "s")) for k, v in measured.items())
            report["reference_scale"] = (statistics.median(scales), "ratio")
        for cmd, cnt in zip(cmds, counts):
            shown = " ".join(f"{k}={v}" for k, v in cnt.items())
            print(f"  argv  mcfans {' '.join(cmd.argv)}  [{shown}]")
        for line in lines:
            print(f"  {line}")
        error_rate = tally.failed / tally.attempted
        report["error_rate"] = (error_rate, "ratio")
        print(f"  {'error_rate':<12} {error_rate:>10.4f} ratio  "
              f"({tally.failed} of {tally.attempted} commands failed)")
        for error in tally.errors:
            print(f"  FAILED {error}")
        return tally, metrics, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="command time to measure per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind like an interrupt, so spawn() kills its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mcfans" / "cli.py").is_file():
        sys.stderr.write(f"bench: no mcfans sources at {SRC / 'mcfans'}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    units = dict(END_TO_END)
    units.update((name, unit) for (name, unit, *_rest) in LAYERS)
    metrics, report = {}, {}
    for workload, (_tally, values, figures) in results.items():
        prefix = "" if len(names) == 1 else f"{workload}."
        metrics.update((prefix + k, {"value": v, "unit": units[k]}) for k, v in values.items())
        report.update((f"{workload}.{k}", {"value": v, "unit": unit})
                      for k, (v, unit) in figures.items())
    attempted = sum(t.attempted for t, _, _ in results.values())
    failed = sum(t.failed for t, _, _ in results.values())
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
