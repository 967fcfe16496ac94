"""Tests of the benchmark's own parts: oracles, input generator and tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import io
import json
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mcfans.cli  # noqa: E402
from tracer import DETERMINISTIC, LAYERS, TARGETS, VERIFY_CHECKS, Tracer, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, Command, OutputError, check_output, digest,  # noqa: E402
                       fuss_catalan, generate, green_paths, longest_length, orbit)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert mcfans.cli.main(argv) == 0
    return buf.getvalue().encode()


def test_closed_forms_on_known_values():
    assert (fuss_catalan(2, 3), fuss_catalan(3, 3)) == (22, 140)
    assert (longest_length(2, 3), longest_length(3, 3)) == (9, 18)


def test_green_paths_match_the_sequence_search():
    from mcfans import MutationContext, enumerate_mgs, preset
    for quiver, m, cap in (("a2", 3, 12), ("a3", 1, 8), ("a_n:<><", 1, 12)):
        found = len(enumerate_mgs(MutationContext(preset(quiver), m), cap))
        assert green_paths(quiver, m, cap) == found
    # a depth cap below the longest sequence drops the long ones
    assert green_paths("a2", 1, 2) == 1


def test_generator_is_seeded_and_keeps_green_sizes_fixed(tmp_path):
    for workload in WORKLOADS:
        same = [c.argv for c in generate(workload, 7, tmp_path)]
        assert same == [c.argv for c in generate(workload, 7, tmp_path)]
    listings = {generate("green", s, tmp_path)[0].quiver for s in range(40)}
    assert listings == {f"a_n:{o}" for o in orbit("<<><")}
    assert len({tuple(generate("graph", s, tmp_path)[0].argv) for s in range(10)}) > 1


def test_oracles_accept_real_output():
    cases = [
        (Command("enumerate", "enumerate", ["enumerate", "--quiver", "a2", "--m", "3"], 2, 3),
         {"states": 22}),
        (Command("longest", "longest", ["mgs", "--quiver", "a3", "--m", "3", "--longest"], 3, 3),
         {"longest": 18}),
        (Command("fans", "fans", ["fans", "--quiver", "a2", "--m", "3"], 2, 3), {"states": 22}),
        (Command("walls", "walls", ["walls", "--quiver", "a3"], 3), {"walls": 6}),
    ]
    for cmd, want in cases:
        counts = check_output(cmd, _cli(cmd.argv))
        assert want.items() <= counts.items()
    mgs = Command("mgs", "mgs", ["mgs", "--quiver", "a3", "--m", "1", "--depth-cap", "8"], 3, 1)
    assert check_output(mgs, _cli(mgs.argv), expected_paths=green_paths("a3", 1, 8))["sequences"] > 0


@pytest.mark.parametrize("corrupt", [
    lambda out: out[: len(out) // 2],                            # truncated
    lambda out: out.replace(b'"count": 22', b'"count": 23'),     # wrong count
    lambda out: b"",                                             # nothing printed
    lambda out: out.replace(b'"graph"', b'"grph"'),              # missing key
])
def test_corrupted_output_is_a_failure(corrupt):
    cmd = Command("enumerate", "enumerate", ["enumerate", "--quiver", "a2", "--m", "3"], 2, 3)
    out = _cli(cmd.argv)
    with pytest.raises(OutputError):
        check_output(cmd, corrupt(out))


def test_mgs_oracle_rejects_a_dropped_sequence_and_a_bad_crossing():
    cmd = Command("mgs", "mgs", ["mgs", "--quiver", "a2", "--m", "1", "--depth-cap", "8"], 2, 1)
    data = json.loads(_cli(cmd.argv))
    dropped = dict(data, sequences=data["sequences"][1:], count=data["count"] - 1)
    with pytest.raises(OutputError):
        check_output(cmd, json.dumps(dropped).encode(), expected_paths=2)
    data["sequences"][0]["crossings"][0]["dim"] = [2, 0]
    with pytest.raises(OutputError):
        check_output(cmd, json.dumps(data).encode(), expected_paths=2)


def test_verify_digest_ignores_only_the_seconds_column():
    cmd = Command("verify", "verify", ["verify"], None)
    one = b"PASS  small-cycle     0.01s  5 states\n11/11 checks passed\n"
    two = b"PASS  small-cycle    12.34s  5 states\n11/11 checks passed\n"
    assert digest(cmd, one) == digest(cmd, two)
    assert digest(cmd, one) != digest(cmd, one.replace(b"5 states", b"6 states"))
    with pytest.raises(OutputError):
        check_output(cmd, one.replace(b"11/11", b"10/11"))


def _mcfans_attributes():
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "mcfans" or name.startswith("mcfans."):
            for key, value in vars(mod).items():
                snapshot[name, key] = value
    coeff = sys.modules["mcfans.dilog"].Coeff
    snapshot.update((("Coeff", k), v) for k, v in vars(coeff).items())
    return snapshot


def test_tracer_restores_every_mcfans_attribute():
    before = _mcfans_attributes()
    with Tracer():
        during = _mcfans_attributes()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("mcfans.cli", "exchange_graph") in changed
        assert ("mcfans.enumeration", "canonical_key") in changed
        assert ("Coeff", "__add__") in changed
    after = _mcfans_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_is_transparent_and_counts_repeat():
    argv = ["enumerate", "--quiver", "a3", "--m", "3"]
    plain = _cli(argv)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        buf = io.StringIO()
        with tracer, redirect_stdout(buf):
            assert tracer.run(mcfans.cli.main, argv) == 0
        assert buf.getvalue().encode() == plain
        runs.append(layer_metrics([tracer.to_json()], [len(plain)]))
    assert all(runs[0][k] == runs[1][k] for k in DETERMINISTIC)
    assert runs[0]["enumeration.exchange_graph.nodes"] == 140
    assert runs[0]["enumeration.exchange_graph.edges"] == 315
    assert runs[0]["enumeration.canonical_key.calls"] > 0


def test_layer_table_matches_the_package_and_benchmark_json():
    from mcfans.verify import CRITERIA
    assert VERIFY_CHECKS == tuple(name for name, _fn in CRITERIA)
    for modname, names in TARGETS.items():
        mod = sys.modules[modname]
        for attr in names:
            owner, _, meth = attr.partition(".")
            assert callable(getattr(getattr(mod, owner), meth) if meth else getattr(mod, attr))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for (name, unit, better, _s, _m) in LAYERS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert baseline["layer_map"] == {name: moves for (name, _u, _b, _s, moves) in LAYERS}


def test_exit_code_traceback_and_changed_output_are_failures():
    import run
    cmd = Command("longest", "longest", ["mgs", "--quiver", "a2", "--m", "3", "--longest"], 2, 3)
    out = _cli(cmd.argv)
    error, counts, ident = run.judge(cmd, run.Child(0, 1.0, 1.0, 20.0, out, b"", None), None, None)
    assert error is None and counts["longest"] == 9
    assert run.judge(cmd, run.Child(0, 1.0, 1.0, 20.0, out, b"", None), None, ident)[0] is None
    crashed = b"Traceback (most recent call last):\n  ...\nRecursionError\n"
    for child in (run.Child(1, 1.0, 1.0, 20.0, out, b"mcfans: failed\n", None),
                  run.Child(0, 1.0, 1.0, 20.0, out, crashed, None)):
        assert run.judge(cmd, child, None, None)[0]
    other = out.replace(b"9", b"9 ")
    assert run.judge(cmd, run.Child(0, 1.0, 1.0, 20.0, other, b"", None), None, ident)[0]


def test_a_render_that_writes_no_svg_fails_after_one_that_did(tmp_path):
    import run
    svg = tmp_path / "render.svg"
    argv = ["render", "--quiver", "a3", "--format", "svg", "--samples", "200", "--out", str(svg)]
    cmd = Command("render", "render_svg", argv, 3, out=svg)
    wrote = run.spawn(run.mcfans(cmd), tmp_path, cmd.out)
    assert run.judge(cmd, wrote, None, None)[0] is None
    silent = run.spawn([sys.executable, "-c", "pass"], tmp_path, cmd.out)
    assert silent.rc == 0 and silent.out_file is None
    assert run.judge(cmd, silent, None, None)[0]


def test_end_to_end_scales_timings_by_the_reference_and_keeps_the_measured_ones():
    import run
    cmds = generate("green", 1, Path("work"))

    def child(wall, scale):
        c = run.Child(0, wall, wall, 100.0, b"", b"", None)
        c.scale = scale
        return c

    passes = [[child(8.0, 0.5), child(2.0, 0.5)], [child(12.0, 1.0), child(3.0, 1.0)]]
    metrics, measured, per_command = run.end_to_end(cmds, passes, [(0.2, 0.5), (0.1, 1.0)])
    assert metrics["wall_s"] == statistics.median([5.0, 15.0])
    assert measured["wall_s"] == statistics.median([10.0, 15.0])
    assert per_command == {"mgs_s": 8.0, "dilog_s": 2.0}
    assert (metrics["setup_s"], measured["setup_s"]) == (0.1, statistics.median([0.2, 0.1]))
    assert metrics["peak_rss_mb"] == 100.0
