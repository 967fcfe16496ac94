"""End-to-end CLI runs in subprocesses: JSON payloads, files, exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from mcfans.cli import main

CLI = [sys.executable, "-m", "mcfans.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("MCF_NODE_CAP", None)
    env.pop("MCF_SAMPLES", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=env)


def run_json(*args, **kw):
    proc = run_cli(*args, **kw)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# --- enumerate ---

def test_enumerate():
    data = run_json("enumerate", "--quiver", "a2", "--m", "3")
    assert data["count"] == 22 and data["edge_count"] == 33
    assert len(data["graph"]["nodes"]) == 22
    assert data["graph"]["initial"] in {n["key"] for n in data["graph"]["nodes"]}


def test_logs_go_to_stderr_only():
    proc = run_cli("enumerate", "--quiver", "a2", "--m", "1")
    json.loads(proc.stdout)                  # stdout is pure JSON
    assert "enumerated" in proc.stderr


# --- mgs ---

def test_mgs():
    data = run_json("mgs", "--quiver", "a2tilde", "--m", "1",
                    "--depth-cap", "10")
    assert data["count"] == 5 and data["truncated"] is True
    lengths = sorted(len(s["mutations"]) for s in data["sequences"])
    assert lengths == [3, 4, 4, 5, 5]


def test_mgs_longest():
    data = run_json("mgs", "--quiver", "a3", "--m", "3", "--longest")
    assert data["longest"] == 18


def test_mgs_needs_depth_cap():
    proc = run_cli("mgs", "--quiver", "a2")
    assert proc.returncode == 2
    proc = run_cli("mgs", "--quiver", "a2", "--count")
    assert proc.returncode == 2


@pytest.mark.parametrize("quiver,m,cap,count,truncated", [
    ("a_n:<><", 1, 20, 179, False),
    ("a3", 2, 20, 342, False),
    ("a2tilde", 1, 10, 5, True),
])
def test_mgs_count(quiver, m, cap, count, truncated, capsys):
    from mcfans.enumeration import enumerate_mgs
    from mcfans.mutation import MutationContext
    from mcfans.seed import preset
    assert main(["mgs", "--quiver", quiver, "--m", str(m),
                 "--depth-cap", str(cap), "--count"]) == 0
    out = capsys.readouterr().out
    result = enumerate_mgs(MutationContext(preset(quiver), m), cap)
    assert out == json.dumps({"count": len(result), "m": m, "quiver": quiver,
                              "truncated": result.truncated},
                             indent=2) + "\n"
    assert (len(result), result.truncated) == (count, truncated)


def test_mgs_count_work_stops_with_the_graph():
    # a2 has 5 states, so a cap of a million must cost what a cap of 3 does
    args = ("mgs", "--quiver", "a2", "--m", "1", "--count", "--depth-cap")
    start = time.perf_counter()
    proc = run_cli(*args, "1000000")
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*args, "3").stdout
    assert seconds < 1.0


def test_mgs_count_excludes_longest(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mgs", "--quiver", "a3", "--depth-cap", "5", "--count",
              "--longest"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("mcfans") and "--count" in line


# --- fans ---

def test_fans_one_parity():
    data = run_json("fans", "--quiver", "a2", "--m", "3",
                    "--parity", "horizontal")
    assert "vertical" not in data
    comp = data["horizontal"]
    assert comp["count"] == 5
    assert [c["size"] for c in comp["components"]] == [5, 5, 4, 4, 4]
    algebra = comp["components"][0]["algebra"]
    assert algebra["parity"] == "horizontal"
    assert [f["slot"] for f in algebra["factors"]] == [0, 1]


def test_fans_both_parities():
    data = run_json("fans", "--quiver", "a2")
    assert data["horizontal"]["count"] >= 1
    assert data["vertical"]["count"] >= 1


# --- walls ---

def test_walls():
    data = run_json("walls", "--quiver", "a3")
    assert data["count"] == 6
    assert data["walls"][0] == {"normal": [0, 0, 1], "subdims": []}


# --- render ---

def test_render_stats():
    data = run_json("render", "--quiver", "a3", "--format", "stats")
    assert data["arc_group_count"] == 6 and data["black"] == 6


def test_render_svg(tmp_path):
    out = tmp_path / "walls.svg"
    proc = run_cli("render", "--quiver", "a3", "--out", str(out),
                   "--samples", "90")
    assert proc.returncode == 0
    flag_bytes = out.read_bytes()
    assert flag_bytes.startswith(b'<?xml')

    env_out = tmp_path / "env.svg"
    run_cli("render", "--quiver", "a3", "--out", str(env_out),
            env_extra={"MCF_SAMPLES": "90"})
    assert env_out.read_bytes() == flag_bytes  # env variable is honoured

    both_out = tmp_path / "both.svg"
    run_cli("render", "--quiver", "a3", "--out", str(both_out),
            "--samples", "90", env_extra={"MCF_SAMPLES": "180"})
    assert both_out.read_bytes() == flag_bytes  # flag beats env


def test_render_svg_needs_out():
    proc = run_cli("render", "--quiver", "a3")
    assert proc.returncode == 2


def test_render_pole(tmp_path):
    out = tmp_path / "pole.svg"
    proc = run_cli("render", "--quiver", "a3", "--out", str(out),
                   "--pole", "3/13,4/13,12/13", "--samples", "90")
    assert proc.returncode == 0 and out.exists()
    proc = run_cli("render", "--quiver", "a3", "--out", str(out),
                   "--pole", "1,2")
    assert proc.returncode == 2              # malformed pole


@pytest.mark.parametrize("target", ["missing/x.svg", "."],
                         ids=["missing-directory", "directory"])
def test_render_out_not_writable_exits_one(target, tmp_path):
    proc = run_cli("render", "--quiver", "a_n:<<", "--format", "svg",
                   "--samples", "90", "--out", str(tmp_path / target))
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("mcfans: ")
    assert "Traceback" not in proc.stderr


# --- dilog ---

def test_dilog():
    data = run_json("dilog", "--quiver", "a3", "--m", "1", "--truncate", "6")
    assert data["ok"] is True and data["mismatches"] == []
    assert data["count"] == 10
    assert data["series"]["truncation"] == 6
    assert data["series"]["terms"]


# --- verify ---

def test_verify():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11/11 checks passed" in proc.stdout
    assert proc.stdout.count("PASS") == 11


# --- exit codes and environment ---

def test_node_cap_failure_exits_one():
    proc = run_cli("enumerate", "--quiver", "a2tilde", "--node-cap", "5")
    assert proc.returncode == 1
    assert "NodeCapExceeded" in proc.stderr


def test_mgs_node_cap_failure_exits_one():
    proc = run_cli("mgs", "--quiver", "a2tilde", "--depth-cap", "50",
                   "--node-cap", "10")
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "NodeCapExceeded" in line
    proc = run_cli("mgs", "--quiver", "a2tilde", "--depth-cap", "50",
                   env_extra={"MCF_NODE_CAP": "10"})
    assert proc.returncode == 1 and "NodeCapExceeded" in proc.stderr


def test_root_budget_exits_one(capsys):
    # a45 has 1035 positive roots, past the table's cap of 1000
    assert main(["walls", "--quiver", "a_n:" + "<" * 44]) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and "more than 1000 positive roots" in line
    assert "not finite" not in line


def test_vertex_bound_exits_one():
    start = time.perf_counter()
    proc = run_cli("mgs", "--quiver", "a_n:" + "<" * 499, "--m", "1",
                   "--depth-cap", "1", "--count")
    seconds = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line == "mcfans: quiver has 500 vertices, more than the 64 supported"
    assert seconds < 1.0


def test_env_node_cap():
    proc = run_cli("enumerate", "--quiver", "a2", "--m", "3",
                   env_extra={"MCF_NODE_CAP": "5"})
    assert proc.returncode == 1
    proc = run_cli("enumerate", "--quiver", "a2", "--m", "3",
                   "--node-cap", "100", env_extra={"MCF_NODE_CAP": "5"})
    assert proc.returncode == 0              # explicit flag wins


def test_bad_env_value():
    proc = run_cli("enumerate", "--quiver", "a2",
                   env_extra={"MCF_NODE_CAP": "many"})
    assert proc.returncode == 2


@pytest.mark.parametrize("args,env,named", [
    (["render", "--quiver", "a3", "--format", "stats", "--samples", "0"],
     {}, "--samples"),
    (["render", "--quiver", "a3", "--format", "stats", "--samples", "-5"],
     {}, "--samples"),
    (["render", "--quiver", "a3", "--format", "stats"],
     {"MCF_SAMPLES": "0"}, "MCF_SAMPLES"),
    (["enumerate", "--quiver", "a2", "--node-cap", "-1"], {}, "--node-cap"),
    (["enumerate", "--quiver", "a2"], {"MCF_NODE_CAP": "0"}, "MCF_NODE_CAP"),
    (["mgs", "--quiver", "a2", "--depth-cap", "0"], {}, "--depth-cap"),
    (["dilog", "--quiver", "a2", "--truncate", "0"], {}, "--truncate"),
    (["dilog", "--quiver", "a2", "--depth-cap", "0"], {}, "--depth-cap"),
], ids=["samples-0", "samples-neg", "env-samples-0", "node-cap-neg",
        "env-node-cap-0", "mgs-depth-cap-0", "truncate-0",
        "dilog-depth-cap-0"])
def test_non_positive_numbers_are_usage_errors(args, env, named, monkeypatch,
                                               capsys):
    monkeypatch.delenv("MCF_NODE_CAP", raising=False)
    monkeypatch.delenv("MCF_SAMPLES", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("mcfans") and "error:" in line and named in line


def test_usage_errors():
    for args in (["polish", "--quiver", "a2"], ["enumerate"],
                 ["enumerate", "--quiver", "d4"], ["mgs", "--quiver", "a2"],
                 ["dilog", "--quiver", "a2", "--truncate", "0"],
                 ["render", "--quiver", "a3", "--samples", "0"],
                 ["render", "--quiver", "a3", "--pole", "0,0,0",
                  "--format", "stats"]):
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == "", args
        [line] = proc.stderr.splitlines()
        assert line.startswith("mcfans") and "error:" in line, args


def test_console_script_installed():
    import shutil
    exe = shutil.which("mcfans")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "walls", "--quiver", "a2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "mcfans", "walls",
                           "--quiver", "a2"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 3
