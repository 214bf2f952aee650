import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgesim
from edgesim import cli
from edgesim.cli import main

SUMMARY_KEYS = {
    "policy",
    "alpha",
    "beta",
    "seed",
    "total_cost",
    "normalized_cost",
    "cold_start_frequency",
    "rejections",
    "intervals",
}


@pytest.fixture
def nodes_csv(tmp_path):
    path = tmp_path / "nodes.csv"
    rows = ["id,capacity_mb,cpu_ghz,x,y"]
    for i in range(4):
        rows.append(f"{i},2500,{1.0 + 0.5 * (i % 2)},{i * 5},0")
    path.write_text("\n".join(rows) + "\n")
    return path


def _run_flags(nodes_csv, out, extra=()):
    return [
        "run",
        "--policy",
        "pcache",
        "--alpha",
        "0.01",
        "--zipf-beta",
        "1.0",
        "--nodes",
        str(nodes_csv),
        "--mean-rate",
        "2.0",
        "--horizon",
        "25",
        "--seed",
        "7",
        "--check",
        "full",
        "--output",
        str(out),
        *extra,
    ]


def test_run_writes_summary_and_ledger(nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_flags(nodes_csv, out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert SUMMARY_KEYS <= set(summary)
    assert summary["policy"] == "pcache"
    ledger_lines = (out / "ledger.csv").read_text().strip().splitlines()
    assert ledger_lines[0] == "interval,switching,communication,running,total,cold_starts,requests"
    assert len(ledger_lines) == 26
    printed = capsys.readouterr().out.strip()
    assert json.loads(printed) == summary


def test_run_audit_file(nodes_csv, tmp_path):
    out = tmp_path / "out"
    assert main(_run_flags(nodes_csv, out, extra=("--audit", "--global-stats", "--zipf-global"))) == 0
    lines = (out / "audit.csv").read_text().strip().splitlines()
    assert lines[0] == "interval,origin,ftype,action,serving_node,marginal_cost,bound"
    actions = {line.split(",")[3] for line in lines[1:]}
    assert actions <= {"hit", "offload", "create", "reject"}


def test_run_missing_nodes_file(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "absent.csv"
    code = main(_run_flags(missing, out))
    assert code == 2
    err = capsys.readouterr().err
    assert "absent.csv" in err
    assert not out.exists() or not list(out.iterdir())


def test_run_bogus_policy(nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    flags[flags.index("pcache")] = "bogus"
    assert main(flags) == 2
    err = capsys.readouterr().err
    for name in ("pcache", "lru", "fc", "nocache"):
        assert name in err


def test_run_requires_one_workload(nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    flags.remove("--zipf-beta")
    flags.remove("1.0")
    assert main(flags) == 2


def test_run_with_trace(nodes_csv, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("interval,node,ftype,count\n1,0,0,3\n2,1,2,1\n2,3,3,2\n")
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    i = flags.index("--zipf-beta")
    del flags[i : i + 2]
    flags += ["--trace", str(trace)]
    assert main(flags) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["beta"] is None
    assert summary["requests"] == 6
    assert summary["truncated"] is True


def _sweep_flags(nodes_csv, out, extra=()):
    return [
        "sweep",
        "--alphas",
        "0.005,0.01",
        "--betas",
        "0.5,1.0",
        "--policies",
        "pcache,lru",
        "--nodes",
        str(nodes_csv),
        "--mean-rate",
        "2.0",
        "--horizon",
        "10",
        "--seed",
        "3",
        "--output",
        str(out),
        *extra,
    ]


def test_sweep_outputs(nodes_csv, tmp_path):
    out = tmp_path / "sweep"
    assert main(_sweep_flags(nodes_csv, out)) == 0
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 8  # 2 alphas x 2 betas x 2 policies
    records = [json.loads(line) for line in lines]
    assert all(SUMMARY_KEYS <= set(r) for r in records)
    cost_csv = (out / "avg_cost_by_alpha.csv").read_text().splitlines()
    assert cost_csv[0] == "beta,alpha,policy,normalized_cost"
    assert len(cost_csv) == 1 + 8
    cold_csv = (out / "cold_start_by_beta.csv").read_text().splitlines()
    assert cold_csv[0] == "beta,policy,cold_start_frequency"
    assert len(cold_csv) == 1 + 4
    assert all(float(row.rsplit(",", 1)[1]) > 0 for row in cost_csv[1:] + cold_csv[1:])  # plain numbers
    assert not (out / "errors.jsonl").exists()


def test_sweep_repeatable_byte_identical(nodes_csv, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(_sweep_flags(nodes_csv, out_a)) == 0
    assert main(_sweep_flags(nodes_csv, out_b)) == 0
    a = sorted((out_a / "results.jsonl").read_text().splitlines())
    b = sorted((out_b / "results.jsonl").read_text().splitlines())
    assert a == b


def test_sweep_empty_grid(nodes_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    flags = _sweep_flags(nodes_csv, out)
    flags[flags.index("0.005,0.01")] = ","
    assert main(flags) == 2


def test_sweep_jobs_parallel_matches_serial(nodes_csv, tmp_path):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    assert main(_sweep_flags(nodes_csv, out_a)) == 0
    assert main(_sweep_flags(nodes_csv, out_b, extra=("--jobs", "2"))) == 0
    a = (out_a / "results.jsonl").read_text()
    b = (out_b / "results.jsonl").read_text()
    assert a == b


def _instance_obj():
    return {
        "nodes": [{"id": 0, "capacity_mb": 400.0, "cpu_ghz": 1.0}],
        "comm_cost": [[0.0]],
        "types": [{"id": 0, "mem_mb": 55.0}],
        "alpha": 0.01,
        "switch_coeff": 1.0,
        "run_coeff": 1.0,
        "horizon": 2,
        "requests": [[1, 0, 0, 1], [2, 0, 0, 1]],
    }


def test_oracle_trivial_instance(tmp_path, capsys):
    obj = _instance_obj()
    obj["requests"] = []
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "--instance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["opt_cost"] == 0.0


def test_oracle_two_interval_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_obj()))
    assert main(["oracle", "--instance", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["opt_cost"] == pytest.approx(56.1)


def test_oracle_compare_policy(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_obj()))
    assert main(["oracle", "--instance", str(path), "--compare", "pcache"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["compare"]["policy"] == "pcache"
    assert out["compare"]["ratio"] >= 1.0


def test_oracle_oversize_instance_refused(tmp_path, capsys):
    obj = _instance_obj()
    obj["horizon"] = 9
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "--instance", str(path)]) == 2
    assert "1..3" in capsys.readouterr().err


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


MALFORMED_INSTANCE_CASES = {
    "nodes_int": ({"nodes": 5}, "malformed instance JSON"),
    "nodes_empty": ({"nodes": []}, "no nodes"),
    "no_alpha": (_without(_instance_obj(), "alpha"), "missing key 'alpha'"),
    "no_types": (_without(_instance_obj(), "types"), "missing key 'types'"),
    "top_level_list": ([1, 2], "malformed instance JSON"),
    "node_not_object": ({**_instance_obj(), "nodes": [5]}, "malformed instance JSON"),
    "short_request": ({**_instance_obj(), "requests": [[1, 0, 0]]}, "malformed instance JSON"),
    "horizon_text": ({**_instance_obj(), "horizon": "x"}, "malformed instance JSON"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCE_CASES))
def test_oracle_malformed_instance_exits_usage(case, tmp_path, capsys):
    obj, message = MALFORMED_INSTANCE_CASES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "--instance", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_trace_error_names_file(nodes_csv, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("interval,node,ftype,count\n1,0,x,1\n")
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    i = flags.index("--zipf-beta")
    flags[i : i + 2] = ["--trace", str(trace)]
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert f"{trace}: line 2: non-integer field" in err
    assert not out.exists()


def test_console_entry_point(nodes_csv, tmp_path):
    out = tmp_path / "out"
    # the child imports the same edgesim as this process, installed or not
    src = str(Path(edgesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "edgesim", *(_run_flags(nodes_csv, out))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_sweep_with_trace(nodes_csv, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("interval,node,ftype,count\n1,0,0,3\n2,1,2,1\n2,3,3,2\n3,0,0,2\n")
    out = tmp_path / "sweep"
    flags = _sweep_flags(nodes_csv, out)
    i = flags.index("--betas")
    del flags[i : i + 2]
    flags += ["--trace", str(trace)]
    assert main(flags) == 0
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert [(r["alpha"], r["policy"]) for r in records] == [
        (0.005, "lru"),
        (0.005, "pcache"),
        (0.01, "lru"),
        (0.01, "pcache"),
    ]
    assert all(r["beta"] is None and r["requests"] == 8 for r in records)
    assert not (out / "errors.jsonl").exists()


def _write(path, text):
    path.write_text(text)
    return str(path)


BAD_NUMBER_CASES = {
    "capacity_nan": ("nodes", "id,capacity_mb,cpu_ghz,x,y\n0,2500,1.0,0,0\n1,nan,1.0,5,0\n", "capacity_mb"),
    "capacity_inf": ("nodes", "id,capacity_mb,cpu_ghz,x,y\n0,inf,1.0,0,0\n", "capacity_mb"),
    "capacity_text": ("nodes", "id,capacity_mb,cpu_ghz,x,y\n0,2500,1.0,0,0\n1,big,1.0,5,0\n", "nodes.csv: line 3"),
    "mem_text": ("catalog", "id,mem_mb,name\n0,55,web\n1,lots,db\n", "catalog.csv: line 3"),
    "alpha_nan": ("--alpha", "nan", "alpha"),
    "mean_rate_nan": ("--mean-rate", "nan", "mean_rate"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBER_CASES))
def test_run_bad_number_exits_usage(case, nodes_csv, tmp_path, capsys):
    target, value, message = BAD_NUMBER_CASES[case]
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    if target == "nodes":
        flags[flags.index(str(nodes_csv))] = _write(tmp_path / "nodes.csv", value)
    elif target == "catalog":
        flags += ["--catalog", _write(tmp_path / "catalog.csv", value)]
    else:
        flags[flags.index(target) + 1] = value
    assert main(flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


SHARED_SWEEP_INPUT_CASES = {
    "mean_rate_nan": ({"--mean-rate": "nan"}, "mean_rate"),
    "beta_negative": ({"--betas": "-1"}, "zipf beta"),
    "fc_ttl_negative": ({"--policies": "pcache,fc", "--ttl": "-1"}, "fc ttl"),
    "seeds_text": ({"--seeds": "1,a"}, "--seeds: expected comma-separated integers"),
}


@pytest.mark.parametrize("case", sorted(SHARED_SWEEP_INPUT_CASES))
def test_sweep_shared_input_error_exits_usage(case, nodes_csv, tmp_path, capsys):
    # an input every cell shares is a usage error, not one failed cell per grid point
    overrides, message = SHARED_SWEEP_INPUT_CASES[case]
    out = tmp_path / "sweep"
    flags = _sweep_flags(nodes_csv, out)
    for flag, value in overrides.items():
        if flag in flags:
            flags[flags.index(flag) + 1] = value
        else:
            flags += [flag, value]
    assert main(flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


UNRUNNABLE_SETUP_CASES = {
    "catalog_ids_gap": ("catalog", "id,mem_mb,name\n0,55,web\n2,92,img\n", "dense"),
    "node_below_largest_container": (
        "nodes", "id,capacity_mb,cpu_ghz,x,y\n0,2500,1.0,0,0\n1,100,1.0,5,0\n", "cannot hold the largest container",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(UNRUNNABLE_SETUP_CASES))
def test_sweep_unrunnable_setup_exits_usage(case, jobs, nodes_csv, tmp_path, capsys):
    # a topology and catalog that no alpha can run fail the sweep, as they fail `run`
    target, text, message = UNRUNNABLE_SETUP_CASES[case]
    out = tmp_path / "sweep"
    flags = _sweep_flags(nodes_csv, out, extra=("--jobs", jobs))
    if target == "nodes":
        flags[flags.index(str(nodes_csv))] = _write(tmp_path / "nodes.csv", text)
    else:
        flags += ["--catalog", _write(tmp_path / "catalog.csv", text)]
    assert main(flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_later_bad_beta_exits_usage(nodes_csv, tmp_path, capsys):
    # a bad beta fails when its (seed, beta) point starts: the points before it
    # have run, but the sweep still exits 2 and writes nothing
    out = tmp_path / "sweep"
    flags = _sweep_flags(nodes_csv, out)
    flags[flags.index("--betas") + 1] = "0.5,1.0,-1"
    assert main(flags) == 2
    assert "zipf beta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_naming_a_file_exits_usage(command, nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    flags = (_run_flags if command == "run" else _sweep_flags)(nodes_csv, out)
    assert main(flags) == 2
    assert f"--output {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"
    assert sorted(tmp_path.iterdir()) == sorted([nodes_csv, out])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("under_a_file", [False, True])
def test_bad_output_exits_usage_before_simulating(command, under_a_file, nodes_csv, tmp_path, capsys, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before --output was checked")

    monkeypatch.setattr(cli, command, simulate)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" / "deeper" if under_a_file else blocker
    flags = (_run_flags if command == "run" else _sweep_flags)(nodes_csv, out)
    assert main(flags) == 2
    assert f"--output {out}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([nodes_csv, blocker])


def test_trace_with_negative_seed_exits_usage(nodes_csv, tmp_path, capsys):
    trace = _write(tmp_path / "trace.csv", "interval,node,ftype,count\n1,0,0,3\n")
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    i = flags.index("--zipf-beta")
    flags[i : i + 2] = ["--trace", trace]
    flags[flags.index("--seed") + 1] = "-1"
    assert main(flags) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_jobs_below_one_exits_usage(nodes_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(_sweep_flags(nodes_csv, out, extra=("--jobs", "0"))) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


UNDECODABLE_CASES = {
    "nodes": b"id,capacity_mb,cpu_ghz,x,y\n0,2500,1.0,0,0\n1,2500,1.0,5,0\xff\n",
    "catalog": b"id,mem_mb,name\n0,55,web\xff\n",
    "trace": b"interval,node,ftype,count\n1,0,0,1\n\xff,0,0,1\n",
    "instance": b'{"name": "\xff"}',
}


@pytest.mark.parametrize("reader", sorted(UNDECODABLE_CASES))
def test_undecodable_input_exits_usage(reader, nodes_csv, tmp_path, capsys):
    bad = tmp_path / f"{reader}.bad"
    bad.write_bytes(UNDECODABLE_CASES[reader])
    out = tmp_path / "out"
    if reader == "instance":
        flags = ["oracle", "--instance", str(bad)]
    else:
        flags = _run_flags(nodes_csv, out)
        if reader == "nodes":
            flags[flags.index(str(nodes_csv))] = str(bad)
        elif reader == "catalog":
            flags += ["--catalog", str(bad)]
        else:
            i = flags.index("--zipf-beta")
            flags[i : i + 2] = ["--trace", str(bad)]
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err
    assert not out.exists()
