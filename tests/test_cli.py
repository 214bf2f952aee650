import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgesim
from edgesim import cli, sim
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


def test_oracle_witness_that_fails_its_replay_exits_1(tmp_path, capsys, monkeypatch):
    # an optimum reported too low is an invariant violation, printed nowhere
    solve = cli.solve_exact

    def understated(instance):
        solution = solve(instance)
        solution.cost /= 2
        return solution

    monkeypatch.setattr(cli, "solve_exact", understated)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_obj()))
    assert main(["oracle", "--instance", str(path), "--compare", "pcache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation: the witness costs" in captured.err


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
    # C(c + 1, 1) = c + 1 routings: beyond float range, refused like any oversize instance
    "huge_count": (
        {
            **_instance_obj(),
            "nodes": [{"id": v, "capacity_mb": 400.0, "cpu_ghz": 1.0} for v in range(2)],
            "comm_cost": [[0.0, 1.0], [1.0, 0.0]],
            "requests": [[1, 0, 0, 10**309]],
        },
        "cap is 1e+07",
    ),
    # one node has one routing, priced as c + 1: refused before int64 overflows
    "huge_count_one_node": ({**_instance_obj(), "requests": [[1, 0, 0, 10**20]]}, "cap is 1e+07"),
    "huge_count_one_roomy_node": (
        {
            **_instance_obj(),
            "nodes": [{"id": 0, "capacity_mb": 1e300, "cpu_ghz": 1.0}],
            "horizon": 1,
            "requests": [[1, 0, 0, 10**20]],
        },
        "cap is 1e+07",
    ),
    # ten 55 MB containers cannot fit in 400 MB
    "infeasible": ({**_instance_obj(), "requests": [[1, 0, 0, 10]]}, "no feasible routing for interval 1"),
    "horizon_infinite": ({**_instance_obj(), "horizon": math.inf}, "malformed instance JSON"),
    "count_infinite": ({**_instance_obj(), "requests": [[1, 0, 0, math.inf]]}, "malformed instance JSON"),
    "capacity_beyond_float": (
        {**_instance_obj(), "nodes": [{"id": 0, "capacity_mb": 10**400, "cpu_ghz": 1.0}]},
        "malformed instance JSON",
    ),
    "horizon_fraction": ({**_instance_obj(), "horizon": 2.5}, "2.5 is not an integer"),
    # int() would read true as 1 and "3" as 3
    "horizon_bool": ({**_instance_obj(), "horizon": True}, "True is not an integer"),
    "count_string": ({**_instance_obj(), "requests": [[1, 0, 0, "3"]]}, "'3' is not an integer"),
    "interval_fraction": ({**_instance_obj(), "requests": [[1.5, 0, 0, 1]]}, "1.5 is not an integer"),
    "count_fraction": ({**_instance_obj(), "requests": [[1, 0, 0, 2.5]]}, "2.5 is not an integer"),
    "request_node_fraction": ({**_instance_obj(), "requests": [[1, 0.5, 0, 1]]}, "0.5 is not an integer"),
    "node_id_fraction": (
        {**_instance_obj(), "nodes": [{"id": 0.5, "capacity_mb": 400.0, "cpu_ghz": 1.0}]},
        "0.5 is not an integer",
    ),
    "type_id_fraction": ({**_instance_obj(), "types": [{"id": 0.5, "mem_mb": 55.0}]}, "0.5 is not an integer"),
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


def test_run_mean_rate_beyond_numpy_poisson_exits_usage(nodes_csv, tmp_path):
    # numpy cannot draw a Poisson mean above about 9.22e18; 1e30 once ended in
    # its "lam value too large" traceback and exit 1, the invariant code
    out = tmp_path / "out"
    flags = _run_flags(nodes_csv, out)
    flags[flags.index("--mean-rate") + 1] = "1e30"
    src = str(Path(edgesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "edgesim", *flags], capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "mean_rate" in proc.stderr and "9.223372006484771e+18" in proc.stderr
    assert not out.exists()


def test_run_audit_beyond_record_limit_exits_usage(tmp_path, capsys):
    # 9.2e18 requests per node once ended in MemoryError at the audit's
    # extend and exit 1, the invariant code
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,capacity_mb,cpu_ghz,x,y\n0,2500,1.0,0,0\n1,2500,1.5,5,0\n")
    out = tmp_path / "out"
    code = main([
        "run", "--policy", "pcache", "--alpha", "0.01", "--zipf-beta", "1", "--mean-rate", "9.2e18",
        "--horizon", "1", "--audit", "--nodes", str(nodes), "--output", str(out),
    ])
    assert code == 2
    assert "at most 100000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("last_count, code", [(3, 0), (4, 2)])
def test_run_audit_record_limit_counts_the_trace_within_the_horizon(nodes_csv, tmp_path, monkeypatch, last_count, code):
    # 2 + last_count requests within the horizon of 3, against a limit of 5;
    # the 50 at interval 4 lie beyond it
    monkeypatch.setattr(sim, "MAX_AUDIT_RECORDS", 5)
    trace = tmp_path / "trace.csv"
    trace.write_text(f"interval,node,ftype,count\n1,0,0,2\n2,1,1,{last_count}\n4,0,0,50\n")
    out = tmp_path / "out"
    flags = [
        "run", "--policy", "fc", "--alpha", "0.01", "--trace", str(trace), "--horizon", "3",
        "--audit", "--nodes", str(nodes_csv), "--output", str(out),
    ]
    assert main(flags) == code
    if code == 0:
        assert len((out / "audit.csv").read_text().splitlines()) == 1 + 5
    else:
        assert not out.exists()


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
    "mean_rate_beyond_poisson": ({"--mean-rate": "1e30"}, "numpy's Poisson limit"),
    "beta_negative": ({"--betas": "-1"}, "zipf beta"),
    "fc_ttl_negative": ({"--policies": "pcache,fc", "--ttl": "-1"}, "fc ttl"),
    "seeds_text": ({"--seeds": "1,a"}, "--seeds: expected comma-separated integers"),
    # a repeated grid value would write every one of its records twice
    "alphas_repeated": ({"--alphas": "0.005,0.005"}, "sweep grid alphas must be distinct"),
    "betas_repeated": ({"--betas": "1.0,0.5,1.0"}, "sweep grid betas must be distinct"),
    "policies_repeated": ({"--policies": "pcache,lru,pcache"}, "sweep grid policies must be distinct"),
    "seeds_repeated": ({"--seeds": "1,1"}, "sweep grid seeds must be distinct"),
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


def _assert_write_refused(flags, name, capsys):
    """Exit 2 with one error line that names the output file, no traceback."""
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: --output ") and name in line


def test_run_output_file_that_is_a_directory_exits_usage(nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    _assert_write_refused(_run_flags(nodes_csv, out, extra=("--audit",)), "summary.json", capsys)
    assert os.listdir(out) == ["summary.json"]  # ledger.csv, written first, is removed


def _audit_header_then(exc):
    def write_audit_csv(records, path):
        with open(path, "w", newline="") as fh:
            fh.write("interval,origin,ftype,action,serving_node,marginal_cost,bound\r\n")
            raise exc

    return write_audit_csv


def test_run_failing_audit_write_leaves_no_partial_file(nodes_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "write_audit_csv", _audit_header_then(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
    out = tmp_path / "out"
    _assert_write_refused(_run_flags(nodes_csv, out, extra=("--audit",)), "audit.csv", capsys)
    assert not out.exists()  # nor the directory the run created


def test_run_writer_error_other_than_oserror_is_raised_after_cleanup(nodes_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "write_audit_csv", _audit_header_then(RuntimeError("writer bug")))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="writer bug"):
        main(_run_flags(nodes_csv, out, extra=("--audit",)))
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_removes_the_directories_it_created_only(existing, nodes_csv, tmp_path, capsys, monkeypatch):
    # an empty directory that was there before the run is not the run's to remove
    monkeypatch.setattr(cli, "write_audit_csv", _audit_header_then(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))))
    if existing:
        (tmp_path / "a").mkdir()
    out = tmp_path / "a" / "b" / "c"
    _assert_write_refused(_run_flags(nodes_csv, out, extra=("--audit",)), "audit.csv", capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([nodes_csv.name] + (["a"] if existing else []))
    if existing:
        assert os.listdir(tmp_path / "a") == []


def test_sweep_output_file_that_is_a_directory_exits_usage(nodes_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    (out / "cold_start_by_beta.csv").mkdir(parents=True)
    _assert_write_refused(_sweep_flags(nodes_csv, out), "cold_start_by_beta.csv", capsys)
    assert os.listdir(out) == ["cold_start_by_beta.csv"]


def test_failed_write_keeps_what_it_could_not_open_and_removes_what_it_truncated(nodes_csv, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    (out / "summary.json" / "keep.txt").write_text("kept\n")
    (out / "ledger.csv").write_text("an earlier ledger\n")
    _assert_write_refused(_run_flags(nodes_csv, out), "summary.json", capsys)
    assert os.listdir(out) == ["summary.json"]
    assert (out / "summary.json" / "keep.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_rerun_replaces_its_outputs_without_truncating_them(command, nodes_csv, tmp_path, monkeypatch):
    # rewriting a just-written file in place can stall on a flush; an output
    # that exists is removed once it opens, and its writer creates a new file
    flags = _run_flags if command == "run" else _sweep_flags
    extra = ("--audit",) if command == "run" else ()
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(flags(nodes_csv, fresh, extra)) == 0
    assert main(flags(nodes_csv, out, extra)) == 0
    real_open = open
    truncated = []

    def spying_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+") and os.path.lexists(file):
            truncated.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spying_open)
    assert main(flags(nodes_csv, out, extra)) == 0
    monkeypatch.undo()
    assert truncated == []
    assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
    for name in os.listdir(fresh):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("dangling", [False, True])
def test_output_symlink_is_replaced_not_written_through(dangling, nodes_csv, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "elsewhere.csv"
    if not dangling:
        target.write_text("not the run's\n")
    (out / "ledger.csv").symlink_to(target)
    assert main(_run_flags(nodes_csv, out)) == 0
    if dangling:
        assert not target.exists()
    else:
        assert target.read_text() == "not the run's\n"
    assert not (out / "ledger.csv").is_symlink()
    assert (out / "ledger.csv").read_text().startswith("interval,switching,")


NON_FINITE_COST_CASES = {
    "switch_coeff": ("--switch-coeff", "1e308", "switch_coeff 1e+308 makes p = inf for type 0 at node 0"),
    "run_coeff": ("--run-coeff", "1e307", "run_coeff 1e+307 makes q = inf for type 0 at node 0"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_COST_CASES))
def test_non_finite_cost_exits_usage(case, command, nodes_csv, tmp_path, capsys):
    # finite coefficients whose p or q overflows would price every run at
    # inf and normalize it to nan; the run is refused before any lane steps
    flag, value, message = NON_FINITE_COST_CASES[case]
    out = tmp_path / "out"
    flags = (_run_flags if command == "run" else _sweep_flags)(nodes_csv, out, extra=(flag, value))
    assert main(flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
