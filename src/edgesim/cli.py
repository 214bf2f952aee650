"""Experiment front-end: run / sweep / oracle subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import ConfigError, InvariantViolation
from .model import DEFAULT_CATALOG, CostParams, load_catalog, load_topology, open_input
from .oracle import instance_from_json, solve_exact
from .scheduler import write_audit_csv
from .sim import SimConfig, SweepGrid, run, summary_json, sweep
from .workload import ingest_trace

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2


def _add_common_flags(sub):
    sub.add_argument("--nodes", required=True, help="topology CSV (id,capacity_mb,cpu_ghz,x,y)")
    sub.add_argument("--comm-matrix", default=None, help="explicit comm-cost CSV matrix")
    sub.add_argument("--comm-scale", type=float, default=1.0, help="scale for coordinate-derived comm costs")
    sub.add_argument("--catalog", default=None, help="function catalog CSV (id,mem_mb[,name]); default: built-in 4 types")
    sub.add_argument("--trace", default=None, help="trace CSV (interval,node,ftype,count)")
    sub.add_argument("--mean-rate", type=float, default=4.0, help="mean requests per node per interval (zipf workload)")
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ttl", type=int, default=10, help="fixed-caching ttl in intervals")
    sub.add_argument("--downscale", type=int, default=1, help="divide trace counts (stochastic rounding)")
    sub.add_argument("--trace-bin", type=int, default=1, help="trace intervals per simulation tick")
    sub.add_argument("--switch-coeff", type=float, default=1.0)
    sub.add_argument("--run-coeff", type=float, default=1.0)
    sub.add_argument("--check", choices=("off", "sample", "full"), default="sample")
    sub.add_argument("--global-stats", action="store_true", help="share invocation statistics across nodes")
    sub.add_argument("--zipf-global", action="store_true", help="same popularity ranking at every node")
    sub.add_argument("--output", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="edgesim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="single simulation run")
    p_run.add_argument("--policy", required=True)
    p_run.add_argument("--alpha", type=float, required=True)
    p_run.add_argument("--zipf-beta", type=float, default=None)
    p_run.add_argument("--audit", action="store_true", help="write per-request audit CSV")
    _add_common_flags(p_run)

    p_sweep = subs.add_parser("sweep", help="grid of runs over alpha x beta x policy")
    p_sweep.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p_sweep.add_argument("--betas", default=None, help="comma-separated zipf beta values")
    p_sweep.add_argument("--policies", required=True, help="comma-separated policy names")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated master seeds (default: --seed)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_common_flags(p_sweep)

    p_oracle = subs.add_parser("oracle", help="exact offline optimum on a tiny instance")
    p_oracle.add_argument("--instance", required=True, help="instance JSON file")
    p_oracle.add_argument("--compare", default=None, help="also run this policy and report the ratio")
    p_oracle.add_argument("--ttl", type=int, default=10)
    p_oracle.add_argument("--seed", type=int, default=0)
    return parser


def _parse_list(text, flag, kind=float):
    try:
        values = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag}: expected comma-separated {what}, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return values


def _load_inputs(args):
    topology = load_topology(args.nodes, comm_path=args.comm_matrix, scale=args.comm_scale)
    catalog = load_catalog(args.catalog) if args.catalog else DEFAULT_CATALOG
    return topology, catalog


def _base_config(args, topology, catalog, alpha, policy, beta):
    params = CostParams(alpha=alpha, switch_coeff=args.switch_coeff, run_coeff=args.run_coeff)
    batches = None
    if args.trace is not None:
        batches = ingest_trace(
            args.trace,
            n_nodes=topology.n_nodes,
            n_types=len(catalog),
            downscale=args.downscale,
            seed=args.seed,
            bin_width=args.trace_bin,
        )
    return SimConfig(
        topology=topology,
        catalog=catalog,
        params=params,
        policy=policy,
        horizon=args.horizon,
        seed=args.seed,
        beta=beta,
        mean_rate=args.mean_rate,
        zipf_global=args.zipf_global,
        batches=batches,
        ttl=args.ttl,
        global_stats=args.global_stats,
        check=args.check,
        audit=getattr(args, "audit", False),
    )


def _check_output(path):
    """Refuse, before anything is simulated, an output path that cannot become
    a directory: it exists and is not one, or its nearest existing ancestor is
    not one. Creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--output {path}: {probe} is not a directory")


def _make_output_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output {path}: cannot create the output directory: {exc.strerror}") from None


def _cleanup(paths):
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass


def cmd_run(args) -> int:
    if (args.zipf_beta is None) == (args.trace is None):
        raise ConfigError("exactly one of --zipf-beta or --trace is required")
    _check_output(args.output)
    topology, catalog = _load_inputs(args)
    config = _base_config(args, topology, catalog, args.alpha, args.policy, args.zipf_beta)
    result = run(config)
    _make_output_dir(args.output)
    written = []
    try:
        ledger_path = os.path.join(args.output, "ledger.csv")
        result.ledger.write_csv(ledger_path)
        written.append(ledger_path)
        summary_path = os.path.join(args.output, "summary.json")
        with open(summary_path, "w") as fh:
            fh.write(summary_json(result) + "\n")
        written.append(summary_path)
        if result.audit is not None:
            audit_path = os.path.join(args.output, "audit.csv")
            write_audit_csv(result.audit, audit_path)
            written.append(audit_path)
    except Exception:
        _cleanup(written)
        raise
    print(summary_json(result))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.betas is None) == (args.trace is None):
        raise ConfigError("exactly one of --betas or --trace is required")
    _check_output(args.output)
    alphas = _parse_list(args.alphas, "--alphas")
    betas = _parse_list(args.betas, "--betas") if args.betas else [None]
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ConfigError("--policies: empty list")
    seeds = _parse_list(args.seeds, "--seeds", int) if args.seeds else [args.seed]
    grid = SweepGrid(alphas=alphas, betas=betas, policies=policies, seeds=seeds)
    topology, catalog = _load_inputs(args)
    base = _base_config(args, topology, catalog, alphas[0], policies[0], betas[0])
    records, errors = sweep(grid, base, jobs=args.jobs)

    _make_output_dir(args.output)
    written = []
    try:
        results_path = os.path.join(args.output, "results.jsonl")
        with open(results_path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        written.append(results_path)
        if errors:
            errors_path = os.path.join(args.output, "errors.jsonl")
            with open(errors_path, "w") as fh:
                for rec in errors:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            written.append(errors_path)
        _write_figure_csvs(args.output, records, written)
    except Exception:
        _cleanup(written)
        raise
    print(f"{len(records)} runs, {len(errors)} failures -> {args.output}")
    return EXIT_OK


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


# Plot-ready aggregates: (file, key fields, averaged field) per figure.
FIGURE_CSVS = (
    ("avg_cost_by_alpha.csv", ("beta", "alpha", "policy"), "normalized_cost"),
    ("cold_start_by_beta.csv", ("beta", "policy"), "cold_start_frequency"),
)


def _write_figure_csvs(outdir, records, written):
    """One row per group of records sharing a figure's key fields: the keys
    and the group's mean of the averaged field as a plain number, empty when
    it has none."""
    for name, keys, column in FIGURE_CSVS:
        groups = {}
        for rec in records:
            groups.setdefault(tuple(rec[k] for k in keys), []).append(rec[column])
        path = os.path.join(outdir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*keys, column])
            for key in sorted(groups, key=lambda k: (k[0] or 0, *k[1:])):
                m = _mean(groups[key])
                writer.writerow([*key, "" if m is None else repr(float(m))])
        written.append(path)


def cmd_oracle(args) -> int:
    try:
        with open_input(args.instance, "instance") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.instance}: invalid JSON: {exc}") from exc
    instance = instance_from_json(obj)
    solution = solve_exact(instance)
    out = {"opt_cost": solution.cost, "witness": solution.witness}
    if args.compare:
        config = SimConfig(
            topology=instance.topology,
            catalog=instance.catalog,
            params=instance.params,
            policy=args.compare,
            horizon=instance.horizon,
            seed=args.seed,
            batches=instance.batches,
            ttl=args.ttl,
            check="full",
        )
        result = run(config)
        cost = result.summary["total_cost"]
        out["compare"] = {
            "policy": args.compare,
            "cost": cost,
            "ratio": (cost / solution.cost) if solution.cost > 0 else None,
        }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "oracle": cmd_oracle}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
