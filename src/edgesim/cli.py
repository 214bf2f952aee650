"""Experiment front-end: run / sweep / oracle subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import partial

from .errors import ConfigError, InvariantViolation
from .model import DEFAULT_CATALOG, CostParams, left_sum, load_catalog, load_topology, open_input
from .oracle import check_witness, instance_from_json, solve_exact
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


def _write_outputs(outdir, files):
    """Create `outdir` and call each (file name, writer) pair's writer with the
    file's path, in order. A file that already exists is replaced: once it
    opens for writing it is removed, so the writer creates a new one rather
    than truncating it in place or writing through a symlink. When a writer
    raises, the call removes every file it created or replaced, the one being
    written included, then every directory it created, and an OSError becomes
    a ConfigError naming the file."""
    made, head = [], os.path.abspath(outdir)  # what makedirs creates: outdir and its missing ancestors
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output {outdir}: cannot create the output directory: {exc.strerror}") from None
    opened = []
    try:
        for name, write in files:
            path = os.path.join(outdir, name)
            if os.path.lexists(path):
                # a file that cannot be opened for writing (a directory
                # included) is not the call's to remove; a dangling link is
                try:
                    os.close(os.open(path, os.O_WRONLY))
                except FileNotFoundError:
                    pass
                os.remove(path)
            opened.append(path)
            write(path)
    except BaseException as exc:
        for remove, paths in ((os.remove, opened), (os.rmdir, made)):
            for path in paths:
                try:
                    remove(path)
                except OSError:
                    pass
        if isinstance(exc, OSError):
            raise ConfigError(f"--output {outdir}: cannot write {name}: {exc.strerror or exc}") from None
        raise


def _write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")


def cmd_run(args) -> int:
    if (args.zipf_beta is None) == (args.trace is None):
        raise ConfigError("exactly one of --zipf-beta or --trace is required")
    _check_output(args.output)
    topology, catalog = _load_inputs(args)
    config = _base_config(args, topology, catalog, args.alpha, args.policy, args.zipf_beta)
    result = run(config)
    files = [("ledger.csv", result.ledger.write_csv), ("summary.json", partial(_write_jsonl, [result.summary]))]
    if result.audit is not None:
        files.append(("audit.csv", partial(write_audit_csv, result.audit)))
    _write_outputs(args.output, files)
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

    files = [("results.jsonl", partial(_write_jsonl, records))]
    if errors:
        files.append(("errors.jsonl", partial(_write_jsonl, errors)))
    files += [(name, partial(_write_figure_csv, records, keys, column)) for name, keys, column in FIGURE_CSVS]
    _write_outputs(args.output, files)
    print(f"{len(records)} runs, {len(errors)} failures -> {args.output}")
    return EXIT_OK


def _mean(values):
    values = [v for v in values if v is not None]
    return left_sum(values) / len(values) if values else None


# Plot-ready aggregates: (file, key fields, averaged field) per figure.
FIGURE_CSVS = (
    ("avg_cost_by_alpha.csv", ("beta", "alpha", "policy"), "normalized_cost"),
    ("cold_start_by_beta.csv", ("beta", "policy"), "cold_start_frequency"),
)


def _write_figure_csv(records, keys, column, path):
    """One row per group of records sharing the figure's key fields: the keys
    and the group's mean of the averaged field as a plain number, empty when
    it has none."""
    groups = {}
    for rec in records:
        groups.setdefault(tuple(rec[k] for k in keys), []).append(rec[column])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*keys, column])
        for key in sorted(groups, key=lambda k: (k[0] or 0, *k[1:])):
            m = _mean(groups[key])
            writer.writerow([*key, "" if m is None else repr(float(m))])


def cmd_oracle(args) -> int:
    try:
        with open_input(args.instance, "instance") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.instance}: invalid JSON: {exc}") from exc
    instance = instance_from_json(obj)
    solution = solve_exact(instance)
    check_witness(instance, solution)
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
    print(json.dumps(out, sort_keys=True, allow_nan=False))
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
