"""Mutant catalogue: small, deliberate bugs that the fast test suite must catch.

Usage, from the repository root:

    python3 tools/mutants.py             # run every mutant, 2-30 s each
    python3 tools/mutants.py NAME ...    # run the named mutants only
    python3 tools/mutants.py --no-hashes # the same without the golden hash pins

For each mutant the script copies the tree to a temporary directory, replaces
the mutant's anchor text (which must occur exactly once in its file) and runs

    pytest -x -q --ignore=tests/test_acceptance.py --ignore=tests/test_mutants.py --hypothesis-seed=0

there, after checking that the unmutated tree passes. With --no-hashes the run
also deselects the golden hash comparisons (`-k "not _bytes"`), so a mutant
must be killed by a test that names what went wrong. A failing run kills the
mutant; a passing run lets it survive. A run still going after TIMEOUT_S
seconds is stopped and kills the mutant too, as a last resort: a router
step that creates nothing raises ContractError rather than loop, so no
mutant in the catalogue is known to run that long. The fixed hypothesis
seed makes every verdict reproducible. The exit status is 1 when a mutant
survived. A survivor calls for a new test, never for dropping the mutant. A
refactor that moves an anchor updates its entry in the same change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml", "README.md")
# tests/test_mutants.py checks the anchors of the unmutated tree: a mutant
# always removes one, so that test would kill every mutant
PYTEST = [
    "-m", "pytest", "-x", "-q", "--ignore=tests/test_acceptance.py", "--ignore=tests/test_mutants.py",
    "--hypothesis-seed=0", "-p", "no:cacheprovider",
]
TIMEOUT_S = 180  # the unmutated suite takes 20-40 s on a 2-vCPU Xeon


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    breaks: str


SCHED = "src/edgesim/scheduler.py"
SIM = "src/edgesim/sim.py"
ORACLE = "src/edgesim/oracle.py"
POLICIES = "src/edgesim/policies.py"
COSTS = "src/edgesim/costs.py"
MODEL = "src/edgesim/model.py"
WORKLOAD = "src/edgesim/workload.py"
CLI = "src/edgesim/cli.py"

# the two steps an overflow node serves by, in order
OVERFLOW_IDLE = (
    "            take = min(remaining, state_2.cache[n])\n"
    "            if take:\n"
    "                state_2.cache[n] -= take\n"
    "                state_2.active[n] += take\n"
    "                state_2.freq[n] += take\n"
    "                state_2.last_used[n] = t\n"
    "                offloaded[route] = offloaded.get(route, 0) + take\n"
    "                remaining -= take\n"
    "                if trace:\n"
    '                    note(v, n, "offload", v2, d, max(p_vn, d), take)\n'
)
OVERFLOW_CREATE = (
    "            cap = capacity[v2]\n"
    "            while remaining and (state_2.used_mb + mem <= cap or _make_room(state_2, mem, ctx, policy, rng, destroyed, states)):\n"
    "                used = state_2.used_mb\n"
    "                k = 0\n"
    "                while k < remaining and used + mem <= cap:\n"
    "                    used += mem\n"
    "                    k += 1\n"
    "                if not k:\n"
    '                    raise ContractError(f"node {v2}: a creation step for type {n} created nothing")\n'
    "                state_2.used_mb = used\n"
    "                state_2.active[n] += k\n"
    "                if holds_idle:\n"
    "                    state_2.freq[n] += k\n"
    "                    state_2.last_used[n] = t\n"
    "                created[(v2, n)] = created.get((v2, n), 0) + k\n"
    "                offloaded[route] = offloaded.get(route, 0) + k\n"
    "                decision.fallback_creations += k\n"
    "                remaining -= k\n"
    "                if trace:\n"
    "                    # outside the worst-case analysis; not bound-checked\n"
    '                    note(v, n, "create", v2, d + p[v2][n], max(p_vn, d), k, checked=False)\n'
)

MUTANTS = [
    # alpha collapse: one trajectory priced and checked at every alpha
    Mutant("bounds-first-alpha-only", SCHED,
           "for alpha in alphas}", "for alpha in alphas[:1]}",
           "per-request bounds checked at the first alpha only"),
    Mutant("validate-first-alpha-only", SIM,
           "    for p in params:\n        try:\n", "    for p in params[:1]:\n        try:\n",
           "alpha*q <= p checked at the first alpha only"),
    Mutant("lanes-share-failure-map", SIM,
           "_Lane(c, params, ctx, dict(failures))", "_Lane(c, params, ctx, failures)",
           "every lane of a stream shares one failure map, so one lane's bound violation fails the others"),
    Mutant("drop-bound-failures", SCHED,
           "        self.failures[alpha] = InvariantViolation(", "        InvariantViolation(",
           "a bound violation ends the alpha's checks but is never reported"),
    Mutant("price-at-ledger-alpha", SIM,
           "{p.alpha: lane.ledger.total_cost(p.alpha)", "{p.alpha: lane.ledger.total_cost()",
           "every alpha priced at the first alpha's weight"),
    Mutant("skip-shared-input-check", SIM,
           "    validate_fit(config.topology, config.catalog, config.params)\n    failures = {}\n", "    failures = {}\n",
           "an input every lane shares fails cell by cell instead of raising"),
    Mutant("nocache-not-own-baseline", SIM,
           '    if config.policy != "nocache":', "    if True:",
           "a no-cache run simulates a second no-cache lane as its baseline"),
    Mutant("smallest-alpha-violation-only", SCHED,
           "                aq = aq_table[origin][n]\n                if cost + aq > aq + top + 1e-9:\n",
           "                aq = aq_table[origin][n]\n                if cost + aq > aq + top + 1e-9 and alpha == min(check.live):\n",
           "only the smallest live alpha records its violation"),
    # oracle block pricing into the keep lattice
    Mutant("cells-keep-later-tie", ORACLE,
           "        best[cells[now < held]] = none  # a lower cost: the cell's earlier pairs lose\n"
           "        at_min = costs == now\n",
           "        at_min = costs == now\n"
           "        best[cells[at_min]] = none\n",
           "a later pair of equal cost replaces a cell's pair from an earlier block"),
    Mutant("cells-keep-later-tie-in-block", ORACLE,
           "np.minimum.at(best, cells[at_min], pairs[at_min])",
           "best[cells[at_min]] = np.minimum(best[cells[at_min]], pairs[at_min])",
           "the last of a block's pairs of equal cost wins a cell, not the first"),
    Mutant("cells-ignore-cost", ORACLE,
           "at_min = costs == now", "at_min = costs == costs",
           "each cell keeps its block's first pair, not its cheapest"),
    Mutant("cells-by-last-pair", ORACLE,
           "np.minimum.at(first, cells, pairs)", "first[cells] = pairs",
           "kept states enter dp by the last pair that reaches them, not the first"),
    Mutant("skip-before-every-cell-reached", ORACLE,
           "ceiling = least.max()", "ceiling = least[first < none].max()",
           "a block is skipped before every cell has its first pair"),
    Mutant("capacity-any-node", ORACLE,
           "(used > np.reshape(cap, (V, 1, 1))).any(axis=0)", "(used > np.reshape(cap, (V, 1, 1))).all(axis=0)",
           "a pool is infeasible only when every node overflows"),
    # routing tables
    Mutant("admit-strict-capacity", SCHED,
           "            used = state_v.used_mb\n            k = 0\n            while k < remaining and used + mem <= cap:\n",
           "            used = state_v.used_mb\n            k = 0\n            while k < remaining and used + mem < cap:\n",
           "a container that fills its node exactly is refused"),
    Mutant("offload-no-clamp", SCHED,
           "                if take > remaining:\n                    take = remaining\n", "",
           "an offload consumes more cached containers than requests remain"),
    Mutant("batch-keeps-caller-order", MODEL,
           "for key in sorted(counts)}", "for key in counts}",
           "a hand-built batch routes in its caller's key order, not ascending (node, type)"),
    Mutant("zipf-keys-by-rank", WORKLOAD,
           "gather[row + np.asarray(types)] = np.arange(row, row + n_types)",
           "gather[row : row + n_types] = np.arange(row, row + n_types)",
           "Zipf batches key each count by its popularity rank, not the node's type for it"),
    Mutant("offload-table-short", SCHED,
           "[pairs[: bisect_right(dists, p)] for p in self.p[v]]",
           "[pairs[: max(0, bisect_right(dists, p) - 1)] for p in self.p[v]]",
           "the farthest in-radius neighbour is cut off each offload table"),
    # lockstep lanes
    Mutant("shared-policy-rng", SIM,
           'self.rng = np.random.default_rng(derive_seed(config.seed, "policy", config.policy))',
           'self.rng = ctx.__dict__.setdefault("rng", np.random.default_rng(derive_seed(config.seed, "policy", config.policy)))',
           "every lane of a stream draws from one policy rng"),
    Mutant("close-skips-active", COSTS,
           "            if alive:\n                alive += cache[n]", "            if False:\n                alive += cache[n]",
           "the interval close neither idles nor prices serving containers"),
    Mutant("no-check-after-routing", SIM,
           "                decision.check_conservation(batch)\n                _check_states(self.config, states, t)\n",
           "                decision.check_conservation(batch)\n",
           "node states are checked only after the close"),
    # one router for every lane
    Mutant("close-zeroes-used-mb", SCHED,
           "        state.used_mb -= mems[n] * count", "        state.used_mb = 0.0",
           "the no-cache close resets occupancy instead of subtracting it"),
    Mutant("close-in-insertion-order", SCHED,
           "    for (v, n), count in sorted(decision.created.items()):", "    for (v, n), count in decision.created.items():",
           "the no-cache close prices in insertion order, not node-major"),
    Mutant("fallback-no-invocation", SCHED,
           "                if holds_idle:\n"
           "                    state_2.freq[n] += k\n                    state_2.last_used[n] = t\n"
           "                created[(v2, n)]",
           "                created[(v2, n)]",
           "a fallback creation updates no invocation statistics"),
    # statistics kept inline by the router, and the close that idles
    Mutant("hit-keeps-last-used", SCHED,
           "                state_v.freq[n] += hit\n                state_v.last_used[n] = t\n",
           "                state_v.freq[n] += hit\n",
           "a cache hit counts the invocation but keeps the old last_used"),
    Mutant("create-counts-one-invocation", SCHED,
           "                state_v.freq[n] += k\n", "                state_v.freq[n] += 1\n",
           "a batch of creations at the origin counts as one invocation"),
    Mutant("running-cost-skips-cache-only-cell", COSTS,
           "            elif cache[n]:\n                total += q_v[n] * cache[n]\n", "",
           "the interval close prices no idle container of a type with none serving"),
    Mutant("fallback-credits-origin", SCHED,
           "created[(v2, n)] = created.get((v2, n), 0) + k", "created[key] = created.get(key, 0) + k",
           "a fallback creation is booked at the origin, not where it happened"),
    # a no-cache interval that fits, closed as it is routed
    Mutant("fit-test-strict", SCHED,
           "            if need > room:\n", "            if need >= room:\n",
           "an origin that its requests fill exactly is routed open"),
    Mutant("fold-keeps-zero-counts", SCHED,
           "    for key, c in batch.counts.items():\n        if c:\n", "    for key, c in batch.counts.items():\n        if True:\n",
           "a zero-count key is created at its origin and priced"),
    Mutant("fold-fractional-sizes", SCHED,
           "        whole = all(float(m).is_integer() for m in self.mem) and", "        whole = True and",
           "an interval of fractional sizes is closed as routed, with `used_mb` left at other bits"),
    Mutant("fold-under-bound-checks", SCHED,
           "audit is None and check is None and ctx.whole_mem", "audit is None and ctx.whole_mem",
           "a bound-checked no-cache interval skips its checks"),
    Mutant("closed-still-destroys", SIM,
           "            if decision.closed:\n", "            if False:\n",
           "the lane closes a closed decision, destroying its containers a second time"),
    Mutant("closed-priced-by-p", SCHED,
           "            running += q_v[n] * c\n", "            running += p_v[n] * c\n",
           "a closed interval's running cost is priced with p"),
    Mutant("closed-switching-priced-by-q", SCHED,
           "            switching += p_v[n] * c\n", "            switching += q_v[n] * c\n",
           "a closed interval's switching cost is priced with q"),
    Mutant("closed-priced-before-fit-test", SCHED,
           "            if need > room:\n                return None\n            created[key] = c\n"
           "            switching += p_v[n] * c\n            running += q_v[n] * c\n",
           "            switching += p_v[n] * c\n            running += q_v[n] * c\n"
           "            if need > room:\n                return None\n            created[key] = c\n",
           "a key is priced before its fit test, so a count beyond float range overflows instead of routing open"),
    Mutant("nocache-keeps-statistics", SCHED,
           "            if holds_idle:\n                state_v.freq[n] += k\n",
           "            if True:\n                state_v.freq[n] += k\n",
           "a no-cache lane's creations at the origin count invocations it never reads"),
    # batched overflow
    Mutant("overflow-creates-before-idle", SCHED,
           OVERFLOW_IDLE + OVERFLOW_CREATE, OVERFLOW_CREATE + OVERFLOW_IDLE,
           "overflow creates before taking idle containers"),
    Mutant("overflow-one-idle-per-node", SCHED,
           "take = min(remaining, state_2.cache[n])", "take = min(remaining, state_2.cache[n], 1)",
           "overflow takes at most one idle container per node"),
    # fc entry logs
    Mutant("fc-sync-after-expiry", POLICIES,
           "            while len(dq) > cached:\n                dq.popleft()\n"
           "            if len(dq) < cached:\n                dq.extend([now] * (cached - len(dq)))\n"
           "                logged.append(cell)\n"
           "            count = 0\n            while dq and dq[0] <= expired:\n"
           "                dq.popleft()\n                count += 1\n",
           "            if len(dq) < cached:\n                dq.extend([now] * (cached - len(dq)))\n"
           "                logged.append(cell)\n"
           "            count = 0\n            while dq and dq[0] <= expired:\n"
           "                dq.popleft()\n                count += 1\n"
           "            while len(dq) > cached:\n                dq.popleft()\n",
           "fc retires consumed entries after expiring, so it expires the wrong containers"),
    Mutant("fc-victim-no-sync", POLICIES,
           "            while len(dq) > cached:\n                dq.popleft()\n            if cached and",
           "            if cached and",
           "fc picks its pressure victim from stale entry logs"),
    Mutant("fc-one-shared-log-list", POLICIES,
           "defaultdict(lambda: [deque() for _ in range(n_types)])",
           "defaultdict(lambda logs=[deque() for _ in range(n_types)]: logs)",
           "every fc node shares one list of entry logs"),
    Mutant("fc-ttl-strict", POLICIES,
           "while dq and dq[0] <= expired:", "while dq and dq[0] < expired:",
           "fc keeps a container one interval past its ttl"),
    # fc's sparse sweep: the touched cells and the timer wheel
    Mutant("fc-evicted-nodes-untouched", POLICIES,
           "            for v in {v for v, _n in decision.destroyed}:\n                cells.update([(v, n) for n in types])\n", "",
           "fc skips the other logs of a node with a pressure eviction, so a hit type there is not logged again"),
    Mutant("fc-touched-by-served", POLICIES,
           "cells = set(decision.created)", "cells = set(decision.local_served)",
           "fc takes the touched cells from local_served, so it misses fallback creations"),
    Mutant("fc-no-due-cells", POLICIES,
           "        if due:\n            cells.update(due)\n", "",
           "fc never visits a cell that falls due, so an untouched container outlives its ttl"),
    Mutant("fc-due-one-late", POLICIES,
           "self._due.setdefault(now + ttl, [])", "self._due.setdefault(now + ttl + 1, [])",
           "fc registers a logged cell one interval past its due time"),
    Mutant("fc-triples-unsorted", POLICIES,
           "        destroy.sort()\n", "",
           "fc returns its destruction triples in visit order, not node-major and type-minor"),
    # kept states by suffix minima
    Mutant("suffix-ties-latest-pair", ORACLE,
           "np.lexsort((best[reached], least[reached]))", "np.lexsort((-best[reached], least[reached]))",
           "a state's parent is the latest of its cheapest cells' pairs"),
    Mutant("destroy-c-order", ORACLE,
           '    kept = kept[np.argsort(reach[kept], kind="stable")]\n', "",
           "kept states enter dp in C order, not by their first pair"),
    # oracle routings as one product
    Mutant("routings-groups-reversed", ORACLE,
           "                m_all = (m_all[:, None] + served).reshape(-1, size)\n"
           "                comm = (comm[:, None] + ccost).ravel()\n",
           "                m_all = (served[:, None] + m_all).reshape(-1, size)\n"
           "                comm = (ccost[:, None] + comm).ravel()\n",
           "routings enumerated with the last request group outermost"),
    Mutant("witness-picks-reversed", ORACLE,
           "for (v, n, comps), k in zip(groups, picks)]", "for (v, n, comps), k in zip(groups, picks[::-1])]",
           "the witness decodes its routing's picks in reverse group order"),
    Mutant("huge-count-overflows", ORACLE,
           "    except OverflowError:\n        return math.inf\n", "    except ZeroDivisionError:\n        return math.inf\n",
           "a request count beyond float range ends in a traceback, not a refusal"),
    # the audit as evidence: what note logs, and the writer's runs
    Mutant("note-understates-cost", SCHED,
           "audit.extend([AuditRecord(t, origin, n, action, serving, cost + aq, aq + top)] * count)",
           "audit.extend([AuditRecord(t, origin, n, action, serving, (cost + aq) * (1 - 1e-12), aq + top)] * count)",
           "the audit logs a request's cost a hair under what it paid"),
    Mutant("note-overstates-bound", SCHED,
           "audit.extend([AuditRecord(t, origin, n, action, serving, cost + aq, aq + top)] * count)",
           "audit.extend([AuditRecord(t, origin, n, action, serving, cost + aq, (aq + top) * (1 + 1e-12))] * count)",
           "the audit logs a request's bound a hair over the route's"),
    Mutant("audit-tail-by-cost", SCHED,
           "pair = (rec.marginal_cost, rec.bound)", "pair = rec.marginal_cost",
           "the writer reuses a tail for an equal cost with another bound"),
    Mutant("audit-line-across-intervals", SCHED,
           "if rec is not prev:",
           'if prev is None or vars(rec) | {"interval": 0} != vars(prev) | {"interval": 0}:',
           "the writer reuses the previous line for an equal record of another interval"),
    # the CLI's output writer
    Mutant("output-cleanup-skips-failing-file", CLI,
           "            opened.append(path)\n            write(path)\n",
           "            write(path)\n            opened.append(path)\n",
           "a failed write removes the files before it but leaves the partly written one"),
    Mutant("output-cleanup-keeps-directories", CLI,
           "(os.rmdir, made)", "(os.rmdir, ())",
           "a failed write removes its files but leaves the directories it created"),
    Mutant("output-rewritten-in-place", CLI,
           "                os.remove(path)\n            opened.append(path)\n", "            opened.append(path)\n",
           "an output that exists is truncated and rewritten in place, or through its symlink, not replaced"),
    Mutant("output-oserror-unconverted", CLI,
           "        if isinstance(exc, OSError):\n", "        if False:\n",
           "an output file that cannot be written ends in a traceback, not exit 2"),
    # invariants and rules
    Mutant("no-conservation-check", COSTS,
           "            if lam != got:", "            if False:",
           "request conservation is never checked"),
    Mutant("no-capacity-check", SIM,
           "        if occ > capacity + 1e-9:", "        if occ > capacity * 2:",
           "occupancy may exceed capacity up to twice over"),
    Mutant("check-last-odd-type", SIM,
           "                if odd < 0:\n                    odd = n\n", "                odd = n\n",
           "the state check names a node's last odd type, not its first"),
    Mutant("negative-before-never-invoked", SIM,
           "            if cache[odd] > 0 and freq[odd] < 1:\n",
           "            if active[odd] >= 0 and cache[odd] >= 0:\n",
           "a type both negative and never invoked is reported as negative"),
    Mutant("conservation-keys-only", COSTS,
           "        if served == batch.counts:\n", "        if served.keys() == batch.counts.keys():\n",
           "an interval whose counts differ but whose keys agree passes the conservation check"),
    # global statistics derived from the node states at eviction
    Mutant("global-freq-own-node", POLICIES,
           "        freq = [sum(c) for c in zip(*(s.freq for s in states))]\n", "        freq = state.freq\n",
           "global statistics count the evicting node's invocations only"),
    Mutant("global-last-used-summed", POLICIES,
           "[max(c) for c in zip(*(s.last_used for s in states))]", "[sum(c) for c in zip(*(s.last_used for s in states))]",
           "global statistics sum the nodes' last-invocation intervals instead of taking the latest"),
    Mutant("pcache-weight-no-memory", POLICIES,
           "weights[n] = f.mem_mb / denom", "weights[n] = 1.0 / denom",
           "pcache's eviction weight ignores the container's memory"),
    Mutant("fallback-by-distance", SCHED,
           "key=lambda v2: (self.d[v][v2] + self.p[v2][n], v2)", "key=lambda v2: (self.d[v][v2], v2)",
           "overflow goes to the nearest node, not the cheapest by d + p"),
    Mutant("non-finite-cost-accepted", MODEL,
           "                if not math.isfinite(value):\n", "                if False:\n",
           "a p or q that overflows to inf is simulated, pricing every run at inf"),
    Mutant("validate-fit-half", MODEL,
           "        if node.capacity_mb < max_mem:", "        if node.capacity_mb < max_mem / 2:",
           "a node too small for the largest container is accepted"),
    Mutant("truncated-at-horizon", SIM,
           '"truncated": bool(intervals < config.horizon)', '"truncated": bool(intervals <= config.horizon)',
           "a run that reaches its horizon is reported truncated"),
    Mutant("derive-seed-random", SIM,
           '        h.update(b"|")', '        h.update(b"|" + __import__("os").urandom(4))',
           "derived seeds differ from run to run"),
    Mutant("total-cost-builtin-sum", COSTS,
           "        return left_sum(r.switching", "        return sum(r.switching",
           "the run's total cost depends on the interpreter's float sum()"),
]


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.file
    text = path.read_text()
    found = text.count(mutant.anchor)
    if found != 1:
        raise SystemExit(f"{mutant.name}: anchor occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def run_one(mutant: Mutant | None, pytest_args: list[str]) -> tuple[bool, float, str]:
    """(killed, seconds, the failing test or pytest's last line) for one
    mutant, or for the unmutated tree when `mutant` is None."""
    with tempfile.TemporaryDirectory(prefix="edgesim-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
            else:
                shutil.copy2(src, root / name)
        if mutant is not None:
            apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *pytest_args], cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    last = (failed or lines or [proc.stderr.strip()[-200:]])[0 if failed else -1]
    return proc.returncode != 0, seconds, last[:160]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--no-hashes", action="store_true", help='deselect the golden hash comparisons (-k "not _bytes")')
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    pytest_args = PYTEST + ["-k", "not _bytes"] if args.no_hashes else PYTEST
    failed, seconds, last = run_one(None, pytest_args)
    if failed:
        print(f"the unmutated tree fails ({last}); no mutant can be judged")
        return 2
    print(f"unmutated tree passes in {seconds:.1f} s", flush=True)
    survivors = []
    for m in chosen:
        killed, seconds, last = run_one(m, pytest_args)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name:32} {seconds:6.1f} s  {last}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} killed" + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
