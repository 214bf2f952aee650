"""Pin the digest of every op of every workload for a range of seeds.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/pin.py

It writes bench/digests.json for seeds 0..PINNED_SEEDS-1. bench/run.py
compares each op's digest with the pinned one, so a change that alters any
output byte shows up as failed ops.
Re-pin only on purpose, when a change of outputs is intended and explained.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

PINNED_SEEDS = 100


def pin(cls, seeds, workdir):
    table = {}
    counter = spans.CallCounter(cls.must_be_zero)
    try:
        for seed in range(seeds):
            workload = cls(seed, os.path.join(workdir, str(seed)))
            digests = []
            for op in workload.ops():
                outcome = op.finish(op.call())
                if any(outcome.counts.get(name) for name in cls.must_be_zero):
                    raise SystemExit(f"{cls.name} seed {seed} {op.label}: nonzero counts {outcome.counts}")
                digests.append(outcome.digest)
            if any(counter.counts.values()):
                raise SystemExit(f"{cls.name} seed {seed}: calls that must not happen: {dict(counter.counts)}")
            table[str(seed)] = digests
            print(f"{cls.name} seed {seed}: {len(digests)} ops", file=sys.stderr, flush=True)
    finally:
        counter.restore()
    return table


def main():
    workdir = os.path.join(HERE, "out", f"pin-{os.getpid()}")
    try:
        tables = {name: pin(cls, PINNED_SEEDS, workdir) for name, cls in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump({"workloads": tables}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
