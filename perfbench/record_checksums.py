"""Record the expected output checksum of every solver call, per workload and pool seed.

    python3 perfbench/record_checksums.py

Rewrites ``perfbench/checksums.json``.  The benchmark fails any call whose
output differs from this table, so re-record only for a change that is
meant to alter solver outputs, and say so in CHANGES.md.  Recording
refuses to write a table in which a certificate check fails.
"""
from __future__ import annotations

import json
import sys

import run  # pins the BLAS threads before numpy is imported


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    table: dict = {}
    for name in run.NAMES:
        workload = wl.WORKLOADS[name]
        setup = wl.prepare(wl.make_instance(workload))
        errors = wl.setup_errors(workload, setup)
        table[name] = {}
        for seed in range(wl.SEED_POOL):
            result = wl.run_pass(workload, setup, seed)
            errors += [e for call in result.errors for e in call]
            table[name][str(seed)] = result.checksums
            print(f"{name} seed {seed}: {result.checksums} solve_s={result.solve_s:.2f}", flush=True)
        if errors:
            print(f"{name}: certificate checks failed: {errors[:3]}", file=sys.stderr)
            return 1
    with open(wl.CHECKSUM_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {wl.CHECKSUM_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
