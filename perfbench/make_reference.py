#!/usr/bin/env python3
"""Regenerate reference.json from the current program's outputs.

    python3 perfbench/make_reference.py

For each workload and each seed in 0..SEEDS-1, runs one pass, applies the
full output checks, and stores the rule-side report fields, the oracle
objective, lower bound and certificate flag, and column digests of the trace
and sweep outputs. Later runs of the benchmark with one of these seeds
compare their outputs with this file.
Regenerate it only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sets the thread limits and the import path
import checks
import workloads

SEEDS = 32


def main() -> int:
    cli = run.load_cli()
    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    table: dict[str, dict[str, list]] = {w: {} for w in workloads.WORKLOADS}
    try:
        for seed in range(SEEDS):
            for workload in workloads.WORKLOADS:
                invs = workloads.prepare(workload, seed, work)
                outputs = run.Outputs(invs, None)
                outputs.check([run.call_main(cli, inv.argv) for inv in invs], "reference")
                if outputs.failed:
                    print("\n".join(outputs.problems), file=sys.stderr)
                    return 1
                table[workload][str(seed)] = [
                    {kind: checks.reference_entry(kind, path) for kind, path in inv.outputs.items()}
                    for inv in invs
                ]
            print(f"seed {seed} done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"seeds": SEEDS, "tolerance": checks.REL_TOL, "workloads": table}
    (run.HERE / "reference.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
