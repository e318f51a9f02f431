"""Record the reduction-table fingerprints that `exact-basis` checks.

    python3 perfbench/record_tables.py

Run from the root of a checkout.  For every space the workload can draw it
builds the basis and the tables of its support exactly as the timed
operation does, and writes their fingerprints (worker.table_fingerprint)
to perfbench/tables.json.  The file in the repository was recorded at the
commit that introduced the benchmark, so a later change that alters a
table fails the check.  Takes a few minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    run, check = worker._exact_setup({}, None)
    recorded = {}
    for dims, d in workloads.ExactBasis().spaces():
        out = check(run({"dims": list(dims), "d": d}))
        recorded[workloads.table_key(dims, d)] = out["tables"]
        print(workloads.table_key(dims, d), out["tables"], flush=True)
    with open(workloads.TABLES_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
