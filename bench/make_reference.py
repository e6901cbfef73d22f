#!/usr/bin/env python3
"""Write fock_reference.json: stored values of the fock_oracle averages with m > 6.

Those factor lists are fixed (drawn from REFERENCE_FACTOR_SEED, not from the
run's seed) because no functional prediction covers them.  Run from the
root of a checkout:

    python3 bench/make_reference.py
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import workloads

    values = {}
    for op in workloads.fock_oracle(seed=0).ops:
        if int(op.name.split("/")[1][1:]) > workloads.PREDICTED_MAX_FACTORS:
            value = op.call({})
            values[op.name] = [value.real, value.imag]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"reference_factor_seed": workloads.REFERENCE_FACTOR_SEED,
                   "values": values}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(values)} values to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
