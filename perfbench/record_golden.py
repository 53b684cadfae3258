"""Record each workload's result digests at the default seed.

    python3 perfbench/record_golden.py

Run from the root of a checkout, only when a change alters the bits of
``result.json`` or ``summary.csv`` on purpose; the change then says so and
shows that the statistics agree.  Writes perfbench/golden.json.
"""

from __future__ import annotations

import json
import os
import shutil

from run import (DEFAULT_SEED, GOLDEN, RUN_LIMIT_S, WORK, WORKLOADS, _now,
                 run_child, workload_config)


def main() -> None:
    tmp = WORK / f"tmp-{os.getpid()}"
    digests = {}
    try:
        for name in WORKLOADS:
            report = run_child("run", workload_config(name, DEFAULT_SEED),
                               tmp / name, _now() + RUN_LIMIT_S)
            digests[name] = report["digests"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
