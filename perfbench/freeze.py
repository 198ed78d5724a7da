"""Regenerate ``expected.json``, the constants the oracle compares with.

Runs one pass of every workload with the oracle recording instead of
checking; derivation checks still run, and their failures are listed.
Only run it at a commit whose answers are known to be right, from the
repository root:

    python3 perfbench/freeze.py
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import OUT, spawn
from inputs import WORKLOADS
from oracle import EXPECTED_PATH


def main() -> int:
    OUT.mkdir(exist_ok=True)
    recorded: dict = {}
    work_dir = tempfile.mkdtemp(prefix="freeze-", dir=OUT)
    try:
        for workload in WORKLOADS:
            res = spawn(workload, 0, work_dir, freeze=True)
            if res["exit"] != 0:
                print(f"{workload}: {res.get('error')}", file=sys.stderr)
                return 1
            recorded.update(res["recorded"])
            print(f"{workload}: {len(res['recorded'])} values, "
                  f"{res['failed']} of {res['attempted']} derivation checks failed")
            for message in res["messages"]:
                print(f"  {message}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
