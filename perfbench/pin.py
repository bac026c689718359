#!/usr/bin/env python3
"""Write pinned.json: the seed-0 fingerprint and output-file hashes of every
workload, which the result gate compares ops against.

Run from the root of a checkout, only when a change to fvbound is meant to
change results (and say so where the change is recorded):

    python3 perfbench/pin.py
"""

import json
import os
import sys

sys.path[:0] = [os.path.abspath("src")]

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0, os.path.join(".bench_build", "perfbench", name))
        wl.prepare()
        result = wl.result(wl.op())
        pinned[name] = {"fingerprint": result.fingerprint, "files": result.files}
        print(f"{name}: {json.dumps(result.fingerprint)}")
    with open(gate.PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
