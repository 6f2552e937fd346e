"""Regenerate reference.json, the stored values every request is checked against.

    python3 perfbench/make_reference.py

For fddem_infer and neck_train it runs each pool entry in f64 on the same
f32-drawn inputs and stores the L2 norm and seeded projections of every
output (and, for neck_train, every parameter gradient).  For certify it
stores the parameter names each block's certification covers.  It writes
nothing if any entry fails its own check (a failed certification, a
non-finite output).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402  (needs the src path above)

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def main() -> int:
    out = {"projections": wl.PROJECTIONS}
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        for name, cls in wl.WORKLOADS.items():
            work = cls(workdir, dtype="f64")
            entries = []
            for j in range(work.pool):
                result = work.request(j)
                record = work.reference_record(result)
                errors, _ = work.check(result, record)
                if errors:
                    print(f"{name} entry {j}: {errors}", file=sys.stderr)
                    return 1
                entries.append(record)
                print(f"{name} entry {j} done", file=sys.stderr)
            out[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
