"""Run the benchmark over several seeds and record the trajectory point.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out FILE]

For every seed, in turn, runs each workload of BENCHMARK.json once with
`--trace 0` (seed-major, so slow spells of the machine are spread over the
workloads).  Then runs each workload twice with `--trace 1` on the first two
seeds and checks that the work counts agree exactly.  Writes, per workload
and metric, the median, the quartiles and the spread (interquartile range
over median, as `statistics.quantiles(values, n=4)` gives them) to
`perfbench/baseline.json` unless `--out` says otherwise, together with the
run metadata.  Runs one benchmark process at a time and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    start = time.time()
    values = {w: {} for w in names}
    meta = None
    for seed in seeds:
        for w in names:
            details, result = _run(w, seed, seconds, 0)
            meta = meta or details["meta"]
            line = {"seed": seed, "workload": w, "attempted":
                    result["attempted"], "failed": result["failed"]}
            for key, m in result["metrics"].items():
                values[w].setdefault(key, []).append(m["value"])
                line[key] = round(m["value"], 4)
            print(json.dumps(line), flush=True)

    layers = {}
    for w in names:
        runs = [_run(w, seed, seconds, 1) for seed in seeds[:2]]
        counts = [d["counts"] for d, _ in runs]
        layers[w] = {
            "counts_identical": counts[0] == counts[1]
                                and all(d["counts_repeat"] for d, _ in runs),
            "counts": counts[0],
            "layer_share": runs[0][0]["layer_share"],
            "metrics": {key: statistics.median(r["metrics"][key]["value"]
                                               for _, r in runs)
                        for key in runs[0][1]["metrics"]},
        }
        print(json.dumps({"workload": w, "counts_identical":
                          layers[w]["counts_identical"]}), flush=True)

    out = {"run_seconds": seconds, "seeds": seeds, "meta": meta,
           "end_to_end": {}, "per_layer": layers,
           "wall_s": time.time() - start}
    steady = True
    for w in names:
        out["end_to_end"][w] = {}
        for key, vals in values[w].items():
            st = _stats(vals)
            out["end_to_end"][w][key] = st
            flag = ""
            if key != "setup_s" and st["spread"] > bounds[key] / 3:
                flag = "  above a third of its bound"
                steady = False
            print(f"{w:12s} {key:15s} median {st['median']:12.5g} "
                  f"spread {st['spread']:.4f} bound {bounds[key]}{flag}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    counts_ok = all(layer["counts_identical"] for layer in layers.values())
    print(f"steady: {steady}; counts identical: {counts_ok}; "
          f"{out['wall_s']:.0f} s")
    return 0 if counts_ok else 1


if __name__ == "__main__":
    sys.exit(main())
