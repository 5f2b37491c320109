#!/usr/bin/env python3
"""Per-layer report: every end-to-end and per-layer metric of every
workload, by name, with unit and sample count, then one table of each
layer's self-time share per workload.

    python3 perfbench/report.py [--seed 1] [--seconds 12] [--workloads a,b]

Runs perfbench/run.py's measurement twice per workload (untraced, then
traced) and exits non-zero if any output check failed.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

SHARE_ROWS = [f"{layer}.self_frac" for layer in run.SHARE_LAYERS] + [
    "obs.replica_frac", "obs.unattributed_frac", "obs.trace_overhead_frac"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    names = args.workloads.split(",")

    ok = True
    shares = {}
    host = None
    for name in names:
        for trace in (0, 1):
            try:
                result, detailed, host = run.measure(name, args.seed,
                                                     args.seconds, trace)
            except run.BenchError as e:
                print(f"{name}: {e}", file=sys.stderr)
                return 2
            ok &= result["correct"]
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"\n== {name} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            print(f"  {'metric':34} {'value':>14} {'unit':<6} samples")
            for key, (value, unit, samples) in detailed.items():
                print(f"  {key:34} {value:14.6g} {unit:<6} {samples}")
            if trace:
                shares[name] = {key: detailed[key][0] for key in SHARE_ROWS}

    print(f"\n== self-time share of the traced replay (seed {args.seed}; "
          f"{host['build_type']}, {host['compiler']}, "
          f"nproc {host['nproc']})")
    print("   sim/core/net split run_until self time by their exact counts;")
    print("   replicas = the benchmark's duplicate timing calls.")
    print(f"  {'layer':24}" + "".join(f"{n:>14}" for n in names))
    for key in SHARE_ROWS:
        print(f"  {key:24}"
              + "".join(f"{shares[n][key]:14.4f}" for n in names))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
