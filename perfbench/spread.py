"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--out file.json] [--against earlier.json]

For every workload and end-to-end metric it prints the median over the runs
and the quartile spread (third minus first quartile, over the median) next
to the metric's bound in BENCHMARK.json.  A spread above a third of its bound
(setup_s excepted) is flagged as unsteady.  With --against, each median is
also compared with the same metric's median in an earlier --out file, and one
worse by more than its bound is flagged.  Runs are serial, one process at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run, stats  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = stats.quartile_spread(values) if median else 0.0
            bound = bounds.get(name)
            steady = bound is None or name == "setup_s" or spread < bound / 3
            ok &= steady
            rows[name] = dict(median=median, spread=spread, bound=bound, values=values)
            line = (f"  {name:<28} median {median:<12.6g} spread {spread:.4f}"
                    + (f"  bound {bound}" if bound is not None else "")
                    + ("" if steady else "  UNSTEADY"))
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before and bound is not None and before["median"]:
                change = median / before["median"] - 1
                worse = change if better[name] == "lower" else -change
                ok &= worse <= bound
                line += f"  change {change:+.4f}" + ("  WORSE" if worse > bound else "")
            print(line)
        summary[workload] = dict(
            runs=len(runs), attempted=[r["attempted"] for r in runs],
            failed=[r["failed"] for r in runs], metrics=rows)
    if args.out:
        record = dict(metadata=run.metadata(), notes=run.NOTES, run_seconds=spec["run_seconds"],
                      seeds=args.seeds, trace=args.trace, workloads=summary)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
