"""Run the benchmark repeatedly and record how steady its metrics are.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/NAME.json

Every workload of ``BENCHMARK.json`` is run ``--runs`` times, each run a
fresh ``run.py`` process with its own seed (1, 2, ...).  For every
end-to-end metric the result set holds the per-run values, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the inter-quartile distance as a share of the median, next to the bound
from ``BENCHMARK.json``.  Host facts (Python version, usable CPUs, load
average at the start and end of every run) are kept with the values, so
a run slowed by a neighbour shows instead of being averaged away.

Two traced runs per workload, with seeds 1 and 2, record whether every
count metric (and every ratio of counts) repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(x[5:]) for x in lines if x.startswith("host ")), None)
    wall = {x.split()[1]: float(x.split()[2]) for x in lines if x.startswith("wall ")}
    result = json.loads(lines[-1]) if lines else None
    return {"seed": seed, "exit": proc.returncode, "host": host, "result": result,
            "wall": wall, "stderr": proc.stderr[-2000:]}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = spread <= bound
        out["within_third_of_bound"] = spread <= bound / 3
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, help="write the result set here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # every per-layer metric but times and the overhead ratio is a count
    # of work, or a ratio of two, and must repeat exactly
    counts = {m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace_overhead_ratio"}
    report: dict = {"settings": {"runs": args.runs, "seconds": args.seconds,
                                 "first_seed": FIRST_SEED},
                    "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        good = [r for r in runs if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        ok &= len(good) == len(runs)
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in good],
                                   bounds[name])
                   for name in bounds} if len(good) >= 2 else {}
        wall = {name: summarize([r["wall"][name] for r in good], None)
                for name in good[0]["wall"]} if len(good) >= 2 else {}
        entry = {"runs": runs, "summary": summary, "wall_summary": wall}
        for name, s in summary.items():
            flag = "ok" if s["within_third_of_bound"] else (
                "within bound" if s["within_bound"] else "TOO WIDE")
            unscaled = f", wall spread {wall[name]['spread']:.4f}" if name in wall else ""
            print(f"{workload:8} {name:12} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}{unscaled}")
        traced = [run_once(workload, FIRST_SEED + i, args.seconds, 1)
                  for i in range(TRACE_RUNS)]
        values = [{k: v["value"] for k, v in t["result"]["metrics"].items()}
                  for t in traced if t["result"]]
        differing = sorted(k for k in counts if len({v.get(k) for v in values}) > 1)
        entry["traced"] = {"runs": traced, "counts_differing": differing}
        print(f"{workload:8} traced runs: {len(values)}, count metrics differing: "
              f"{differing or 'none'}")
        ok &= len(values) == TRACE_RUNS and not differing
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
