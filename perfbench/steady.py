"""Steadiness mode: repeat every workload and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workloads sweep-cold serve-mix]
        [--seed-base 1] [--seconds 40]

Run ``i`` uses seed ``seed-base + i`` for every workload; the order of the
workloads alternates between runs, so no workload always runs first.
Every run is untraced (``--trace 0``), so it reports the end-to-end
metrics.  For each metric the table shows the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
spread as a share of the median.  A spread over the metric's bound in
``BENCHMARK.json`` is flagged ``OVER``; one over a third of it ``WIDE``.
The exit code is 1 if any run failed or any spread is ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    bad = False
    for index in range(args.runs):
        order = args.workloads if index % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result = run_once(workload, args.seed_base + index, args.seconds)
            if not result["correct"] or result["failed"]:
                bad = True
                print(f"{workload} seed {args.seed_base + index}: "
                      f"{result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload}: "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)

    header = f"{'workload':<15}{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}"
    print(header + f"{'spread':>9}{'bound':>8}  flag")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, q2, q3 = stats.quartiles(series)
            spread = stats.relative_spread(series)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else "WIDE" if spread > bound / 3 else "ok"
                bad = bad or flag == "OVER"
            bound_text = f"{bound:.3f}" if bound is not None else "-"
            print(f"{workload:<15}{name:<30}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{bound_text:>8}  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
