"""Alternating A/B pairs of the benchmark harness between two commits.

Run from the repository root::

    python3 tools/bench_pairs.py BASE CHANGE --pairs 10 --seconds 25 \\
        --workloads localization momentum ensemble --out BENCH_<n>.json

BASE and CHANGE are any git revisions.  Each is exported with ``git archive``
into its own directory under ``--workdir`` (both are removed at the end), and
every run is ``python3 perfbench/run.py --workload W --seed S --seconds T``
in that directory, so each side runs its own committed sources and its own
harness.  Pair i of a workload uses seed ``--seed + i`` for both sides, and
the side that runs first alternates from pair to pair, so slow drift of the
machine falls on both sides alike.

The output records, per workload and end-to-end metric, each side's values,
median and quartiles (``statistics.quantiles``, inclusive method), and the
number of pairs in which CHANGE was better, in the direction that
``BENCHMARK.json`` declares; plus the harness's environment block of each
side.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _directions() -> dict[str, str]:
    """End-to-end metric -> "lower" or "higher", as BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One harness run in ``tree``: (metric values, environment block)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln.split(":", 1)[1]) for ln in lines if ln.startswith("environment:"))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["correct"] = result["correct"]
    return values, env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision of the parent side")
    parser.add_argument("change", help="revision of the change side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--workloads", nargs="+", default=["localization", "momentum", "ensemble"])
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    better = _directions()
    shas = {"base": _git("rev-parse", args.base), "change": _git("rev-parse", args.change)}
    trees = {side: args.workdir / side for side in shas}
    doc = {"base": shas["base"], "change": shas["change"], "pairs": args.pairs,
           "seconds": args.seconds, "environment": {}, "workloads": {}}
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        for side, tree in trees.items():
            tree.mkdir()
            archive = subprocess.run(["git", "archive", shas[side]], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for workload in args.workloads:
            runs = {"base": [], "change": []}
            seeds = [args.seed + i for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    t0 = time.perf_counter()
                    values, env = run_once(trees[side], workload, seed, args.seconds)
                    runs[side].append(values)
                    doc["environment"].setdefault(side, env)
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"wall_s {values['wall_s']:.3f} ({time.perf_counter() - t0:.0f} s)",
                          flush=True)
            metrics = {}
            for name, direction in better.items():
                a = [r[name] for r in runs["base"]]
                b = [r[name] for r in runs["change"]]
                wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
                metrics[name] = {"better": direction, "base": summary(a), "change": summary(b),
                                 "change_wins": wins}
            doc["workloads"][workload] = {
                "seeds": seeds,
                "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
                "metrics": metrics,
            }
            wall = metrics["wall_s"]
            print(f"{workload}: wall_s {wall['base']['median']:.3f} -> "
                  f"{wall['change']['median']:.3f} (change better in {wall['change_wins']} "
                  f"of {args.pairs})", flush=True)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
        with contextlib.suppress(OSError):  # only if nothing else is left in it
            args.workdir.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
