"""Benchmark of bdgtools: three closed-loop workloads through the public CLI.

Run from the repository root::

    python3 perfbench/run.py --workload momentum --seed 1 --seconds 30 --trace 0

One client runs the workload's experiment list (see ``workloads.py``) back
to back, pass after pass, with no think time, until ``--seconds`` have
elapsed; every started pass is finished.  Each experiment is one in-process
call of ``bdgtools.cli.main`` or ``bdgtools.cli.run_manifest`` on the
sources under ``src/``.

On a shared 2-core box the machine's speed drifts by 25 % and more over
tens of seconds, which would hide a 10 % regression.  A fixed kernel
(:func:`calibrate`) is therefore timed before every experiment and after
the last one, outside the pass time, and a pass counts ``wall *
CALIBRATION_REF_S / mean kernel time``: seconds on a machine where the
kernel takes ``CALIBRATION_REF_S``.  Over 20 runs per workload this cut
the run-to-run spread of the median pass from 0.06-0.17 to 0.05-0.08.
The report lines give the raw times as well.  Set-up time is not
normalized: its imports are not tracked by the kernel.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
passes for half the time and untraced passes for the other half, and
reports the per-layer metrics and the tracing overhead; its spans are
written to ``.bench_build/trace-<workload>-seed<seed>.jsonl``.  The lines
before the last one on standard output are a readable report; the last
line is the JSON result.
"""

import os

# BLAS threads would stack on the pool threads of --threads: pin them
# before NumPy is loaded, here and in the set-up interpreters.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = {False: 3, True: 1}

CLI_COMMANDS = (
    "bands", "gap-scan", "chern", "verify", "ids", "dos", "fmm-decay",
    "phase-diagram", "run_manifest",
)

# span name -> per-layer metrics taken from it
LAYER_METRICS = {
    "lattice.assemble_bloch": ("calls", "self_s"),
    "lattice.assemble_finite_volume": ("calls", "self_s"),
    "lattice.eigenvalues": ("calls", "self_s", "n3_sum"),
    "models.build_model": ("calls", "self_s"),
    "models.central_gap": ("calls", "self_s"),
    "disorder.sample_realization": ("calls", "self_s", "reuse_ratio"),
    "disorder.build_random_hamiltonian": ("calls", "self_s"),
    "spectral.ids_estimate": ("self_s",),
    "spectral.ids_squared_estimate": ("self_s",),
    "spectral.dos_histogram": ("self_s",),
    "greens.ResolventSolver": ("calls", "self_s"),
    "greens.ResolventSolver.columns": ("calls", "self_s"),
    "greens.fractional_moment_scan": ("calls", "self_s", "fail_ratio"),
    "greens.localization_phase_diagram": ("self_s",),
    "greens.bloch_band_grid": ("calls", "self_s"),
    "chern.transfer_matrix": ("calls", "self_s"),
    "chern.chern_transfer": ("self_s",),
    "chern.berry_flux_chern": ("self_s",),
    "chern.transition_winding": ("self_s",),
    "chern.pauli_decompose": ("calls",),
    "chern.fermi_projector": ("self_s",),
    "chern.real_space_chern": ("self_s",),
    "parallel_map": ("calls", "items", "efficiency"),
}
# metric kind -> (unit, which direction is better)
KINDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
    "n3_sum": ("count", "lower"),
    "items": ("count", "lower"),
    "reuse_ratio": ("ratio", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "efficiency": ("ratio", "higher"),
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "check_pass_ratio": "ratio",
    "op_success_ratio": "ratio",
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = [(f"{span}.{kind}", kind) for span, kinds in LAYER_METRICS.items() for kind in kinds]
    names += [(f"cli.{cmd}.wall_s", "wall_s") for cmd in CLI_COMMANDS]
    names.append(("trace.overhead_s", "overhead_s"))
    return [(name, *KINDS[kind]) for name, kind in names]


# kernel time of calibrate() on an idle reference box (2 cores, Python
# 3.11, OpenBLAS 0.3.31); it only sets the scale of normalized times
CALIBRATION_REF_S = 0.016
_KERNEL_INPUTS = []


def calibrate() -> float:
    """Seconds taken by a fixed kernel: a Python loop, small and mid-size eigvalsh."""
    import numpy as np

    if not _KERNEL_INPUTS:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((160, 160))
        _KERNEL_INPUTS.extend([a + a.conj().T, b + b.T])
    small, big = _KERNEL_INPUTS
    t0 = time.perf_counter()
    x = 0.0
    for i in range(60000):
        x += (i % 7) * 0.5
    for _ in range(600):
        np.linalg.eigvalsh(small)
    for _ in range(9):
        np.linalg.eigvalsh(big)
    return time.perf_counter() - t0


@dataclass
class Pass:
    wall_s: float  # raw, calibration excluded
    times: dict = field(default_factory=dict)  # label -> seconds
    outputs: dict = field(default_factory=dict)  # label -> text, None if the call failed
    errors: dict = field(default_factory=dict)  # label -> message
    spans_end: int = 0  # tracer span count when the pass ended
    kernel_s: list = field(default_factory=list)  # calibrate() around the experiments

    @property
    def norm_s(self) -> float:
        return self.wall_s * CALIBRATION_REF_S / statistics.fmean(self.kernel_s)


def _call(cli, exp, out_dir: Path) -> str:
    """One experiment; returns its output text, or raises on failure."""
    if exp.argv is None:
        return cli.run_manifest(str(workloads.out_path(exp.replay_of, out_dir)) + ".manifest.json")
    rc = cli.main(workloads.resolve_argv(exp, out_dir))
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return workloads.out_path(exp.label, out_dir).read_text()


def run_pass(cli, exps, out_dir: Path, tracer=None) -> Pass:
    result = Pass(0.0)
    for exp in exps:
        result.kernel_s.append(calibrate())
        result.outputs[exp.label] = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result.outputs[exp.label] = _call(cli, exp, out_dir)
            else:
                result.outputs[exp.label] = tracer.call(f"cli.{exp.subcommand}", lambda span: _call(cli, exp, out_dir))
        except Exception as err:  # a failed call is counted, not fatal
            result.errors[exp.label] = f"{type(err).__name__}: {err}"
        result.times[exp.label] = time.perf_counter() - t0
    result.kernel_s.append(calibrate())
    result.wall_s = math.fsum(result.times.values())
    if tracer is not None:
        result.spans_end = len(tracer.spans)
    return result


def timed_passes(cli, exps, out_dir: Path, seconds: float, tracer=None) -> list[Pass]:
    """Closed loop: whole passes back to back until ``seconds`` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, exps, out_dir, tracer))
    return passes


def measure_setup(repeats: int) -> float:
    """Median time for a fresh interpreter to ``import bdgtools.cli``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bdgtools.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def evaluate(checks, passes: list[Pass]) -> list[tuple[str, bool, str]]:
    """Run the checks on the first pass; every later pass must repeat it byte for byte."""
    first = passes[0].outputs
    results = []
    for name, check in checks:
        try:
            check(first)
            results.append((name, True, ""))
        except Exception as err:  # a crashing check is a failed check
            results.append((name, False, f"{type(err).__name__}: {err}"))
    for i, p in enumerate(passes[1:], start=2):
        for label, text in p.outputs.items():
            same = text is not None and text == first[label]
            results.append((f"pass {i} repeats {label}", same, "" if same else "output differs from pass 1"))
    return results


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_id,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "threads": threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def counters(stats) -> dict:
    """The work counts of one traced pass, which must repeat exactly."""
    return {
        name: (st.calls, st.failed, st.n3, sorted(st.keys), st.items)
        for name, st in sorted(stats.items())
    }


def layer_metrics(per_pass: list[dict], traced: list[Pass], untraced: list[Pass], exps) -> dict:
    first = per_pass[0]

    def value(span: str, kind: str) -> float:
        st = first.get(span, spans.LayerStats())
        if kind == "calls":
            return st.calls
        if kind == "n3_sum":
            return st.n3
        if kind == "items":
            return st.items
        if kind == "reuse_ratio":
            return len(st.keys) / st.calls if st.calls else 0.0
        if kind == "fail_ratio":
            return st.failed / st.calls if st.calls else 0.0
        if kind == "self_s":
            return statistics.median(p.get(span, spans.LayerStats()).self_s for p in per_pass)
        if kind == "efficiency":
            return statistics.median(
                p[span].busy / p[span].capacity if span in p and p[span].capacity else 0.0 for p in per_pass
            )
        raise ValueError(kind)

    out = {f"{span}.{kind}": value(span, kind) for span, kinds in LAYER_METRICS.items() for kind in kinds}
    for cmd in CLI_COMMANDS:
        labels = [e.label for e in exps if e.subcommand == cmd]
        out[f"cli.{cmd}.wall_s"] = statistics.median(math.fsum(p.times[lb] for lb in labels) for p in untraced)
    out["trace.overhead_s"] = statistics.median(p.norm_s for p in traced) - statistics.median(p.norm_s for p in untraced)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("momentum", "ensemble", "localization"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bdgtools" / "cli.py").is_file():
        print(f"error: no bdgtools sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bdgtools import cli

    threads = min(workloads.THREADS[args.workload], len(os.sched_getaffinity(0)))
    exps = workloads.experiments(args.workload, args.seed, args.tiny, threads)
    env = environment(args, threads)

    print("environment:", json.dumps(env, sort_keys=True))

    BUILD.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        workloads.write_inputs(args.workload, out_dir)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = timed_passes(cli, exps, out_dir, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            left = spans.installed_wrappers()
            if left:
                raise RuntimeError(f"tracing wrappers left installed: {left}")
            untraced = timed_passes(cli, exps, out_dir, args.seconds / 2)
            passes = traced + untraced
        else:
            setup_s = measure_setup(SETUP_REPEATS[args.tiny])
            passes = timed_passes(cli, exps, out_dir, args.seconds)
        checks = workloads.CHECKS[args.workload] + workloads.run_level_checks(args.workload, args.seed, args.tiny)
        results = evaluate(checks, passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    passed = sum(ok for _, ok, _ in results)
    for i, p in enumerate(passes, start=1):
        detail = ", ".join(f"{lb} {t:.3f}" for lb, t in p.times.items())
        print(f"pass {i}: {p.wall_s:.3f} s, normalized {p.norm_s:.3f} s, kernel {statistics.fmean(p.kernel_s) * 1e3:.2f} ms [{detail}]")
        for label, msg in p.errors.items():
            print(f"  FAILED {label}: {msg}")
    print(f"checks: {passed}/{len(results)} passed")
    for name, ok, msg in results:
        if not ok:
            print(f"  FAIL {name}: {msg}")

    if args.trace:
        bounds = [0] + [p.spans_end for p in traced]
        per_pass = [spans.layer_stats(tracer.spans[a:b]) for a, b in zip(bounds, bounds[1:])]
        repeat = all(counters(s) == counters(per_pass[0]) for s in per_pass)
        print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, work counters repeat: {repeat}")
        path = BUILD / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            for record in tracer.to_records():
                fh.write(json.dumps(record) + "\n")
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        units = {name: unit for name, unit, _ in per_layer_names()}
        values = layer_metrics(per_pass, traced, untraced, exps)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        print(f"passes: {len(passes)}, median pass {statistics.median(p.wall_s for p in passes):.3f} s raw")
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.norm_s for p in passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": passed / len(results),
            "op_success_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0 and passed == len(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
