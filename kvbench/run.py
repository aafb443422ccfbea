"""Benchmark of kvtrade: one workload per process, one closed-loop client.

Usage (from the repository root):

    python3 kvbench/run.py --workload recall_tradeoff --seed 0 --seconds 8 --trace 0

The workload's inputs are generated from ``--seed``. After set-up (repeated
three times; the median counts) the workload repeats whole passes until
``--seconds`` have elapsed, times every operation at the least time seen for
its shape (see workloads.py), checks every output, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the run makes one untraced and one traced pass, reports
the per-layer metrics, and writes every span to
``.kvbench/trace-<workload>-seed<seed>.jsonl``. The package is imported from
``src/`` of the checkout this file sits in, and nowhere else.
"""

import os
import time

T0 = time.perf_counter()

# One BLAS thread: the benchmark runs on two-core machines shared with other
# tenants, and a second BLAS thread waits on whichever core is busy elsewhere.
# Two threads bought 10% on recall_tradeoff and made its timings swing by a
# quarter from run to run. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_package():
    """Import kvtrade from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "kvtrade" / "__init__.py").is_file():
        sys.exit(f"kvbench: no kvtrade package under {src}")
    sys.path.insert(0, str(src))
    import kvtrade

    if Path(kvtrade.__file__).resolve().parent != (src / "kvtrade").resolve():
        sys.exit(f"kvbench: imported kvtrade from {kvtrade.__file__}, not from {src}")


_import_package()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def since_process_start() -> float:
    """Seconds from process creation to now, at the kernel's clock-tick resolution.

    Falls back to the time since this module started loading where the
    process table cannot be read.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T0


def _git_sha() -> str:
    """HEAD's commit from the .git directory, when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"version": f"{blas.get('name', '?')} {blas.get('version', '?')}", "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _ms_percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was measured because every operation failed."""
    return num / den if den else 0.0


def _least(passes, name: str) -> list[float]:
    """The first pass's operations, each timed at the least time of its shape.

    On a shared machine, interference comes in bursts of a second or two
    that slow everything by up to half. Operations of one shape do the same
    work and run seconds apart, so the least of their times filters those
    bursts out.
    """
    least: dict = {}
    for p in passes:
        for shape, seconds in getattr(p, name):
            least[shape] = min(seconds, least.get(shape, seconds))
    return [least[shape] for shape, _ in getattr(passes[0], name)]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _setup(name: str, seed: int, size) -> tuple[object, list[float]]:
    """Run the workload's set-up several times; keep the last state."""
    setup = workloads.WORKLOADS[name][0]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = setup(seed) if size is None else setup(seed, size)
        times.append(time.perf_counter() - start)
    return state, times


def _same_outputs(passes) -> list[str]:
    first = passes[0]
    return [
        f"pass {i} changed the outputs of pass 0"
        for i, p in enumerate(passes[1:], start=1)
        if (p.csv_sha256, p.logits_sha256) != (first.csv_sha256, first.logits_sha256)
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None,
                 trace_dir: Path | None = None, startup_s: float = 0.0) -> tuple[dict, dict]:
    """Run one workload; returns (result line, informational record).

    ``startup_s`` is the time already spent before set-up (interpreter start
    and imports); it is added to the median set-up time to give ``setup_s``.
    """
    _, run_pass, least_passes = workloads.WORKLOADS[name]
    state, setup_times = _setup(name, seed, size)
    setup_s = startup_s + statistics.median(setup_times)

    passes = []
    metrics: dict[str, dict] = {}
    if trace:
        passes.append(run_pass(state))
        tracer = tracing.Tracer()
        with tracer:
            passes.append(run_pass(state, tracer))
        for metric, (value, unit) in tracer.layer_metrics(
            passes[1].wall_s, passes[0].wall_s
        ).items():
            metrics[metric] = _metric(value, unit)
        if trace_dir is not None:
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"trace-{name}-seed{seed}.jsonl")
    else:
        start = time.perf_counter()
        while len(passes) < least_passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(state))
        step_s = _least(passes, "step_s")
        snapshot_s = _least(passes, "snapshot_s")
        first = passes[0]
        if first.points_are_streams:
            # every stream runs the same step and snapshot shapes
            point_s = [(sum(step_s) + sum(snapshot_s)) / first.points] * first.points
        else:
            point_s = _least(passes, "point_s")
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "points_per_s": _metric(_ratio(len(point_s), sum(point_s)), "1/s"),
            "point_ms_p50": _metric(_ms_percentile(point_s, 50), "ms"),
            "point_ms_p90": _metric(_ms_percentile(point_s, 90), "ms"),
            "decode_tokens_per_s": _metric(
                _ratio(len(step_s), sum(step_s) + sum(snapshot_s)), "1/s"),
            "decode_step_ms_p50": _metric(_ms_percentile(step_s, 50), "ms"),
            "decode_step_ms_p90": _metric(_ms_percentile(step_s, 90), "ms"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "accuracy_mean": _metric(_ratio(sum(first.accuracy), len(first.accuracy)), "ratio"),
            "logit_perturb_mean": _metric(_ratio(sum(first.perturb), len(first.perturb)), "logit"),
        }

    changed = _same_outputs(passes)
    problems = [msg for p in passes for msg in p.problems] + changed
    attempted = sum(p.ops for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + len(changed))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "setup_repeats_s": setup_times,
        "samples": {
            "passes": len(passes),
            "points": sum(p.points for p in passes),
            "decode_steps": sum(p.steps for p in passes),
            "point_shapes": 1 if passes[0].points_are_streams
            else len({shape for shape, _ in passes[0].point_s}),
            "step_shapes": len({shape for shape, _ in passes[0].step_s}),
        },
        "sha256": {"csv": passes[0].csv_sha256, "logits": passes[0].logits_sha256},
        "problems": problems[:20],
    }
    return line, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    line, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_dir=ROOT / ".kvbench", startup_s=since_process_start(),
    )
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
