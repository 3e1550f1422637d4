"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload train-csac-tilt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports barrier_rl from ``src/`` there
and fails when that is missing.  With ``--trace 0`` it times the workload
with nothing patched and reports the end-to-end metrics.  With ``--trace 1``
it runs half of the workload's units untraced and the other half traced,
and reports the per-layer metrics.  The number of units follows from
``--seconds`` and the workload alone.  The last line of standard
output is one JSON object; the lines before it repeat the metrics by name,
with the machine metadata and the output fingerprints.  A fuller record
(every unit, every set-up sample, the spans of a traced run) goes to
``.perfbench_out/`` under the root.  ``--workload all`` runs every workload,
each in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-csac-tilt", "train-rs-pointnav", "eval-swing", "bound")

# name, unit; the bounds live in BENCHMARK.json
END_TO_END = (("work_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def blas_threads_in_use(np) -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a readable OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the repository rooted exactly at ROOT, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_sha256() -> str:
    """Digest of every source file under src/, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
    }


def check_fingerprints(units, key: str) -> str:
    """Mark units whose output differs from earlier runs of the same code as failed.

    The reference is the fingerprint recorded for ``key`` (same source
    digest, workload, seed and BLAS threads) by an earlier run in this
    checkout, else the first good unit of this run, which is then recorded.
    """
    path = OUT / "fingerprints.json"
    registry = json.loads(path.read_text()) if path.exists() else {}
    good = [u.fingerprint for u in units if u.failed == 0]
    reference = registry.get(key, good[0] if good else "")
    for u in units:
        if u.failed == 0 and u.fingerprint != reference:
            u.failed = u.attempted
            u.detail["fingerprint_mismatch"] = {"expected": reference, "got": u.fingerprint}
    if key not in registry and reference and all(u.failed == 0 for u in units):
        registry[key] = reference
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return reference


def run_one(args) -> int:
    if not (ROOT / "src" / "barrier_rl" / "__init__.py").is_file():
        print(f"no barrier_rl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    from workloads import WORKLOADS, best_rate, run_segment, unit_count

    machine = machine_info(np)
    if machine["blas_threads_in_use"] not in (None, BLAS_THREADS):
        print(f"BLAS runs {machine['blas_threads_in_use']} threads, not {BLAS_THREADS}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        inputs = workload.inputs(args.seed)
        prepared = workload.prepare(inputs, work_dir)
        seconds = args.seconds if args.trace == 0 else args.seconds / 2
        count = unit_count(workload, seconds)
        setup_samples, units, state = run_segment(
            workload, inputs, prepared, work_dir, count, workload.setup_reps
        )
        traced_units = []
        if args.trace == 1:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                with tracer.span(tracing.ROOT) as root:
                    _, traced_units, _ = run_segment(
                        workload, inputs, prepared, work_dir, count, 0, state
                    )
            tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
    finally:
        shutil.rmtree(work_dir)

    all_units = units + traced_units
    key = f"{machine['src_sha256']}/{workload.name}/seed={args.seed}/blas={BLAS_THREADS}"
    fingerprint = check_fingerprints(all_units, key)
    attempted = sum(u.attempted for u in all_units)
    failed = sum(u.failed for u in all_units)
    rate = best_rate(units)
    if args.trace == 0:
        values = {
            "work_per_s": rate,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": units[-1].peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced_rate = best_rate(traced_units)
        overhead = rate / traced_rate - 1.0 if traced_rate else 0.0
        metrics = tracing.layer_metrics(tracer, root, len(traced_units), overhead)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs": workload.describe(inputs),
        "setup_samples_s": setup_samples,
        "units": [vars(u) for u in units],
        "traced_units": [vars(u) for u in traced_units],
        workload.fingerprint_name: fingerprint,
        "failed_share": failed / attempted,
        "metrics": metrics,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# {workload.name} seed={args.seed} trace={args.trace} units={len(all_units)}")
    print("# machine " + json.dumps(machine))
    print(f"{workload.fingerprint_name} = {fingerprint}")
    if args.trace == 0:
        print(f"{workload.rate_name} = {rate!r} 1/s (reported as work_per_s)")
        for name in ("setup_s", "peak_rss_mb"):
            print(f"{name} = {metrics[name]['value']!r} {metrics[name]['unit']}")
    else:
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_share = {failed / attempted!r} ({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        done = subprocess.run([sys.executable, __file__, *argv, "--trace", str(args.trace)])
        code = max(code, done.returncode)
    return code


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
