"""Write the PROVENANCE.json entry of each named acceptance cell.

Usage, from any directory, once ``run_all.sh`` has finished the cells::

    python3 acceptance_runs/provenance.py c5_mu3_seed1 c5_mu3_seed2

Each entry records what a later reader needs to tell which code ran the
cell: the commit checked out here, the ``run_all.sh`` command (rebuilt from
the cell's ``config.json``), the golden log digests that
``tests/test_golden.py`` pins, the numpy version, the OpenBLAS build and
core with the thread count the cells run at, and the CPU.  Other cells'
entries are kept as they are.  ``tests/test_acceptance.py::TestProvenance``
checks the digests and configs against today's tree.
"""

from __future__ import annotations

import ast
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

# what run_all.sh exports for every cell; set before numpy loads OpenBLAS
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / "acceptance_runs"


def golden_log_digests() -> dict:
    """``tests/test_golden.py``'s log digests, keyed as ``TestProvenance`` keys them."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("GOLDEN", "BATCH_256_GOLDEN")
    }
    digests = {f"{algo}/{env}": log for algo, env, log, _, _ in values["GOLDEN"]}
    digests["csac_lb/tilt/batch_256"] = values["BATCH_256_GOLDEN"][0]
    return digests


def openblas() -> tuple[str, int]:
    """numpy's own scipy-openblas: its configuration with the core it picked, and threads."""
    (path,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")
    lib = ctypes.CDLL(str(path))
    config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    config.restype = core.restype = ctypes.c_char_p
    return f"{config().decode()}; core {core().decode()}", lib.scipy_openblas_get_num_threads64_()


def cpu() -> str:
    """The CPU's model name, family and model, as ``/proc/cpuinfo`` gives them."""
    info: dict = {}
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            info.setdefault(key.strip(), value.strip())
    return f"{info['model name']} (family {info['cpu family']}, model {info['model']})"


def command(cell: str) -> str:
    """The ``run_all.sh`` command that trains ``cell``, from its ``config.json``."""
    config = json.loads((RUNS_DIR / cell / "config.json").read_text())
    env = " ".join(f"{key}={value}" for key, value in BLAS_ENV.items())
    return (
        f"{env} python3 -m barrier_rl.cli train --algo {config['algo'].replace('_', '-')} "
        f"--env {config['env']} --seed {config['seed']} --steps {config['total_steps']} "
        f"--mu {config['mu']!r} --out acceptance_runs/{cell}"
    )


def main(cells: list[str]) -> int:
    if not cells:
        print(__doc__.strip().splitlines()[0], "Usage: provenance.py CELL...", sep="\n")
        return 2
    missing = [cell for cell in cells if not (RUNS_DIR / cell / "log.csv").exists()]
    if missing:
        print(f"error: no log.csv for {', '.join(missing)}; run run_all.sh first", file=sys.stderr)
        return 2
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    blas, threads = openblas()
    path = RUNS_DIR / "PROVENANCE.json"
    provenance = json.loads(path.read_text()) if path.exists() else {}
    for cell in cells:
        provenance[cell] = {
            "commit": commit,
            "command": command(cell),
            "golden_log_digests": golden_log_digests(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": threads,
            "cpu": cpu(),
        }
    path.write_text(json.dumps(dict(sorted(provenance.items())), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
