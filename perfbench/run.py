"""textent benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pretrain --seed 7 --seconds 30 --trace 0

Run from the repository root. The benchmark imports ``textent`` from
``src/`` beside it and nowhere else. It prints one line describing the
environment, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
and the run's spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Fixed, so that runs on machines with different core counts compare; one
# thread keeps every run single-core, as the loop itself is.
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _import_textent():
    """Import the package from this checkout's ``src``, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import textent
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import textent from {src}: {exc}")
    if not Path(textent.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: textent resolved to {textent.__file__}, not under {src}")
    return textent


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _openblas() -> dict:
    """OpenBLAS version, core type and thread count, as the library reports them."""
    import ctypes
    import numpy as np

    info = {"coretype_env": os.environ.get("OPENBLAS_CORETYPE")}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if corename is not None and threads is not None:
                    corename.restype = ctypes.c_char_p
                    corename.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info["coretype"] = corename().decode()
                    info["threads"] = threads()
                    return info
    return info


def environment(textent, seed: int) -> dict:
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "textent": textent.__version__,
            "openblas": _openblas(), "blas_threads_requested": BLAS_THREADS,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_commit": _git_commit(), "seed": seed}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    textent = _import_textent()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(textent, args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(spans_path, {"workload": args.workload, "env": env})
    units = workloads.metric_units(bool(args.trace))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
