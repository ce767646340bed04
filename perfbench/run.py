"""droprec benchmark entry point.

    python3 perfbench/run.py --workload {train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full record (environment, per-workload detail,
output digests, failures) goes to ``perfbench/results/``; a traced run
also writes its spans there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def _blas() -> dict:
    import numpy as np

    info = {"threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes, getter.restype = [], ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "infer"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "droprec" / "__init__.py").is_file():
        print(f"error: no droprec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    env = environment()
    try:
        record = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    tracer = record.pop("tracer")
    record["environment"] = env

    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}.spans.npz")
        record["spans_file"] = f"{stem}.spans.npz"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(workloads.result_line(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
