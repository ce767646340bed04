"""Determinism across the CPU kernels that OpenBLAS and numpy select.

A tiny train -> recover chain runs in one child process per setting: three
forced OpenBLAS kernels, and numpy with its AVX-512 loops switched off.
The README's determinism contract asks for the same bytes under each, and
ROADMAP item 19 records that the trained model's bytes differ today, so the
test is a strict xfail: it starts to fail, as an unexpected pass, on the
day all four agree.

The forced kernels include SkylakeX, so the test runs only on a host that
can execute AVX-512, and only where OpenBLAS is a DYNAMIC_ARCH build: in
any other build OPENBLAS_CORETYPE changes nothing.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import droprec
from droprec.cli import EXIT_OK, main

SETTINGS = {
    "skylakex": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}

# Run in each child, in its own output directory (argv[1]).
CHAIN = """
import sys
from droprec.cli import main
out = sys.argv[1]
sys.exit(main(["train", "--train", "corpus.jsonl", "--dev", "corpus.jsonl",
               "--fallback-dim", "8", "--dropout", "0.2", "--epochs", "2", "--seed", "3",
               "--out-model", f"{out}/model.json"])
         or main(["recover", "--model", f"{out}/model.json", "--in", "corpus.jsonl",
                  "--out", f"{out}/recovered.jsonl"]))
"""


def _openblas_is_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode="dicts", or no BLAS entry
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "").split()


def _host_runs_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512_SKX"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(not _openblas_is_dynamic_arch(),
                    reason="OpenBLAS is not a DYNAMIC_ARCH build")
@pytest.mark.skipif(not _host_runs_avx512(), reason="the CPU cannot run the SkylakeX kernel")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 19: the trained model's bytes depend on the CPU kernel")
def test_chain_bytes_do_not_depend_on_the_cpu_kernel(tmp_path):
    assert main(["gen", "--profile", "separable", "--n", "40", "--seed", "4",
                 "--out", str(tmp_path / "corpus.jsonl")]) == EXIT_OK
    src = str(Path(droprec.__file__).parents[1])
    base = {key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = {}
    for name, setting in SETTINGS.items():
        (tmp_path / name).mkdir()
        children[name] = subprocess.Popen(
            [sys.executable, "-c", CHAIN, name], cwd=tmp_path, env={**base, **setting},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        errors = {name: child.communicate(timeout=120)[1] for name, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
    for name, child in children.items():
        if child.returncode != EXIT_OK:  # not an AssertionError: a real failure, not the xfail
            raise RuntimeError(f"{name}: exit {child.returncode}: {errors[name].decode()}")
    for output in ("model.json", "recovered.jsonl"):
        digests = {name: _digest(tmp_path / name / output) for name in SETTINGS}
        assert len(set(digests.values())) == 1, (output, digests)
