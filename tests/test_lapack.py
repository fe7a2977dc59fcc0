"""`vnlw._lapack` binds scipy's own LAPACK and BLAS wrappers without importing scipy.linalg."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vnlw
from vnlw import _lapack

ROUTINES = ("dpteqr", "dstebz", "dstein", "dstevd", "zgttrf", "zgttrs", "zherk")


def outputs(lib) -> dict:
    """Each routine of `lib` on fixed inputs: name -> the bytes, dtype and shape of every output."""
    rng = np.random.default_rng(7)
    n = 40
    d, e = rng.uniform(2.0, 3.0, n), rng.uniform(-0.5, 0.5, n - 1)
    dl, dd, du = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (n - 1, n, n - 1))
    b, a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)) for r in (3, 5))
    w = lib.dstebz(d, e, 2, 0.0, 0.0, 1, 10, 0.0, "E")[1][:10]
    lu = lib.zgttrf(dl, dd + 4.0, du)
    results = {
        "dpteqr": lib.dpteqr(d, e, np.zeros((1, 1))),
        "dstebz": lib.dstebz(d, e, 2, 0.0, 0.0, 1, 10, 0.0, "E"),
        "dstein": lib.dstein(d, e, w, np.ones(n, dtype=np.intc), np.full(n, n, dtype=np.intc)),
        "dstevd": lib.dstevd(d, e),
        "zgttrf": lu,
        "zgttrs": lib.zgttrs(*lu[:-1], b),
        "zherk": (lib.zherk(1.0, a, trans=2, lower=1),),
    }
    return {name: [(np.asarray(x).tobytes().hex(), str(np.asarray(x).dtype), np.shape(x)) for x in out]
            for name, out in results.items()}


def _compare_in_fresh_process() -> dict:
    """Load `vnlw._lapack` first, then scipy.linalg, and compare the two in one process."""
    from vnlw import _lapack as ours
    before = sorted(m for m in ("scipy", "scipy.linalg") if m in sys.modules)
    mine = outputs(ours)
    import scipy.linalg
    from scipy.linalg import blas, lapack

    theirs = SimpleNamespace(**{r: getattr(blas if r == "zherk" else lapack, r) for r in ROUTINES})
    reference = outputs(theirs)
    w = scipy.linalg.eigh_tridiagonal(np.full(5, 2.0), np.full(4, -1.0), eigvals_only=True)
    return {
        "before": before,
        "identical": {r: mine[r] == reference[r] for r in ROUTINES},
        "same_object": {r: getattr(ours, r) is getattr(theirs, r) for r in ROUTINES},
        "scipy_linalg_works": bool(np.allclose(w, 2 - 2 * np.cos(np.arange(1, 6) * np.pi / 6))),
    }


@pytest.fixture(scope="module")
def fresh_process():
    here = Path(__file__).resolve().parent
    src = str(Path(vnlw.__file__).resolve().parents[1])
    script = ("import json, sys\n"
              f"sys.path.insert(0, {str(here)!r})\n"
              "import test_lapack\n"
              "print(json.dumps(test_lapack._compare_in_fresh_process()))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_loader_imports_no_scipy_package(fresh_process):
    assert fresh_process["before"] == []


@pytest.mark.parametrize("routine", ROUTINES)
def test_bit_identical_to_scipy_linalg(fresh_process, routine):
    assert fresh_process["identical"][routine]
    assert fresh_process["same_object"][routine]


def test_scipy_linalg_imports_after_loader(fresh_process):
    assert fresh_process["scipy_linalg_works"]


def test_missing_extension_names_its_path():
    with pytest.raises(ImportError, match=r"linalg[/\\]_fnone"):
        _lapack._extension("_fnone")
