"""The LAPACK and BLAS routines of the eigensolves and propagators, without scipy.linalg.

`scipy.linalg.lapack` and `scipy.linalg.blas` re-export the routines of two
f2py extension modules, `scipy.linalg._flapack` and `scipy.linalg._fblas`.
Importing either runs all of `scipy/linalg/__init__.py`, whose array-API layer
also loads numpy.testing, numpy.f2py, numpy.ma and numpy.random: 0.25-0.35 s on
a 2-vCPU host, more than most runs compute.  The two extension modules need
only numpy, so they are loaded here from their files.  `find_spec("scipy")`
locates the package without running its `__init__`.

Each module is registered in `sys.modules` under its full name, as an import
would, so a later `import scipy.linalg` reuses it: the routines bound here are
the very objects `scipy.linalg.lapack` and `.blas` hand out.

`_flapack` loads with this module.  `_fblas` (about 1.3 MB resident) loads on
the first access to `zherk`, which only the reduced-operator trajectory and
`entropy_from_reduced` call, so no other run maps it.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES


def _extension(name: str):
    """scipy.linalg's extension module `name`, loaded from its file."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("vnlw needs scipy's LAPACK and BLAS wrappers, and scipy is not installed",
                          name=fullname)
    stem = os.path.join(scipy.submodule_search_locations[0], "linalg", name)
    path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
    if path is None:
        expected = stem + EXTENSION_SUFFIXES[0]
        raise ImportError(f"scipy has no extension module {fullname} at {expected}",
                          name=fullname, path=expected)
    spec = importlib.util.spec_from_file_location(fullname, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


_flapack = _extension("_flapack")

dpteqr = _flapack.dpteqr
dstebz = _flapack.dstebz
dstein = _flapack.dstein
dstevd = _flapack.dstevd
zgttrf = _flapack.zgttrf
zgttrs = _flapack.zgttrs


def __getattr__(name: str):
    """`zherk`, bound from `_fblas` on its first access and kept as a module global."""
    if name != "zherk":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global zherk
    zherk = _extension("_fblas").zherk
    return zherk
