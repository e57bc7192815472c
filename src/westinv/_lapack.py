"""The four LAPACK routines westinv calls, dgtsv, dptsv, dpttrf and dpttrs,
taken from scipy's own f2py module scipy/linalg/_flapack.

scipy.linalg.lapack hands out that module's routines, but importing it runs
scipy.linalg's __init__, whose array-API layer is most of a westinv
process's start-up.  So the module is loaded by its file path after a plain
`import scipy`.  The sys.modules entry that the load adds is dropped again:
a later `import scipy.linalg` then loads the module itself, sets the
package's attribute, and hands out these same routine objects (CPython
keeps a single-phase extension's dict), so every result keeps its bits.  A
_flapack that scipy.linalg loaded first is used as it is.  If the file is
missing or fails to load, the routines come from scipy.linalg.lapack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.linalg._flapack"


def _flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        try:
            spec = importlib.util.spec_from_file_location(_NAME, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            break
        finally:
            sys.modules.pop(_NAME, None)
    from scipy.linalg import lapack
    return lapack


_module = _flapack()
dgtsv, dptsv, dpttrf, dpttrs = (_module.dgtsv, _module.dptsv, _module.dpttrf,
                                _module.dpttrs)
del _module
