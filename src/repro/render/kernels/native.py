"""Build and load the compiled render kernels (``_native.c``).

The kernel compiles once, lazily, at the first :func:`library` call, so
importing the package never needs a compiler.  It is built with the
interpreter's C compiler (``sysconfig``'s ``CC``, else ``cc``) and
:data:`CFLAGS`, and cached beside the source in ``__pycache__/`` — or,
when the package directory is read-only, in a per-user temp directory —
under a name keyed by the SHA-256 of the source, the flags and the
compiler's ``--version``.  The library is written under a temporary name
and renamed into place, so concurrent builds never see a partial file.

There is no fallback: without a working compiler the first render raises
:class:`KernelBuildError`, naming the command that failed.  The per-pixel
oracles (``render/compositing.py``, ``kernels/reference.py``) stay the
bit-for-bit references.

:func:`f64`, :func:`i64` and :func:`ptr` marshal numpy arrays for the
kernels' ``ctypes`` calls; :func:`pointers` keeps the pointers of a
record's arrays (the projection, the composite cache, the gradient
accumulators, the tracker's frozen map) with it, so that the kernels of
one render and its reverse pass, or of every render of one tracked
frame, read each once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["CFLAGS", "SOURCE", "KernelBuildError", "compiler", "build",
           "load", "library", "f64", "i64", "ptr", "pointers"]

SOURCE = Path(__file__).with_name("_native.c")

#: Compiler flags.  FMA contraction or fast-math would change the bits the
#: kernel must share with the numpy engines and the oracles; -O3 does not
#: reassociate floating-point arithmetic, and measured 8–14 % faster than
#: -O2 on a dense frame (EXPERIMENTS.md).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: ``(argtypes, restype)`` of each entry point.
_ENTRY_POINTS = {
    "project_cull": ([ctypes.c_int64] + [ctypes.c_void_p] * 2
                     + [ctypes.c_double] * 10 + [ctypes.c_void_p],
                     ctypes.c_int64),
    "project_gather": ([ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
                       + [ctypes.c_void_p] * 4 + [ctypes.c_double] * 6
                       + [ctypes.c_void_p] * 9, ctypes.c_int),
    "candidate_cull": ([ctypes.c_int64] * 2 + [ctypes.c_void_p] * 6
                       + [ctypes.POINTER(ctypes.c_int64),
                          ctypes.POINTER(ctypes.c_void_p)], ctypes.c_int64),
    "candidate_place": ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                         ctypes.c_int64] + [ctypes.c_void_p] * 3,
                        ctypes.c_int64),
    "tile_cull": ([ctypes.c_int64] * 4 + [ctypes.c_void_p] * 8
                  + [ctypes.POINTER(ctypes.c_void_p)], ctypes.c_int64),
    "tile_place": ([ctypes.c_void_p, ctypes.c_int64]
                   + [ctypes.c_void_p] * 2, ctypes.c_int64),
    "alpha_finish": ([ctypes.c_int64] * 4 + [ctypes.c_void_p] * 7
                     + [ctypes.c_double] * 2, ctypes.c_int64),
    "composite_forward": ([ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
                          + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 9,
                          ctypes.c_int),
    "composite_reverse": ([ctypes.c_int64] * 4 + [ctypes.c_void_p] * 28,
                          ctypes.c_int),
    "reproject_twist": ([ctypes.c_int64] + [ctypes.c_void_p] * 5
                        + [ctypes.c_double] * 3 + [ctypes.c_void_p], None),
}


class KernelBuildError(RuntimeError):
    """The render kernel could not be compiled or loaded."""


def compiler() -> List[str]:
    """The interpreter's C compiler command: ``sysconfig``'s ``CC``, else
    ``cc``."""
    return shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]


def _run(cmd: List[str]) -> str:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise KernelBuildError(
            f"cannot build the render kernel: `{shlex.join(cmd)}` failed: "
            f"{exc}") from None
    if done.returncode != 0:
        raise KernelBuildError(
            f"cannot build the render kernel: `{shlex.join(cmd)}` exited "
            f"with status {done.returncode}:\n{done.stderr.strip()}")
    return done.stdout


def _cache_dir(source: Path) -> Path:
    """``__pycache__/`` beside ``source`` if writable, else a per-user
    temp directory."""
    for path in (source.parent / "__pycache__",
                 Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    raise KernelBuildError("no writable directory to cache the render "
                           "kernel in")


def build(source: Path = SOURCE, cache_dir: Optional[Path] = None,
          cc: Optional[List[str]] = None) -> Path:
    """The compiled library for ``source``: reused from ``cache_dir``
    (default: see the module docstring) when its key matches, else
    compiled there."""
    cc = list(cc or compiler())
    text = source.read_bytes()
    key = hashlib.sha256(b"\0".join([
        text, " ".join(CFLAGS).encode(),
        _run(cc + ["--version"]).encode()])).hexdigest()[:16]
    cache_dir = Path(cache_dir) if cache_dir is not None else _cache_dir(source)
    target = cache_dir / f"{source.stem}-{key}.so"
    if target.exists():
        return target
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=cache_dir)
    os.close(fd)
    try:
        _run(cc + list(CFLAGS) + ["-o", tmp, str(source)])
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load(path: Path) -> ctypes.CDLL:
    """Load a built library and declare its entry points."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load the render kernel {path}: {exc}") from None
    for name, (argtypes, restype) in _ENTRY_POINTS.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


_LIBRARY: Optional[ctypes.CDLL] = None


def library() -> ctypes.CDLL:
    """The process's kernel library, built or loaded on first use."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = load(build())
    return _LIBRARY


def f64(a) -> np.ndarray:
    """``a`` as a C-contiguous float64 array (no copy if it already is)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def i64(a) -> np.ndarray:
    """``a`` as a C-contiguous int64 array (no copy if it already is)."""
    return np.ascontiguousarray(a, dtype=np.int64)


#: A zero-length ctypes view, the cheap way to a writeable buffer's address.
_VIEW = ctypes.c_char * 0


def ptr(a):
    """The data pointer a kernel reads or writes; None passes NULL.

    A writeable array's address is read through the buffer protocol
    (``ctypes.addressof`` of a zero-length ctypes view, about 0.5 µs);
    ``ndarray.ctypes.data``, which builds numpy's Python ``_ctypes``
    helper (about 1.5 µs), reads the rest."""
    if a is None:
        return None
    if a.flags.writeable:
        return ctypes.addressof(_VIEW.from_buffer(a))
    return a.ctypes.data


#: Where :func:`pointers` keeps a record's pointers: ``name -> (field
#: array, array read, its pointer)``.
_MEMO = "_kernel_pointers"


class _Pointers(dict):
    """A record's kept pointers.  A copy or an unpickled record holds
    other arrays, so this copies and pickles as an empty memo and the
    copy reads its own pointers; a shallow copy shares the memo with the
    arrays, whose entries hold for both."""

    def __reduce__(self):
        return type(self), ()

    def __deepcopy__(self, memo):
        return type(self)()


def pointers(record, names, dtype=np.float64):
    """The data pointers of ``record``'s array fields ``names``, as
    C-contiguous arrays of ``dtype``, each read once per record.

    Kernels read the same projection and composite cache several times in
    one render and its reverse pass; an array cannot move while the record
    holds it, so its pointer is kept with the array (and the contiguous
    copy made of it, if one was) in the record's ``__dict__``.  A field
    replaced by another array is read again.  A kernel may write only
    through the pointer of a field that needed no copy.
    """
    memo = record.__dict__.get(_MEMO)
    if memo is None:
        memo = record.__dict__[_MEMO] = _Pointers()
    out = []
    for name in names:
        a = getattr(record, name)
        hit = memo.get(name)
        if hit is None or hit[0] is not a:
            c = np.ascontiguousarray(a, dtype=dtype)
            hit = memo[name] = (a, c, ptr(c))
        out.append(hit[2])
    return out
