"""Build and load the compiled composite kernel (``_native.c``).

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

__all__ = ["CFLAGS", "SOURCE", "KernelBuildError", "compiler", "build",
           "load", "library"]

SOURCE = Path(__file__).with_name("_native.c")

#: Compiler flags.  FMA contraction or fast-math would change the bits the
#: kernel must share with the numpy engines and the oracles.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_FORWARD_ARGS = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6 + [
    ctypes.c_double] * 2 + [ctypes.c_void_p] * 9
_REVERSE_ARGS = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 25


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
    """Load a built library and declare its two entry points."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load the render kernel {path}: {exc}") from None
    lib.composite_forward.argtypes = _FORWARD_ARGS
    lib.composite_forward.restype = ctypes.c_int
    lib.composite_reverse.argtypes = _REVERSE_ARGS
    lib.composite_reverse.restype = ctypes.c_int
    return lib


_LIBRARY: Optional[ctypes.CDLL] = None


def library() -> ctypes.CDLL:
    """The process's kernel library, built or loaded on first use."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = load(build())
    return _LIBRARY
