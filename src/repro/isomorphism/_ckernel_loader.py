"""Locate, build and load the native kernel (`_ckernel.c`).

The C kernel is the only verification kernel, so this module either returns
a configured library or raises :class:`ImportError` saying how to get one.
The shared object is resolved through two options:

1. **Installed extension** — ``setup.py`` builds ``_ckernel.c`` as an
   extension module next to this file.  An extension module is an ordinary
   shared object, so its exported C symbols are consumed directly through
   :mod:`ctypes` (the module body is a stub; nothing is imported).
2. **Runtime compile cache** — under the legacy editable install (or a
   plain checkout) no extension is ever built, so the loader compiles the
   C source itself with ``cc -O3 -shared -fPIC`` (``$CC`` picks another
   compiler; any ``CFLAGS`` are appended, which is how CI builds the
   ASan/UBSan variant) into a per-user cache directory.  The artifact name
   is keyed on a hash of the C source, the platform, the ABI version and
   the extra flags, so editing ``_ckernel.c`` (or upgrading the repo) can
   never pick up a stale binary, a sanitised build never collides with the
   ``-O3`` one, and concurrent builders (e.g. test processes on a cold
   cache) race benignly through an atomic rename.

When both fail (no compiler, read-only home, unloadable artifact, ABI
mismatch) the first :func:`kernel` call raises an :class:`ImportError`
naming the C source, the compiler command and the tail of its error output;
the error is kept and raised again by every later call, so a process never
retries a failed build.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import os
import subprocess
import sysconfig
from pathlib import Path

__all__ = [
    "ABI_VERSION",
    "kernel",
    "native_kernel_path",
    "reset_for_testing",
]

#: must match CK_ABI_VERSION in _ckernel.c; the loader refuses mismatches
ABI_VERSION = 10

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: the loaded library and where it came from, once resolved
_kernel: ctypes.CDLL | None = None
_kernel_path: Path | None = None
#: the ImportError a failed resolution raised, raised again on every call
_error: ImportError | None = None


def _installed_extension() -> Path | None:
    """The setuptools-built extension module next to the source, if any."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = _SOURCE.with_name("_ckernel" + suffix)
        if path.is_file():
            return path
    return None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-ckernel"


def _extra_cflags() -> list[str]:
    """Flags from ``CFLAGS``, appended after the defaults (so they win)."""
    return os.environ.get("CFLAGS", "").split()


def _source_key(source: bytes) -> str:
    """Cache key covering everything that can invalidate a built artifact."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(source)
    digest.update(sysconfig.get_platform().encode())
    digest.update(str(ABI_VERSION).encode())
    digest.update("\0".join(_extra_cflags()).encode())
    return digest.hexdigest()


def _compile_cached() -> Path:
    """Compile the C source into the user cache (once per source hash).

    Concurrent callers (processes starting on a cold cache) may compile
    in parallel; each writes to a private temporary name and the final
    ``os.replace`` is atomic, so every racer ends up loading an identical,
    fully written artifact.
    """
    source = _SOURCE.read_bytes()
    out = _cache_dir() / f"_ckernel-{_source_key(source)}.so"
    if out.is_file():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    compiler = os.environ.get("CC", "").strip() or "cc"
    scratch = out.with_name(f"{out.stem}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", *_extra_cflags(),
             "-o", str(scratch), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch, out)
    finally:
        if scratch.exists():  # pragma: no cover - failed-compile cleanup
            try:
                scratch.unlink()
            except OSError:
                pass
    return out


def _configure(library: ctypes.CDLL) -> ctypes.CDLL | None:
    """Typedef the entry points; reject artifacts of a different ABI."""
    library.ck_abi_version.restype = ctypes.c_int64
    library.ck_abi_version.argtypes = ()
    if library.ck_abi_version() != ABI_VERSION:
        return None
    fn = library.ck_verify_many
    fn.restype = ctypes.c_int64
    # (ck_target**, num_targets, ck_plan**, num_plans, regions*,
    # by_component, out_matched*, out_tests*) — pointers passed as raw
    # addresses; the structs are compiled by the two entry points below.
    pointer, integer = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = (pointer, integer, pointer, integer, pointer, integer, pointer, pointer)
    # (n, offsets*, neighbours*, label_ids*, ranks*) -> malloc'd ck_target /
    # ck_plan block (NULL on allocation failure), released with ck_free;
    # driven by repro.isomorphism.compiled (FlatGraph, NativeTarget,
    # CompiledQueryPlan.native).
    for fn in (library.ck_compile_target, library.ck_compile_plan):
        fn.restype = pointer
        fn.argtypes = (integer, pointer, pointer, pointer, pointer)
    fn = library.ck_path_features
    # (n, offsets*, neighbours*, ranks*, max_length, label_hashes*) ->
    # malloc'd result block (NULL on allocation failure), released with
    # ck_free; marshalled by repro.features.paths.
    fn.restype = pointer
    fn.argtypes = (integer, pointer, pointer, pointer, integer, pointer)
    fn = library.ck_path_coverage
    # (n, offsets*, neighbours*, ranks*, max_length) -> covered vertices
    # summed over the path keys (-1 on allocation failure).
    fn.restype = integer
    fn.argtypes = (integer, pointer, pointer, pointer, integer)
    library.ck_free.restype = None
    library.ck_free.argtypes = (pointer,)
    # The cache-side probe table and the credit sums; driven by
    # repro.core.probe.  (entries_are_targets) -> ck_table*
    library.ck_table_new.restype = pointer
    library.ck_table_new.argtypes = (integer,)
    library.ck_table_free.restype = None
    library.ck_table_free.argtypes = (pointer,)
    # (table*, slot, entry_id, pairs*, num_pairs, num_vertices, num_edges,
    # compiled*) -> 0 / -1
    library.ck_table_set.restype = integer
    library.ck_table_set.argtypes = (
        pointer, integer, integer, pointer, integer, integer, integer, pointer
    )
    library.ck_table_clear.restype = None
    library.ck_table_clear.argtypes = (pointer, integer)
    library.ck_table_bytes.restype = integer
    library.ck_table_bytes.argtypes = (pointer,)
    # (table*, slot, header[5]*)
    library.ck_table_row.restype = None
    library.ck_table_row.argtypes = (pointer, integer, pointer)
    # (table*, pairs*, num_pairs, num_vertices, num_edges, out_slots*)
    # -> number of surviving slots
    library.ck_probe_filter.restype = integer
    library.ck_probe_filter.argtypes = (pointer, pointer, integer, integer, integer, pointer)
    # (table*, query_side*, slots*, num_slots, out_hit_ids*) -> hits / -1
    library.ck_probe_verify.restype = integer
    library.ck_probe_verify.argtypes = (pointer, pointer, pointer, integer, pointer)
    # (costs*, num_positions, masks*, num_masks, mask_words, out_totals*)
    library.ck_mask_sums.restype = None
    library.ck_mask_sums.argtypes = (pointer, integer, pointer, integer, integer, pointer)
    return library


def _import_error(error: Exception) -> ImportError:
    """The error :func:`kernel` raises for a failed build or load."""
    detail = f"{type(error).__name__}: {error}"
    command = getattr(error, "cmd", None)
    if command is not None:  # the compiler ran and failed, or timed out
        stderr = getattr(error, "stderr", None) or b""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        tail = "\n".join(stderr.strip().splitlines()[-12:])
        detail = f"`{' '.join(map(str, command))}` failed" + (f":\n{tail}" if tail else "")
    return ImportError(
        f"repro needs its C kernel, built from {_SOURCE}, and could not build "
        f"or load it: {detail}\nInstall a C toolchain and run `pip install -e .`, "
        "or set CC to a working C compiler."
    )


def kernel() -> ctypes.CDLL:
    """The configured :class:`ctypes.CDLL` of the C kernel.

    Resolution happens once per process.  A failure raises
    :class:`ImportError` (see :func:`_import_error`), and the same error is
    raised again by every later call: a host without a compiler does not
    retry the build on every verification call.
    """
    if _kernel is not None:
        return _kernel
    return _load()


def _load() -> ctypes.CDLL:
    """Resolve the library, or raise (and keep) the :class:`ImportError`."""
    global _kernel, _kernel_path, _error
    if _error is None:
        try:
            path = _installed_extension() or _compile_cached()
            library = _configure(ctypes.CDLL(str(path)))
            if library is None:
                raise OSError(f"{path} was built for another kernel ABI (expected {ABI_VERSION})")
        except Exception as error:  # noqa: BLE001 - every failure is reported the same way
            _error = _import_error(error)
            _error.__cause__ = error
        else:
            _kernel, _kernel_path = library, path
            return library
    raise _error


def native_kernel_path() -> Path:
    """Where the loaded shared object came from (diagnostics)."""
    kernel()
    return _kernel_path


def reset_for_testing() -> None:
    """Forget the cached resolution so tests can re-drive the loader.

    Production code never calls this: per-process resolution is stable by
    design.
    """
    global _kernel, _kernel_path, _error
    _kernel = _kernel_path = _error = None
