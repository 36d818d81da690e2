"""Locate, build and load the native kernel (`_ckernel.c`).

The native backend must never be a hard dependency: the engine has to keep
working on hosts with no C compiler, no prebuilt extension and no writable
cache directory, and a worker process on a different host than its parent
must be free to fall back independently.  This module therefore resolves
the shared object through a chain of progressively weaker options and
reports plain unavailability (``None``) when every link fails:

1. **Installed extension** — ``setup.py`` builds ``_ckernel.c`` as an
   *optional* extension module next to this file.  An extension module is
   an ordinary shared object, so its exported C symbols are consumed
   directly through :mod:`ctypes` (the module body is a stub; nothing is
   imported).
2. **Runtime compile cache** — under the legacy editable install (or a
   plain checkout) no extension is ever built, so the loader compiles the
   C source itself with ``cc -O3 -shared -fPIC`` (plus any ``CFLAGS``,
   which is how CI builds the ASan/UBSan variant) into a per-user cache
   directory.  The artifact name is keyed on a hash of the C source, the
   platform, the ABI version and the extra flags, so editing
   ``_ckernel.c`` (or upgrading the repo) can never pick up a stale
   binary, a sanitised build never collides with the ``-O3`` one, and
   concurrent builders (e.g. a freshly spawned worker pool) race benignly
   through an atomic rename.
3. **Fallback** — anything failing above (no compiler, read-only home,
   unloadable artifact, ABI mismatch) disables the backend for this
   process; callers then resolve ``kernel="native"`` to ``"bigint"``.

Setting ``REPRO_DISABLE_NATIVE=1`` in the environment forces option 3 —
the switch the test suite and CI use to keep the pure-Python path honest.
The variable is inherited by worker processes, so a forced-fallback run is
forced everywhere.
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
    "native_kernel_available",
    "native_disabled",
    "native_kernel_path",
    "reset_for_testing",
]

#: must match CK_ABI_VERSION in _ckernel.c; the loader refuses mismatches
ABI_VERSION = 6

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: resolved state: ``False`` = not resolved yet, ``None`` = unavailable
_kernel = False
_kernel_path: Path | None = None


def native_disabled() -> bool:
    """True when ``REPRO_DISABLE_NATIVE`` forces the pure-Python fallback."""
    return os.environ.get("REPRO_DISABLE_NATIVE", "").strip() not in ("", "0")


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

    Concurrent callers (a worker pool spawning on a cold cache) may compile
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
    # (n, offsets*, neighbours*, ranks*, max_length, want_locations,
    # global_bytes*) -> malloc'd result block (NULL on allocation failure),
    # released with ck_free; marshalled by repro.features.paths.
    fn.restype = pointer
    fn.argtypes = (integer, pointer, pointer, pointer, integer, integer, pointer)
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
    # (table*, pairs*, num_pairs, num_vertices, num_edges, universe*,
    # universe_words, out_slots*) -> number of surviving slots
    library.ck_probe_filter.restype = integer
    library.ck_probe_filter.argtypes = (
        pointer, pointer, integer, integer, integer, pointer, integer, pointer
    )
    # (table*, query_side*, slots*, num_slots, out_hit_ids*) -> hits / -1
    library.ck_probe_verify.restype = integer
    library.ck_probe_verify.argtypes = (pointer, pointer, pointer, integer, pointer)
    # (costs*, num_positions, masks*, num_masks, mask_words, out_totals*)
    library.ck_mask_sums.restype = None
    library.ck_mask_sums.argtypes = (pointer, integer, pointer, integer, integer, pointer)
    return library


def kernel():
    """The configured :class:`ctypes.CDLL`, or ``None`` when unavailable.

    Resolution happens once per process and is cached, including the
    negative outcome — a host without a compiler must not retry the build
    on every verification call.
    """
    global _kernel, _kernel_path
    if _kernel is not False:
        return _kernel
    _kernel = None
    _kernel_path = None
    if native_disabled():
        return None
    try:
        path = _installed_extension()
        if path is None:
            path = _compile_cached()
        library = _configure(ctypes.CDLL(str(path)))
        if library is not None:
            _kernel = library
            _kernel_path = path
    except Exception:  # noqa: BLE001 - any failure means "unavailable"
        _kernel = None
    return _kernel


def native_kernel_available() -> bool:
    """True if the native kernel backend can run in this process."""
    return kernel() is not None


def native_kernel_path() -> Path | None:
    """Where the loaded shared object came from (diagnostics; ``None`` if
    the native backend is unavailable)."""
    kernel()
    return _kernel_path


def reset_for_testing() -> None:
    """Forget the cached resolution so tests can re-drive the loader.

    Production code never calls this: per-process resolution is stable by
    design (a worker that failed to load the kernel stays on bigint for
    its lifetime and reports so — see ``kernel_resolved`` in service
    stats).
    """
    global _kernel, _kernel_path
    _kernel = False
    _kernel_path = None
