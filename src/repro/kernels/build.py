"""Compile the native batch kernel on demand and bind it via ctypes.

There is no build step and no binary in the repo: the C source
(``native_src.c``) ships alongside this module and is compiled with the
system C compiler the first time the ``native`` kernel is requested.
The shared object is cached under ``~/.cache/repro/kernels/`` keyed by
a digest of the source and the compiler flags, so recompiles only happen
when either changes.

``REPRO_KERNEL_SANITIZE=1`` builds the kernel with AddressSanitizer and
UndefinedBehaviorSanitizer instead (:data:`SANITIZE_CFLAGS`), any report
fatal.  Loading that object into CPython needs the ASan runtime first in
the process: run with ``LD_PRELOAD=$(gcc -print-file-name=libasan.so)``
and ``ASAN_OPTIONS=detect_leaks=0`` (the interpreter's own allocations
would otherwise read as leaks at exit).

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` simply makes :func:`load_native` return ``None``
and callers fall back to the dict-driven reference driver.

The ctypes ``Structure`` classes here must stay field-for-field in sync
with the structs at the top of ``native_src.c``; ``rw_abi_version`` is
checked at load time so a stale cached ``.so`` can never be misread.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

_ABI_VERSION = 4

_SOURCE = Path(__file__).resolve().parent / "native_src.c"

#: IEEE-754 semantics are load-bearing: the kernel must produce the
#: exact double stream CPython does, so contraction stays off and no
#: fast-math flag may ever appear here.  ``-O3`` is safe under that
#: constraint (it never relaxes FP semantics on its own) and buys a
#: measurable win on the victim-scan loops.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: the sanitized build (``REPRO_KERNEL_SANITIZE=1``): the same IEEE
#: constraint, with every ASan/UBSan finding fatal
SANITIZE_CFLAGS = (
    "-O1",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
)

_int64 = ctypes.c_int64
_uint8 = ctypes.c_uint8
_double = ctypes.c_double
_p_int64 = ctypes.POINTER(ctypes.c_int64)
_p_uint8 = ctypes.POINTER(ctypes.c_uint8)
_p_uint64 = ctypes.POINTER(ctypes.c_uint64)
_p_double = ctypes.POINTER(ctypes.c_double)

#: the ``on_epoch`` trampoline: C -> Python at epoch boundaries; a
#: nonzero return aborts the run (the Python side stores the exception).
EPOCH_CB = ctypes.CFUNCTYPE(ctypes.c_int32)


class CacheCtx(ctypes.Structure):
    _fields_ = [
        ("num_sets", _int64),
        ("ways", _int64),
        ("index_bits", _int64),
        ("offset_bits", _int64),
        ("tag", _p_int64),
        ("stamp", _p_int64),
        ("owner", _p_int64),
        ("valid", _p_uint8),
        ("dirty", _p_uint8),
        ("read_seen", _p_uint8),
        ("write_seen", _p_uint8),
        ("filled", _p_int64),
        ("dirty_lines", _p_int64),
        ("sharers", _p_uint64),
        ("last_writer", _p_int64),
        ("victim_kind", _int64),
        ("target_clean", _int64),
        ("policy_cores", _int64),
        ("clean_targets", _p_int64),
        ("dirty_targets", _p_int64),
        ("clock", _int64),
        ("sample_stride", _int64),
        ("sampler_route_mod", _int64),
        ("shadow_slots", _int64),
        ("shared_sampler", _int64),
        ("sh_tags", _p_int64),
        ("sh_len", _p_int64),
        ("sh_touched", _p_uint8),
        ("hist", _p_int64),
        ("epoch_period", _int64),
        ("epoch_left", _int64),
        ("epoch_cb", EPOCH_CB),
        ("read_hits", _int64),
        ("write_hits", _int64),
        ("read_misses", _int64),
        ("write_misses", _int64),
        ("evictions", _int64),
        ("dirty_evictions", _int64),
        ("writebacks", _int64),
        ("evicted_ro", _int64),
        ("evicted_wo", _int64),
        ("evicted_rw", _int64),
        ("tracked", _int64),
        ("peak_tracked", _int64),
        ("shared_lines", _int64),
        ("shared_accesses", _int64),
        ("shared_writes", _int64),
        ("write_migrations", _int64),
        ("shared_evictions", _int64),
        ("status", _int64),
        ("policy_kind", _int64),
        ("rrpv", _p_int64),
        ("signature", _p_int64),
        ("outcome", _p_int64),
        ("roles", _p_uint8),
        ("psel", _int64),
        ("psel_max", _int64),
        ("psel_mid", _int64),
        ("coin", _int64),
        ("coin_odds", _int64),
        ("counters", _p_int64),
        ("counter_mask", _int64),
        ("counter_max", _int64),
        ("bypass_writes", _int64),
        ("bypassed_writes", _int64),
        ("bypasses", _int64),
    ]


class LaneCtx(ctypes.Structure):
    _fields_ = [
        ("set_stream", _p_int64),
        ("tag_stream", _p_int64),
        ("write_stream", _p_uint8),
        ("cycle_stream", _p_double),
        ("gap_stream", _p_int64),
        ("timed", _int64),
        ("hit_stall", _double),
        ("miss_stall", _double),
        ("cycles", _double),
        ("read_stall", _double),
        ("write_stall", _double),
        ("instructions", _int64),
        ("cycle_limit", _double),
        ("wb_ring", _p_double),
        ("wb_cap", _int64),
        ("wb_head", _int64),
        ("wb_len", _int64),
        ("wb_entries", _int64),
        ("wb_drain", _double),
        ("wb_server_free", _double),
        ("wb_stall_cycles", _double),
        ("wb_writes", _int64),
        ("core", _int64),
        ("rh", _int64),
        ("rm", _int64),
        ("wh", _int64),
        ("wm", _int64),
        ("first_unconditional", _int64),
        ("origin_stream", _p_int64),
        ("levels", _p_int64),
        ("mem", _p_int64),
        ("wb_out", _p_int64),
        ("wb_out_count", _int64),
        ("pc_stream", _p_int64),
    ]


class MultiCtx(ctypes.Structure):
    _fields_ = [
        ("num_cores", _int64),
        ("lanes", ctypes.POINTER(LaneCtx)),
        ("lengths", _p_int64),
        ("warmup", _int64),
        ("position", _p_int64),
        ("done", _p_uint8),
        ("effective", _p_double),
        ("base_rh", _p_int64),
        ("base_rm", _p_int64),
        ("base_wh", _p_int64),
        ("base_wm", _p_int64),
        ("frozen_rh", _p_int64),
        ("frozen_rm", _p_int64),
        ("frozen_wh", _p_int64),
        ("frozen_wm", _p_int64),
        ("frozen_instr", _p_int64),
        ("frozen_cycles", _p_double),
        ("ticks", _p_int64),
        ("remaining", _int64),
    ]


class PcmCtx(ctypes.Structure):
    _fields_ = [
        ("read_index_bits", _int64),
        ("block_shift", _int64),
        ("part_mask", _int64),
        ("read_latency", _double),
        ("write_latency", _double),
        ("slice_len", _double),
        ("mlp", _double),
        ("queue_entries", _int64),
        ("write_free", _p_double),
        ("read_free", _p_double),
        ("queue", _p_double),
        ("queue_len", _int64),
        ("reads", _int64),
        ("writes", _int64),
        ("pause_events", _int64),
        ("queue_full_stalls", _int64),
        ("read_wait_cycles", _double),
        ("write_stall_cycles", _double),
        ("write_busy_cycles", _double),
    ]


class FilterCtx(ctypes.Structure):
    _fields_ = [
        ("set_stream", _p_int64),
        ("tag_stream", _p_int64),
        ("write_stream", _p_uint8),
        ("origins", _p_int64),
        ("levels", _p_int64),
        ("level", _int64),
        ("core", _int64),
        ("out_blocks", _p_int64),
        ("out_write", _p_uint8),
        ("out_origin", _p_int64),
        ("out_count", _int64),
        ("forwarded", _int64),
    ]


@dataclass(frozen=True)
class NativeLib:
    """The loaded shared object with typed entry points."""

    path: Path
    run_trace: "ctypes._NamedFuncPointer"
    lru_filter: "ctypes._NamedFuncPointer"
    multicore: "ctypes._NamedFuncPointer"
    timing_walk: "ctypes._NamedFuncPointer"


def cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernels"


def find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


def cflags() -> tuple:
    """The compiler flags of this process's build."""
    if os.environ.get("REPRO_KERNEL_SANITIZE") == "1":
        return SANITIZE_CFLAGS
    return _CFLAGS


def _build_digest(flags: tuple) -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update("\0".join(flags).encode())
    return digest.hexdigest()[:16]


def compile_native(verbose: bool = False) -> Optional[Path]:
    """Compile (or reuse) the kernel .so; None when unavailable."""
    if os.environ.get("REPRO_NO_NATIVE") == "1":
        return None
    if not _SOURCE.is_file():
        return None
    flags = cflags()
    out = cache_dir() / f"rwkernel-{_build_digest(flags)}-abi{_ABI_VERSION}.so"
    if out.is_file():
        return out
    compiler = find_compiler()
    if compiler is None:
        return None
    out.parent.mkdir(parents=True, exist_ok=True)
    # Compile to a private temp name and publish with an atomic rename so
    # concurrent sweep workers never load a half-written object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [compiler, *flags, "-o", tmp, str(_SOURCE), "-lm"]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=120,
        )
        if proc.returncode != 0:
            if verbose:
                print(proc.stdout.decode("utf-8", "replace"))
            return None
        os.replace(tmp, out)
        tmp = None
        return out
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _bind(path: Path) -> Optional[NativeLib]:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    try:
        abi = lib.rw_abi_version
        abi.restype = _int64
        abi.argtypes = []
        if abi() != _ABI_VERSION:
            return None
        run_trace = lib.rw_run_trace
        run_trace.restype = _int64
        run_trace.argtypes = [
            ctypes.POINTER(CacheCtx),
            ctypes.POINTER(LaneCtx),
            _int64,
            _int64,
        ]
        lru_filter = lib.rw_lru_filter
        lru_filter.restype = _int64
        lru_filter.argtypes = [
            ctypes.POINTER(CacheCtx),
            ctypes.POINTER(FilterCtx),
            _int64,
            _int64,
        ]
        multicore = lib.rw_multicore
        multicore.restype = _int64
        multicore.argtypes = [ctypes.POINTER(CacheCtx), ctypes.POINTER(MultiCtx)]
        timing_walk = lib.rw_timing_walk
        timing_walk.restype = _int64
        timing_walk.argtypes = [
            ctypes.POINTER(LaneCtx),
            ctypes.POINTER(PcmCtx),
            _int64,
            _int64,
        ]
    except AttributeError:
        return None
    return NativeLib(
        path=path,
        run_trace=run_trace,
        lru_filter=lru_filter,
        multicore=multicore,
        timing_walk=timing_walk,
    )


_loaded: Optional[NativeLib] = None
_load_attempted = False


def load_native() -> Optional[NativeLib]:
    """The process-wide native kernel handle, or None when unavailable.

    The first call compiles if needed; failures are remembered so a
    missing compiler costs one probe, not one per run.
    """
    global _loaded, _load_attempted
    if _load_attempted:
        return _loaded
    _load_attempted = True
    path = compile_native()
    if path is not None:
        _loaded = _bind(path)
    return _loaded


def reset_native_cache() -> None:
    """Forget the memoized load (tests toggling REPRO_NO_NATIVE)."""
    global _loaded, _load_attempted
    _loaded = None
    _load_attempted = False


def native_available() -> bool:
    return load_native() is not None
