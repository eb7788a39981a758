"""Struct-of-arrays batch kernels: the replay fast path.

Public surface:

- :class:`KernelSpec` -- the batch-driver selector (``"native"``, the
  default, or ``"dict"``), threaded through ``SimulationSpec``,
  ``RunJob`` and the CLI ``--kernel`` flag.
- :class:`KernelRuntime` / :func:`attach_kernel` -- hang the native
  kernel on a cache (or every cache a hierarchy or shared-LLC system
  owns); a ``dict`` spec detaches it.  All ``try_*`` entry points return
  ``None`` when a configuration is outside the kernel's supported
  matrix, and the dict-driven driver runs instead -- the kernel is an
  accelerator, never a semantic fork.
- availability probes and cache resets for tests.
"""

from repro.kernels.build import (
    cache_dir,
    compile_native,
    find_compiler,
    load_native,
    native_available,
    reset_native_cache,
)
from repro.kernels.runner import KernelRuntime, attach_kernel
from repro.kernels.spec import DEFAULT_KERNEL, KERNEL_NAMES, KernelSpec

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "KernelRuntime",
    "KernelSpec",
    "attach_kernel",
    "cache_dir",
    "compile_native",
    "find_compiler",
    "load_native",
    "native_available",
    "reset_native_cache",
]
