"""Typed batch-kernel specification.

Everywhere the simulator accepts a batch-kernel backend it takes a
:class:`KernelSpec` -- or its canonical string form, the bare name --
sharing the :class:`~repro.common.spec.Spec` grammar with
:class:`~repro.cache.policyspec.PolicySpec` and
:class:`~repro.mem.spec.BackendSpec`:

>>> KernelSpec.parse("native")
KernelSpec(name='native', kwargs=())
>>> str(KernelSpec.make("dict"))
'dict'

Kernel names:

``native``  struct-of-arrays state replayed by a small C kernel,
            compiled on demand with the system compiler and bound via
            ctypes (see :mod:`repro.kernels.build`).  The default.
            Falls back to ``dict`` per run when the config is
            unsupported or no compiler is available.
``dict``    the generic dict-driven batch drivers
            (``SetAssociativeCache.run_trace`` and friends), the
            fallback on hosts without a compiler.

Both are bit-identical to the scalar ``access()`` reference, so the
kernel is an execution choice only: it is in no store key, label or
sweep id.  A kernel takes no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Tuple

from repro.common.spec import Spec

#: the kernel every simulation uses unless told otherwise.
DEFAULT_KERNEL = "native"

#: every selectable kernel backend name.
KERNEL_NAMES = ("dict", "native")


@dataclass(frozen=True)
class KernelSpec(Spec):
    """One batch-kernel backend (kwargs are always empty)."""

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    spec_noun: ClassVar[str] = "kernel"
    known_names: ClassVar[Tuple[str, ...]] = KERNEL_NAMES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kwargs:
            raise ValueError(
                f"kernel {self.name!r} takes no parameters, got {str(self)!r}"
            )
