"""Registry of interchangeable min-plus / FW-tile kernel backends.

Every backend implements :class:`~repro.core.backends.base.KernelBackend`
and produces **bit-identical** distance tiles on the library's distance
domain; they differ only in wall-clock speed. The
:class:`~repro.core.engine.KernelEngine` picks one (auto-calibrated, or
forced via ``REPRO_KERNEL_BACKEND`` / an explicit API argument).

============  ==========================================================
``reference``  the seed rank-1 numpy loop — the semantics oracle
``jit``        numba → compiled C → ``reference``, degrading gracefully
``threaded``   thread-pool column panels over the best serial backend
============  ==========================================================
"""

from __future__ import annotations

from repro.core.backends.base import KernelBackend
from repro.core.backends.jit import JITBackend
from repro.core.backends.reference import ReferenceBackend
from repro.core.backends.threaded import ThreadedBackend

__all__ = [
    "JITBackend",
    "KernelBackend",
    "ReferenceBackend",
    "ThreadedBackend",
    "backend_names",
    "create_backend",
]

_REGISTRY: dict[str, type[KernelBackend]] = {
    cls.name: cls for cls in (ReferenceBackend, JITBackend, ThreadedBackend)
}


def backend_names() -> tuple[str, ...]:
    """All registered backend names, reference first."""
    return tuple(_REGISTRY)


def create_backend(name: str, **options) -> KernelBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {backend_names()}"
        ) from None
    return cls(**options)
