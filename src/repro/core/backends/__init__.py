"""Registry of interchangeable min-plus / FW-tile kernel backends.

Every backend implements :class:`~repro.core.backends.base.KernelBackend`
and produces **bit-identical** distance tiles on the library's distance
domain; they differ only in wall-clock speed. A
:class:`~repro.core.engine.KernelEngine` runs one (``jit`` unless
``REPRO_KERNEL_BACKEND`` or an explicit API argument names another) and
splits large products across cores itself.

============  ==========================================================
``reference``  the seed rank-1 numpy loop — the semantics oracle
``jit``        compiled C, else ``reference``, degrading gracefully
============  ==========================================================
"""

from __future__ import annotations

from repro.core.backends.base import KernelBackend
from repro.core.backends.jit import JITBackend
from repro.core.backends.reference import ReferenceBackend

__all__ = [
    "JITBackend",
    "KernelBackend",
    "ReferenceBackend",
    "backend_names",
    "create_backend",
]

_REGISTRY: dict[str, type[KernelBackend]] = {
    cls.name: cls for cls in (ReferenceBackend, JITBackend)
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
