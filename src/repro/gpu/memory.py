"""Device memory allocator and array handles.

:class:`DeviceMemory` enforces the device capacity — the single constraint
that makes the paper's problem *out-of-core*. Every block size, Johnson batch
size, and boundary-algorithm component count is derived from how much fits.

:class:`DeviceArray` wraps a numpy array living "on the device". Algorithms
do their real numeric work on ``.data``; the simulated cost accounting
happens in :mod:`repro.gpu.kernels` / :mod:`repro.gpu.transfer`.

:class:`HostBuffer` models host memory that may be *pinned* (page-locked):
pinned transfers run at full PCIe throughput, pageable ones at a derated
fraction — the distinction behind the paper's use of pinned staging buffers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.gpu.errors import OutOfMemoryError

__all__ = ["DeviceArray", "DeviceMemory", "HostBuffer"]


@dataclass
class HostBuffer:
    """Host-side staging buffer; ``pinned`` buffers transfer at full speed."""

    data: np.ndarray
    pinned: bool = True

    @classmethod
    def empty(cls, shape: tuple[int, ...], dtype=np.float64, *, pinned: bool = True) -> "HostBuffer":
        return cls(np.empty(shape, dtype=dtype), pinned=pinned)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


class DeviceArray:
    """A numpy array resident in simulated device memory.

    Obtained from :meth:`DeviceMemory.alloc`; freeing returns its bytes to
    the pool. Usable as a context manager for scoped allocations.
    ``charged_bytes`` may differ from the real array bytes on scaled
    devices (see ``DeviceSpec.sparse_charge_factor``).
    """

    __slots__ = ("data", "_pool", "_freed", "name", "charged_bytes")

    def __init__(
        self, data: np.ndarray, pool: "DeviceMemory", name: str = "",
        charged_bytes: int | None = None,
    ) -> None:
        self.data = data
        self._pool = pool
        self._freed = False
        self.name = name
        self.charged_bytes = data.nbytes if charged_bytes is None else charged_bytes

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Return this allocation's bytes to the device pool. A second
        free raises :class:`ValueError` ("double free")."""
        self._pool._release(self)
        self._freed = True

    def __enter__(self) -> "DeviceArray":
        return self

    def __exit__(self, *exc) -> None:
        self.free()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{self.nbytes}B"
        return f"DeviceArray({self.name!r}, shape={self.data.shape}, {state})"


@dataclass
class DeviceMemory:
    """Bump-counted device memory pool with a hard capacity."""

    capacity: int
    used: int = 0
    peak: int = 0
    #: owning device's fault guard (``Device.run_guarded``); when set,
    #: allocations route through it so an injected ``alloc`` fault can be
    #: retried like a transient ``cudaMalloc`` failure
    guard: "Callable | None" = field(default=None, repr=False)
    _live: dict[int, "DeviceArray"] = field(default_factory=dict, repr=False)

    def alloc(
        self,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
        *,
        name: str = "",
        fill=None,
        charged_bytes: int | None = None,
    ) -> DeviceArray:
        """Allocate a device array; raises :class:`OutOfMemoryError` if it
        does not fit. ``charged_bytes`` overrides the bytes accounted
        against the capacity (scaled-device sparse structures)."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        charge = nbytes if charged_bytes is None else int(charged_bytes)

        def body() -> DeviceArray:
            if self.used + charge > self.capacity:
                raise OutOfMemoryError(charge, self.free_bytes, self.capacity)
            if fill is None:
                data = np.empty(shape, dtype=dtype)
            else:
                data = np.full(shape, fill, dtype=dtype)
            arr = DeviceArray(data, self, name=name, charged_bytes=charge)
            self.used += charge
            self.peak = max(self.peak, self.used)
            self._live[id(arr)] = arr
            return arr

        if self.guard is None:
            return body()
        return self.guard("alloc", name or "alloc", body)

    def _release(self, arr: DeviceArray) -> None:
        if id(arr) not in self._live:
            raise ValueError("double free or foreign array")
        del self._live[id(arr)]
        self.used -= arr.charged_bytes
        assert self.used >= 0

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    @property
    def num_live(self) -> int:
        return len(self._live)

    @contextmanager
    def cleanup_on_error(self):
        """Free every allocation made inside the block if it raises.

        The out-of-core drivers wrap their bodies in this so a mid-run
        failure (planning bug, OOM from an explicit oversized block size)
        cannot leak device memory — the device stays reusable.
        """
        before = set(self._live)
        try:
            yield
        except BaseException:
            for arr_id in list(self._live.keys() - before):
                self._live[arr_id].free()
            raise
