"""The two implementations of the host kernels, bit-identical on the
library's distance domain:

* :mod:`repro.core.backends.base` — the numpy min-plus and FW tile
  kernels (the batched Near-Far numpy loop lives in
  :mod:`repro.sssp.near_far`);
* :mod:`repro.core.backends.jit` — the compiled C kernels and their
  ctypes call sites.

:func:`repro.core.backends.jit.compiled_kernels`, set by ``REPRO_JIT``,
is the one switch between them: the kernel engine
(:class:`repro.core.engine.KernelEngine`) and batched Near-Far both ask
it.
"""
