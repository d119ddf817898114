"""Fused sweep kernels: an AccessPlan plus an elementwise ``fn`` in one function.

The fusion pass (:mod:`repro.kernels.fused`) compiles an
:class:`~repro.memory.mmat.AccessPlan` plus an elementwise kernel ``fn``
into one generated function that gathers, applies and scatters without
materialising the intermediate ``(n_offsets, n_elem)`` tensor.  The
function's source is emitted by :mod:`repro.kernels.numpy_src` —
NumPy source specialised to the plan's shape and stencil, then
``exec``-compiled — and its code object is cached per structural
signature.

:class:`CodegenError` is the "cannot fuse" signal (address plans,
multi-component blocks, malformed offsets); :func:`fused_kernel_for`
caches it as :data:`UNFUSABLE` and the sweep keeps the vectorized path.
"""

from __future__ import annotations

from .fused import CodegenError, FusedKernel, UNFUSABLE, fused_kernel_for

__all__ = ["CodegenError", "FusedKernel", "UNFUSABLE", "fused_kernel_for"]
