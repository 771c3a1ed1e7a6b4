"""Simulated device memory: the allocator page size and the OOM error.

Stage memory itself is predicted by :mod:`repro.costmodel.memory`;
:func:`repro.pipeline.simulator.check_plan_memory` and the online
admission pre-check raise :class:`OutOfMemoryError` when a stage's
predicted peak exceeds its devices' usable bytes, naming the stage.
"""

from __future__ import annotations

#: CUDA allocators hand out memory in pages; the profiler's "measured"
#: allocations round up to them.
PAGE_BYTES = 2 * 1024 * 1024


class OutOfMemoryError(RuntimeError):
    """Raised when a stage's predicted peak exceeds its usable memory."""

    def __init__(self, device: str, requested: int, available: int):
        super().__init__(
            f"OOM on {device}: requested {requested / 2**20:.1f} MiB, "
            f"available {available / 2**20:.1f} MiB"
        )
        self.device = device
        self.requested = requested
        self.available = available
