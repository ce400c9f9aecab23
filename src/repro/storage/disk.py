"""Disk model and simulated-time accounting.

The reproduction substitutes the paper's physical HP-UX workstation disk
with a deterministic model characterized by two parameters:

* ``t_seek`` -- time for one random positioning operation, and
* ``t_xfer`` -- time to transfer one block sequentially.

Every index structure in this repository performs its page reads through
a :class:`SimulatedDisk`, which accrues simulated time in an
:class:`IOStats` ledger.  "Query time" in all experiments is the
simulated I/O time of this ledger, so all methods are compared under
exactly the same device model.

The key derived quantity is the *over-read window* ``v = t_seek /
t_xfer``: when two wanted blocks are fewer than ``v`` blocks apart it is
cheaper to read the gap than to seek over it (paper, Section 2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import StorageError
from repro.obs.instruments import (
    DISK_BLOCKS_OVERREAD,
    DISK_BLOCKS_READ,
    DISK_SEEKS,
    DISK_SIM_SECONDS,
    REGISTRY,
)

__all__ = ["DiskModel", "IOStats", "SimulatedDisk"]


@dataclass(frozen=True)
class DiskModel:
    """Timing parameters of the simulated disk.

    Parameters
    ----------
    t_seek:
        Seconds per random seek (default 10 ms -- a late-1990s disk).
    t_xfer:
        Seconds to transfer one block of ``block_size`` bytes
        sequentially (default 0.8 ms for an 8 KiB block, i.e. a
        ~10 MB/s sustained transfer rate).
    block_size:
        Bytes per block.  All files in the storage layer use this
        granularity.
    """

    t_seek: float = 0.010
    t_xfer: float = 0.0008
    block_size: int = 8192

    def __post_init__(self) -> None:
        """Reject degenerate models up front.

        A zero or negative seek/transfer time would silently zero out
        entire terms of the Section 3 cost model (and the drift monitor
        comparing against it), so all three parameters must be strictly
        positive.  Raises :class:`ValueError` -- the standard signal for
        a bad constructor argument.
        """
        if self.t_seek <= 0:
            raise ValueError(
                f"t_seek must be positive, got {self.t_seek!r}"
            )
        if self.t_xfer <= 0:
            raise ValueError(
                f"t_xfer must be positive, got {self.t_xfer!r}"
            )
        if self.block_size <= 0:
            raise ValueError(
                f"block_size must be positive, got {self.block_size!r}"
            )

    @property
    def overread_window(self) -> float:
        """``v = t_seek / t_xfer``: max gap worth over-reading (Sec. 2)."""
        return self.t_seek / self.t_xfer

    def scan_time(self, n_blocks: int) -> float:
        """Time for one seek plus a sequential read of ``n_blocks``."""
        if n_blocks < 0:
            raise StorageError("n_blocks must be non-negative")
        if n_blocks == 0:
            return 0.0
        return self.t_seek + n_blocks * self.t_xfer

    def random_read_time(self, n_blocks: int) -> float:
        """Time for ``n_blocks`` independent single-block random reads."""
        if n_blocks < 0:
            raise StorageError("n_blocks must be non-negative")
        return n_blocks * (self.t_seek + self.t_xfer)


@dataclass
class IOStats:
    """Accumulated I/O accounting for one or more queries.

    Attributes
    ----------
    seeks:
        Number of random positioning operations performed.
    blocks_read:
        Number of blocks transferred (wanted or over-read).
    blocks_overread:
        Subset of ``blocks_read`` transferred purely to bridge a gap.
    elapsed:
        Total simulated time in seconds.

    The ledger is *pure bookkeeping*: none of its methods (including
    :meth:`merged_with` and :meth:`reset`) touch the process-wide
    metrics registry.  Registry disk counters are fed exclusively by
    the physical charge points on :class:`SimulatedDisk`
    (:meth:`SimulatedDisk.read_blocks` and
    :meth:`SimulatedDisk.charge_backoff`), so snapshot/delta/merge
    arithmetic in higher layers (e.g. the batch query engine) can never
    double-count an I/O.
    """

    seeks: int = 0
    blocks_read: int = 0
    blocks_overread: int = 0
    elapsed: float = 0.0

    def add_seek(self, model: DiskModel, count: int = 1) -> None:
        """Record ``count`` random seeks."""
        if count < 0:
            raise StorageError("seek count must be non-negative")
        self.seeks += count
        self.elapsed += count * model.t_seek

    def add_transfer(
        self, model: DiskModel, blocks: int, overread: int = 0
    ) -> None:
        """Record a sequential transfer of ``blocks`` blocks.

        ``overread`` counts how many of those blocks were read only to
        bridge a gap between wanted blocks.
        """
        if blocks < 0 or overread < 0 or overread > blocks:
            raise StorageError("invalid transfer accounting")
        self.blocks_read += blocks
        self.blocks_overread += overread
        self.elapsed += blocks * model.t_xfer

    def merged_with(self, other: "IOStats") -> "IOStats":
        """Return a new ledger with both ledgers' counters summed.

        Carries every counter field, so merging and then resetting the
        inputs round-trips exactly (no information lives outside the
        four counters).
        """
        return IOStats(
            seeks=self.seeks + other.seeks,
            blocks_read=self.blocks_read + other.blocks_read,
            blocks_overread=self.blocks_overread + other.blocks_overread,
            elapsed=self.elapsed + other.elapsed,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.seeks = 0
        self.blocks_read = 0
        self.blocks_overread = 0
        self.elapsed = 0.0


class SimulatedDisk:
    """A disk head over a linear block address space.

    The disk tracks the head position so that reading the block right
    after the previous read continues sequentially at ``t_xfer`` per
    block, while any other target costs a seek first.  Multiple
    :class:`~repro.storage.blockfile.BlockFile` instances can share one
    disk; each file occupies a contiguous extent of the address space,
    mirroring the paper's layout of the three IQ-tree levels in three
    distinct files.
    """

    def __init__(self, model: DiskModel | None = None):
        self.model = model or DiskModel()
        self.stats = IOStats()
        self._head = -1  # unknown position: the first read pays a seek
        self._next_extent_start = 0
        #: optional ReadFaultInjector consulted by every timed BlockFile
        #: read over this disk (None = pristine fast path).
        self.fault_injector = None
        # Charging is head-position-dependent, so two threads racing a
        # read would corrupt the seek accounting.  The lock makes each
        # individual charge atomic; *determinism* across threads is the
        # caller's job (the batch engine keeps every charge on its
        # coordinator thread precisely so ledgers replay bit-identically
        # regardless of the worker count).
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks cannot be copied/pickled; the clone gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Fault injection (repro.storage.runtime_faults)
    # ------------------------------------------------------------------
    def install_fault_injector(self, injector) -> None:
        """Route every timed read over this disk through ``injector``.

        Installing an injector also turns on per-block CRC verification
        in the block files on this disk, so silently corrupted payloads
        surface as :class:`~repro.exceptions.IntegrityError`.
        """
        self.fault_injector = injector

    def clear_fault_injector(self) -> None:
        """Return to the pristine (unchecked, unfaulted) read path."""
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Extent allocation (one extent per file)
    # ------------------------------------------------------------------
    def allocate_extent(self, n_blocks: int) -> int:
        """Reserve ``n_blocks`` contiguous block addresses; return start."""
        if n_blocks < 0:
            raise StorageError("extent size must be non-negative")
        start = self._next_extent_start
        self._next_extent_start += n_blocks
        return start

    # ------------------------------------------------------------------
    # Timed operations
    # ------------------------------------------------------------------
    def read_blocks(self, start: int, count: int, overread: int = 0) -> None:
        """Account a read of ``count`` consecutive blocks at ``start``.

        A seek is charged unless the head is already positioned at
        ``start`` from a previous sequential read.
        """
        if count <= 0:
            return
        with self._lock:
            seeked = start != self._head
            if seeked:
                self.stats.add_seek(self.model)
            self.stats.add_transfer(self.model, count, overread=overread)
            self._head = start + count
            if REGISTRY.enabled:
                # The one place physical reads feed the metrics registry;
                # see the IOStats docstring for the accounting discipline.
                if seeked:
                    DISK_SEEKS.inc()
                    DISK_SIM_SECONDS.inc(self.model.t_seek)
                DISK_BLOCKS_READ.inc(count)
                if overread:
                    DISK_BLOCKS_OVERREAD.inc(overread)
                DISK_SIM_SECONDS.inc(count * self.model.t_xfer)

    def read_block(self, address: int) -> None:
        """Account a single-block read at ``address``."""
        self.read_blocks(address, 1)

    def charge_backoff(self, seeks: int) -> None:
        """Charge a retry backoff of ``seeks`` random seeks.

        Simulated backoff between read retries is modelled as extra
        positioning operations (the head re-settles on the target
        track).  Goes through the same ledger *and* registry feed as a
        physical seek so span attribution and the metrics discipline
        (registry disk counters mirror the ledger) both stay exact; the
        head is parked because the interrupted transfer lost position.
        """
        if seeks <= 0:
            return
        with self._lock:
            self.stats.add_seek(self.model, seeks)
            self._head = -1
            if REGISTRY.enabled:
                DISK_SEEKS.inc(seeks)
                DISK_SIM_SECONDS.inc(seeks * self.model.t_seek)

    @property
    def head(self) -> int:
        """Current head position (next sequential block address)."""
        return self._head

    def reset_stats(self) -> None:
        """Clear accounting; keep head position and allocations."""
        self.stats.reset()

    def park(self) -> None:
        """Invalidate head position so the next read pays a seek.

        Called between queries to model an arbitrary intervening workload.
        """
        self._head = -1
