"""Deterministic fault injection on the live (timed) read path.

:mod:`repro.storage.faults` attacks containers *at rest*; this module
attacks the running index.  A :class:`ReadFaultInjector` installed on a
:class:`~repro.storage.disk.SimulatedDisk` intercepts every timed block
delivery (``read_block`` / ``read_run`` / ``read_batched``) and fires
scheduled faults of three kinds:

``transient``
    The read fails with :class:`~repro.exceptions.TransientReadError`
    but a retry may succeed (scheduled per attempt).
``persistent``
    The read fails with :class:`~repro.exceptions.PersistentReadError`
    on every attempt; retrying is futile.
``corrupt``
    The read *succeeds* but delivers silently corrupted bytes; the
    per-block CRC sidecar in :class:`~repro.storage.blockfile.BlockFile`
    catches it and raises :class:`~repro.exceptions.IntegrityError`
    carrying the faulted disk address.

Faults are keyed on exact ``(address, attempt)`` pairs -- never sampled
-- so any failing schedule replays bit-identically.

On top of the adversary sit the defenses: :class:`RetryPolicy` (bounded
attempts, deterministic backoff charged to the
:class:`~repro.storage.disk.IOStats` ledger as extra seeks),
:class:`QuarantineList` (addresses proven unreadable, evicted from the
:class:`~repro.storage.cache.BufferPool` and excluded from future
scheduler windows), and :class:`FaultContext`, which ties both to a
disk and runs individual reads (:meth:`FaultContext.run`) or whole
batched fetches (:func:`fetch_with_quarantine`) to completion or
quarantine.  Queries consume the quarantine to degrade gracefully
instead of crashing -- see ``docs/robustness.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import (
    IntegrityError,
    PersistentReadError,
    ReadFaultError,
    StorageError,
    TransientReadError,
)
from repro.obs.instruments import (
    DEGRADED_RESULTS,
    FAULT_QUARANTINES,
    FAULT_RETRIES,
    LOST_PAGES,
    READ_FAULTS,
    REGISTRY,
)
from repro.storage.faults import corrupt_bytes

__all__ = [
    "CORRUPT",
    "FaultContext",
    "LostPage",
    "PERSISTENT",
    "QuarantineList",
    "ReadFaultInjector",
    "RetryPolicy",
    "TRANSIENT",
    "fault_address",
    "fetch_with_quarantine",
]

#: Fault kinds understood by :meth:`ReadFaultInjector.schedule`.
TRANSIENT = "transient"
PERSISTENT = "persistent"
CORRUPT = "corrupt"
_KINDS = frozenset({TRANSIENT, PERSISTENT, CORRUPT})


def fault_address(exc: BaseException) -> int | None:
    """The disk address a read fault points at, or ``None``.

    Media errors carry it as ``address``; CRC mismatches (runtime
    corruption) carry it as ``block``.  Container-level
    :class:`~repro.exceptions.IntegrityError` (``section`` set, no
    block) yields ``None`` -- those are not retryable read faults.
    """
    if isinstance(exc, ReadFaultError):
        return exc.address
    if isinstance(exc, IntegrityError):
        return exc.block
    return None


class ReadFaultInjector:
    """A deterministic schedule of read faults, keyed by disk address.

    The injector counts read attempts per address (``attempts_seen``),
    so a fault scheduled for ``(address, attempt)`` fires on exactly the
    ``attempt``-th delivery of that block and never again.  Faults
    scheduled with :meth:`schedule_always` fire on every attempt not
    claimed by a per-attempt entry.

    An injector with no scheduled faults is a pure observer: installing
    one turns on CRC verification and attempt counting but delivers
    every payload untouched -- the chaos CLI uses this to discover which
    addresses a workload actually touches before aiming faults at them.
    """

    def __init__(self):
        self._per_attempt: dict[int, dict[int, str]] = {}
        self._always: dict[int, str] = {}
        self._attempts: dict[int, int] = {}
        #: every fault fired, as ``(address, attempt, kind)`` -- the
        #: audit trail tests assert the schedule against.
        self.fired: list[tuple[int, int, str]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, address: int, kind: str, attempts: Iterable[int] = (0,)
    ) -> None:
        """Fire a ``kind`` fault on the given read attempts of ``address``."""
        self._check_kind(kind)
        slot = self._per_attempt.setdefault(int(address), {})
        for attempt in attempts:
            if attempt < 0:
                raise StorageError("attempt numbers are 0-based")
            slot[int(attempt)] = kind

    def schedule_always(self, address: int, kind: str) -> None:
        """Fire a ``kind`` fault on every read attempt of ``address``."""
        self._check_kind(kind)
        self._always[int(address)] = kind

    # Shorthands for the four canonical schedules.
    def fail_once(self, address: int) -> None:
        """One transient failure on the next read of ``address``."""
        self.schedule(address, TRANSIENT)

    def fail_always(self, address: int) -> None:
        """Permanent media failure of ``address``."""
        self.schedule_always(address, PERSISTENT)

    def corrupt_once(self, address: int) -> None:
        """Silent corruption on the next read of ``address``."""
        self.schedule(address, CORRUPT)

    def corrupt_always(self, address: int) -> None:
        """Silent corruption on every read of ``address``."""
        self.schedule_always(address, CORRUPT)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attempts_seen(self) -> dict[int, int]:
        """Read attempts observed so far, per disk address (a copy)."""
        return dict(self._attempts)

    # ------------------------------------------------------------------
    # The delivery hook (called by BlockFile on every timed block)
    # ------------------------------------------------------------------
    def filter_read(self, address: int, payload: bytes) -> bytes:
        """Deliver one block, firing any fault scheduled for this attempt.

        Raises the media-error exceptions directly; corruption returns
        mutated bytes for the caller's CRC check to catch.
        """
        attempt = self._attempts.get(address, 0)
        self._attempts[address] = attempt + 1
        kind = self._per_attempt.get(address, {}).get(attempt)
        if kind is None:
            kind = self._always.get(address)
        if kind is None:
            return payload
        self.fired.append((address, attempt, kind))
        if REGISTRY.enabled:
            READ_FAULTS.inc(kind=kind)
        if kind == TRANSIENT:
            raise TransientReadError(
                f"transient read fault at disk address {address} "
                f"(attempt {attempt})",
                address=address,
                attempt=attempt,
            )
        if kind == PERSISTENT:
            raise PersistentReadError(
                f"persistent read fault at disk address {address} "
                f"(attempt {attempt})",
                address=address,
                attempt=attempt,
            )
        return corrupt_bytes(payload, salt=attempt)

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in _KINDS:
            raise StorageError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{sorted(_KINDS)}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry of faulted reads.

    ``max_attempts`` counts total tries (first read included); before
    retry ``n`` (1-based) the disk is charged ``backoff_seeks * n``
    extra seeks -- a linear backoff in simulated time, flowing through
    the normal ledger/registry feed so query-cost attribution stays
    exact.
    """

    max_attempts: int = 3
    backoff_seeks: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError("max_attempts must be at least 1")
        if self.backoff_seeks < 0:
            raise StorageError("backoff_seeks must be non-negative")


class QuarantineList:
    """Disk addresses proven unreadable.

    Membership is by absolute disk address (the same space the
    :class:`~repro.storage.cache.BufferPool` keys on);
    :meth:`local_indices` projects the set into one file's extent for
    the scheduler's ``forbidden``/``avoid`` parameters.
    """

    def __init__(self):
        self._addresses: set[int] = set()

    def add(self, address: int) -> None:
        self._addresses.add(int(address))

    def __contains__(self, address: int) -> bool:
        return address in self._addresses

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self):
        return iter(sorted(self._addresses))

    @property
    def addresses(self) -> frozenset[int]:
        return frozenset(self._addresses)

    def local_indices(self, file) -> frozenset[int]:
        """Quarantined block indices inside ``file``'s extent."""
        if not file.sealed:
            return frozenset()
        base = file.extent_start
        return frozenset(
            a - base
            for a in self._addresses
            if base <= a < base + file.n_blocks
        )


class FaultContext:
    """Retry policy + quarantine + counters for one query session.

    One context is attached per tree (``tree.use_fault_tolerance()``);
    it owns the quarantine so that dropping the context restores fully
    pristine behavior -- a fault schedule can never poison later
    fault-free queries.  ``pool`` (optional) is the buffer pool to evict
    poisoned addresses from.
    """

    def __init__(self, policy: RetryPolicy | None = None, pool=None):
        self.policy = policy or RetryPolicy()
        self.quarantine = QuarantineList()
        self.pool = pool
        # Session counters, mirrored into repro.obs instruments.
        self.retries = 0
        self.quarantined = 0
        self.degraded_results = 0
        self.lost_pages = 0

    def poison(self, address: int) -> None:
        """Quarantine ``address`` and evict it from the buffer pool."""
        if address in self.quarantine:
            return
        self.quarantine.add(address)
        self.quarantined += 1
        if self.pool is not None:
            self.pool.invalidate(address)
        if REGISTRY.enabled:
            FAULT_QUARANTINES.inc()

    def count_degraded(self, intervals: int, lost_pages: int) -> None:
        """Count one answer's interval fallbacks and lost pages in the
        session counters and the registry instruments."""
        if intervals:
            self.degraded_results += intervals
            if REGISTRY.enabled:
                DEGRADED_RESULTS.inc(intervals)
        if lost_pages:
            self.lost_pages += lost_pages
            if REGISTRY.enabled:
                LOST_PAGES.inc(lost_pages)

    def run(self, fn: Callable[[], "object"], disk):
        """Run one timed read under the retry policy.

        Transient faults and CRC mismatches are retried up to
        ``policy.max_attempts`` times with backoff charged to ``disk``;
        persistent faults and exhausted retries poison the faulted
        address and re-raise.  Anything that is not a read fault (API
        misuse, container-level integrity failures) passes through
        untouched.
        """
        last: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                disk.charge_backoff(self.policy.backoff_seeks * attempt)
                self.retries += 1
                if REGISTRY.enabled:
                    FAULT_RETRIES.inc()
            try:
                return fn()
            except TransientReadError as exc:
                last = exc
            except PersistentReadError as exc:
                if exc.address is not None:
                    self.poison(exc.address)
                raise
            except IntegrityError as exc:
                if exc.block is None:
                    raise  # container-level: not a runtime read fault
                last = exc  # corruption may clear on a re-read
        address = fault_address(last)
        if address is not None:
            self.poison(address)
        raise last


def fetch_with_quarantine(
    file,
    disk,
    ctx: FaultContext,
    indices: Sequence[int],
) -> tuple[dict[int, bytes], list[int]]:
    """Batched read that survives permanent block failures.

    Runs ``file.read_batched`` under ``ctx``'s retry policy, replanning
    around every block the retries prove dead, until the remaining
    blocks are all delivered.  Returns ``(payloads, lost)``: payloads
    maps file-local block index to bytes; ``lost`` is the sorted list of
    requested indices that could not be read (quarantined before or
    during this fetch).  Termination is guaranteed because every failed
    round quarantines at least one new address -- a round that fails
    without growing the quarantine re-raises instead of looping.
    """
    wanted = sorted(set(indices))
    lost: set[int] = set()
    while True:
        avoid = ctx.quarantine.local_indices(file)
        lost.update(i for i in wanted if i in avoid)
        remaining = [i for i in wanted if i not in lost]
        if not remaining:
            return {}, sorted(lost)
        try:
            payloads = ctx.run(
                lambda: file.read_batched(remaining, avoid=avoid), disk
            )
            return payloads, sorted(lost)
        except (ReadFaultError, IntegrityError) as exc:
            address = fault_address(exc)
            if address is None or address not in ctx.quarantine:
                raise  # not a poisonable fault: no progress possible


@dataclass(frozen=True)
class LostPage:
    """A second-level page a query could not read.

    ``page`` is the partition/page index, ``n_points`` how many points
    it holds, and ``mindist``/``maxdist`` the page MBR's distance bounds
    to the query point (``maxdist`` is ``inf`` for range queries, where
    only membership matters).  Reporting these keeps recall bounds
    honest: any of the ``n_points`` points could have been a result.
    """

    page: int
    n_points: int
    mindist: float
    maxdist: float
