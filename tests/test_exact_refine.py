"""``ExactStore.refine``: a one-record reader's I/O, one decode per block.

``refine`` must read exactly the blocks a reader that fetches each
record on its own would read -- in the same order, at the same cost --
and return the distance the scan computes, to the byte.  The trees use
the default 8192-byte blocks at d = 1, 9 and 16: 8-byte records never
straddle a block boundary, 40- and 68-byte records do.
"""

import numpy as np
import pytest

from repro.core.tree import ExactStore, IQTree
from repro.exceptions import ReadFaultError
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM, LpMetric
from repro.storage.disk import SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector, RetryPolicy

DIMS = (1, 9, 16)
METRICS = {"euclidean": EUCLIDEAN, "maximum": MAXIMUM, "l1": LpMetric(1)}


def build(dim: int, metric) -> IQTree:
    data = np.random.default_rng(dim).random((3000, dim))
    tree = IQTree.build(
        data, disk=SimulatedDisk(), metric=metric, optimize=False,
        fixed_bits=4,
    )
    tree.disk.reset_stats()
    tree.disk.park()
    return tree


def widest_page(tree: IQTree) -> int:
    """The quantized page with the most third-level blocks."""
    return int(np.argmax(np.where(tree._bits < 32, tree._exact_blocks, 0)))


def record_blocks(tree: IQTree, page: int, local: int) -> range:
    """Third-level blocks holding record ``local`` of ``page``."""
    record = 4 * tree.dim + 4
    block = tree.disk.model.block_size
    first = int(tree._exact_firsts[page])
    start = local * record
    return range(
        first + start // block, first + (start + record - 1) // block + 1
    )


def reference_reads(tree: IQTree, page: int, order) -> list[int]:
    """Blocks a reader fetching each record on its own reads, in order."""
    seen: set[int] = set()
    reads = []
    for local in order:
        for b in record_blocks(tree, page, local):
            if b not in seen:
                seen.add(b)
                reads.append(b)
    return reads


def recording(store: ExactStore) -> list[int]:
    """Log every ``_read_block`` call the store makes."""
    calls: list[int] = []
    read = store._read_block

    def logged(b):
        calls.append(b)
        return read(b)

    store._read_block = logged
    return calls


def ledger(tree: IQTree) -> tuple:
    io = tree.disk.stats
    return (io.seeks, io.blocks_read, io.blocks_overread, io.elapsed)


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("dim", DIMS)
def test_every_record_of_a_page(dim, metric, order):
    tree = build(dim, METRICS[metric])
    twin = build(dim, METRICS[metric])
    page = widest_page(tree)
    n = int(tree._counts[page])
    locals_ = np.arange(n)
    if order == "shuffled":
        # Straddling records first, so each reads both of its blocks.
        spans = [len(record_blocks(tree, page, i)) for i in range(n)]
        straddling = np.flatnonzero(np.array(spans) > 1)
        rest = np.setdiff1d(locals_, straddling)
        locals_ = np.concatenate((
            straddling[::-1], np.random.default_rng(7).permutation(rest)
        ))
    query = np.random.default_rng(dim + 1).random(dim)

    store = ExactStore(tree)
    calls = recording(store)
    for local in locals_.tolist():
        dist, pid = store.refine(query, page, local)
        assert pid == int(tree._part_ids[page][local])
        expect = tree.metric.distance(query, tree.points[pid])
        assert np.float64(dist).tobytes() == np.float64(expect).tobytes()
    assert store.refinements == n

    reads = reference_reads(tree, page, locals_.tolist())
    assert calls == reads
    for b in reads:
        twin._exact_file.read_block(b)
    assert ledger(tree) == ledger(twin)


def first_block_records(tree: IQTree, page: int) -> list[int]:
    """Records of ``page`` wholly inside its first third-level block."""
    first = int(tree._exact_firsts[page])
    return [
        local for local in range(int(tree._counts[page]))
        if list(record_blocks(tree, page, local)) == [first]
    ]


def test_decoded_record_reads_nothing():
    tree = build(16, EUCLIDEAN)
    page = widest_page(tree)
    query = np.full(16, 0.5)
    store = ExactStore(tree)
    calls = recording(store)
    store.refine(query, page, 0)
    before = ledger(tree)
    # Record 0's read decoded every record wholly inside its block.
    inside = first_block_records(tree, page)
    for local in inside[::-1]:
        store.refine(query, page, local)
    assert calls == [int(tree._exact_firsts[page])]
    assert ledger(tree) == before
    assert store.refinements == 1 + len(inside)


def test_new_query_recomputes_distances():
    tree = build(9, EUCLIDEAN)
    page = widest_page(tree)
    store = ExactStore(tree)
    store.refine(np.zeros(9), page, 0)
    query = np.ones(9)
    dist, pid = store.refine(query, page, 0)
    assert dist == tree.metric.distance(query, tree.points[pid])


def test_persistent_fault_on_second_block_of_straddling_record():
    tree = build(16, EUCLIDEAN)
    page = widest_page(tree)
    first = int(tree._exact_firsts[page])
    n = int(tree._counts[page])
    straddling = next(
        local for local in range(n)
        if list(record_blocks(tree, page, local)) == [first, first + 1]
    )
    injector = ReadFaultInjector()
    faulty = tree._exact_file.extent_start + first + 1
    injector.fail_always(faulty)
    tree.disk.install_fault_injector(injector)
    tree.use_fault_tolerance(RetryPolicy(max_attempts=2))
    query = np.random.default_rng(3).random(16)

    store = ExactStore(tree)
    with pytest.raises(ReadFaultError):
        store.refine(query, page, straddling)
    assert store.refinements == 0
    inside = first_block_records(tree, page)
    assert inside == list(range(straddling))
    for local in inside:
        dist, pid = store.refine(query, page, local)
        assert dist == tree.metric.distance(query, tree.points[pid])
    assert store.refinements == len(inside)
    # The quarantined block fails again without being read.
    attempts = injector.attempts_seen[faulty]
    with pytest.raises(ReadFaultError):
        store.refine(query, page, straddling)
    assert injector.attempts_seen[faulty] == attempts
