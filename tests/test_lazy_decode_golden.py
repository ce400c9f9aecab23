"""Golden guard of the best-first kNN's answers and ledgers.

The single-query search decides which pages to read with the
cost-balance window and when to decode them with the best-first order.
Whatever it decodes, the answers, the simulated I/O, the pages read and
the third-level refinements are fixed by the reads alone.  A seeded
matrix -- grid, PQ and mixed-codec trees beside exact pages, a tree
with deleted rows, both schedulers, k in {1, 10, n} and a decoded-page
store that is absent, cold, warm or holds about two pages -- is hashed
into one SHA-256 digest of every answer's ids, distances, I/O delta,
pages read and refinements, plus each store's hits, misses and
evictions.

The pinned value was computed on the implementation this guard was
written against; a deliberate behaviour change must re-derive it and
say why.
"""

import hashlib

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.datasets import gaussian_clusters
from repro.obs.instruments import PAGES_DECODED, REGISTRY
from repro.storage import serializer
from repro.storage.disk import DiskModel, SimulatedDisk

GOLDEN = "862d4c900d1110db43974a491216b0cb0d3d04dc8ae62f8c0a1725d22543fd48"

SCHEDULERS = ("optimized", "standard")
STORES = ("none", "cold", "warm", "tight")
KS = (1, 10, "n")


def make_disk() -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=2048)
    )


def loose_data() -> np.ndarray:
    """Five loose clusters beside uniform points, 12-d: the optimizer
    stores the sparse pages exact and quantizes the rest."""
    rng = np.random.default_rng(21)
    centers = rng.random((5, 12))
    clustered = centers[rng.integers(0, 5, 3000)]
    clustered = clustered + 0.05 * rng.standard_normal((3000, 12))
    return np.vstack([clustered, rng.random((750, 12))])


def mixed_data() -> np.ndarray:
    """Micro-clusters beside loose ones: ``codec="auto"`` picks PQ
    codebooks for some pages and the grid for others."""
    micro = gaussian_clusters(
        n=2400, seed=7, dim=12, n_clusters=48, spread=1e-3
    )
    loose = gaussian_clusters(
        n=600, seed=8, dim=12, n_clusters=10, spread=0.03
    )
    return np.vstack([micro, loose])


@pytest.fixture(scope="module")
def trees():
    deleted = IQTree.build(loose_data(), disk=make_disk(), codec="grid")
    for pid in range(0, deleted.n_points, 17):
        deleted.delete(pid)
    built = {
        "grid": IQTree.build(loose_data(), disk=make_disk(), codec="grid"),
        "pq": IQTree.build(loose_data(), disk=make_disk(), codec="pq"),
        "mixed": IQTree.build(mixed_data(), disk=make_disk(), codec="auto"),
        "deleted": deleted,
    }
    for tree in built.values():
        tree.nearest(np.zeros(tree.dim), k=1)  # settle deletes
    return built


def queries_for(tree, k):
    rng = np.random.default_rng(31)
    n = 1 if k == "n" else 4
    rows = rng.integers(0, tree.n_points, n)
    # Near stored points (clustered regions) and uniform ones.
    near = tree.points[rows] + 0.01 * rng.standard_normal((n, tree.dim))
    return np.vstack([near, rng.random((n, tree.dim))])


def page_nbytes(tree) -> int:
    """Decoded bytes of the largest page (arrays of its handle)."""
    largest = 0
    for page in range(tree.n_pages):
        contents, _bits, ids, aux = serializer.decode_quantized_page(
            tree._quant_file.peek_block(page), tree.dim
        )
        size = contents.nbytes
        size += 0 if ids is None else ids.nbytes
        size += 0 if aux is None else aux.nbytes
        largest = max(largest, size)
    return largest


def answer_record(result):
    io = result.io
    return (
        result.ids.tolist(),
        repr(result.distances.tolist()),
        (io.seeks, io.blocks_read, io.blocks_overread, repr(io.elapsed)),
        result.pages_read,
        result.refinements,
    )


def run_case(tree, scheduler, store, k):
    queries = queries_for(tree, k)
    k = tree.n_live_points if k == "n" else k

    # A store of about two pages keeps what the last reads left: each
    # query runs twice in a row, so the repeat can hit it.
    repeats = 2 if store == "tight" else 1

    def workload():
        tree.disk.park()
        return [
            answer_record(tree.nearest(q, k=k, scheduler=scheduler))
            for q in queries
            for _ in range(repeats)
        ]

    tree.clear_decoded_cache()
    cache = None
    if store == "tight":
        cache = tree.use_decoded_cache(2 * page_nbytes(tree))
    elif store != "none":
        cache = tree.use_decoded_cache(1 << 26)
    try:
        if store == "warm":
            workload()
        answers = workload()
        counters = (
            None
            if cache is None
            else (cache.hits, cache.misses, cache.evictions)
        )
    finally:
        tree.clear_decoded_cache()
    return answers, counters


def test_trees_cover_every_page_kind(trees):
    def kinds(tree):
        found = set()
        for page in range(tree.n_pages):
            _m, bits, codec = serializer.QUANT_PAGE_HEADER.unpack_from(
                tree._quant_file.peek_block(page)
            )
            found.add("exact" if bits >= 32 else ("pq", "grid")[codec == 0])
        return found

    assert kinds(trees["grid"]) == {"grid", "exact"}
    assert kinds(trees["pq"]) == {"pq", "exact"}
    assert kinds(trees["mixed"]) >= {"grid", "pq"}
    assert trees["deleted"].n_live_points < trees["deleted"].n_points


def test_answers_and_ledgers_match_golden(trees):
    digest = hashlib.sha256()
    for name, tree in trees.items():
        for scheduler in SCHEDULERS:
            for store in STORES:
                for k in KS:
                    answers, counters = run_case(tree, scheduler, store, k)
                    case = (name, scheduler, store, k)
                    digest.update(repr((case, answers, counters)).encode())
    assert digest.hexdigest() == GOLDEN


def test_fewer_pages_decoded_than_read():
    """On micro-clustered PQ pages a query reads whole windows but
    needs few of their pages: the rest are never decoded."""
    data = gaussian_clusters(
        n=3000, seed=7, dim=12, n_clusters=60, spread=1e-3
    )
    tree = IQTree.build(data, disk=make_disk(), codec="pq")
    queries = data[::300] + 1e-3
    # PAGES_DECODED is labeled by the directory's width of a page.
    widths = set(tree.page_bits.tolist())

    def pages_decoded() -> float:
        return sum(PAGES_DECODED.value(bits=bits) for bits in widths)

    REGISTRY.reset()
    REGISTRY.enable()
    try:
        read = decoded = 0
        for query in queries:
            before = pages_decoded()
            result = tree.nearest(query, k=10)
            decoded += pages_decoded() - before
            read += result.pages_read
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    assert read > len(queries)  # windows read more than the pivots
    assert decoded < read
