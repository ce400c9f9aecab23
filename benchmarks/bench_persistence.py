"""Extension bench -- persistence: save/load wall time and container size.

The container stores full-precision float64 coordinates (twice a
float32 copy of the points) beside a packed binary partition index and
CRCs; this bench pins its size against the float32 payload with real
numbers and times the full save -> fsck -> load cycle host-side (wall
clock, not simulated disk time -- persistence is the one layer that
does real I/O).

Runs in smoke mode in CI (``IQ_REPRO_SCALE=0.1``); asserts are
scale-independent: the round-trip is bit-exact, fsck passes, and the
container stays within 2.5x of the float32 coordinate payload.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import scaled
from repro.core.tree import IQTree
from repro.datasets import uniform
from repro.experiments.harness import experiment_disk
from repro.storage.persistence import (
    load_iqtree,
    save_iqtree,
    verify_container,
)

DIM = 10


@pytest.fixture(scope="module")
def tree():
    data = uniform(scaled(20_000), DIM, seed=7)
    return IQTree.build(data, disk=experiment_disk())


@pytest.fixture(scope="module")
def container(tree, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("persistence") / "index.iqt"
    save_iqtree(tree, path)
    return path


def test_save_wall_time(benchmark, tree, tmp_path):
    path = tmp_path / "save.iqt"
    benchmark.pedantic(
        save_iqtree, args=(tree, path), rounds=3, iterations=1
    )


def test_load_wall_time(benchmark, container):
    loaded = benchmark.pedantic(
        load_iqtree, args=(container,), rounds=3, iterations=1
    )
    assert loaded.n_points > 0


def test_fsck_wall_time(benchmark, container):
    report = benchmark.pedantic(
        verify_container, args=(container,), rounds=3, iterations=1
    )
    assert report.ok


def test_container_size_vs_float32_payload(tree, container):
    f32_size = tree.n_points * tree.dim * 4
    size = container.stat().st_size
    payload = tree.n_points * tree.dim * 8
    lines = [
        "persistence containers "
        f"({tree.n_points} points, {tree.dim}-d):",
        f"  float32 coordinate payload {f32_size:>12,} bytes",
        f"  IQTREE02 (float64, CRC)    {size:>12,} bytes "
        f"({size / f32_size:.2f}x float32)",
        f"  float64 payload share      {payload / size:>11.1%}",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    out_dir = Path(__file__).resolve().parent.parent / "bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "extension-persistence.txt").write_text(text + "\n")
    # Full-precision coordinates cost at most the payload doubling.
    assert size < 2.5 * f32_size


def test_round_trip_bit_exact_and_fast_enough(tree, container):
    start = time.perf_counter()
    loaded = load_iqtree(container, verify=True)
    elapsed = time.perf_counter() - start
    assert loaded.points.tobytes() == tree.points.tobytes()
    q = np.full(DIM, 0.5)
    assert np.array_equal(
        loaded.nearest(q, k=5).ids, tree.nearest(q, k=5).ids
    )
    # verify=True re-serializes the whole tree; even so a reload must
    # stay interactive at bench scale.
    assert elapsed < 60.0
