"""Cross-method integration tests: every technique must return the same
exact answers on the same data, for every workload the paper uses."""

import numpy as np
import pytest

from repro.baselines import SequentialScan, VAFile, XTree
from repro.core.tree import IQTree
from repro.datasets import (
    cad_like,
    color_histogram_like,
    make_workload,
    uniform,
    weather_like,
)
from repro.experiments.harness import experiment_disk
from repro.geometry.metrics import EUCLIDEAN
from tests.scenarios import assert_matches_scan


WORKLOADS = [
    ("uniform-8d", lambda: make_workload(uniform, 1500, 5, seed=1, dim=8)),
    ("uniform-16d", lambda: make_workload(uniform, 1500, 5, seed=2, dim=16)),
    ("cad-16d", lambda: make_workload(cad_like, 1500, 5, seed=3)),
    ("color-16d", lambda: make_workload(color_histogram_like, 1500, 5, seed=4)),
    ("weather-9d", lambda: make_workload(weather_like, 1500, 5, seed=5)),
]


@pytest.mark.parametrize("name,factory", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestAllMethodsAgree:
    def test_knn_agreement(self, name, factory):
        data, queries = factory()
        tree = IQTree.build(data, disk=experiment_disk())
        xtree = XTree(data, disk=experiment_disk())
        vafile = VAFile(data, bits=4, disk=experiment_disk())
        scan = SequentialScan(data, disk=experiment_disk())
        for q in queries:
            reference = scan.nearest(q, k=5)
            for method in (tree, xtree, vafile):
                answer = method.nearest(q, k=5)
                assert np.allclose(
                    answer.distances, reference.distances
                ), f"{type(method).__name__} disagrees on {name}"

    def test_range_agreement(self, name, factory):
        data, queries = factory()
        tree = IQTree.build(data, disk=experiment_disk())
        xtree = XTree(data, disk=experiment_disk())
        vafile = VAFile(data, bits=4, disk=experiment_disk())
        scan = SequentialScan(data, disk=experiment_disk())
        q = queries[0]
        # Radius that catches a mid-sized result set.
        radius = float(np.partition(EUCLIDEAN.distances(q, data), 20)[20])
        reference = set(scan.range_query(q, radius).ids.tolist())
        for method in (tree, xtree, vafile):
            got = set(method.range_query(q, radius).ids.tolist())
            assert got == reference, f"{type(method).__name__} on {name}"


class TestSchedulerAgreement:
    def test_iq_schedulers_identical_answers(self):
        data, queries = make_workload(uniform, 2000, 8, seed=9, dim=10)
        tree = IQTree.build(data, disk=experiment_disk())
        for q in queries:
            for scheduler in ("optimized", "standard"):
                res = tree.nearest(q, k=3, scheduler=scheduler)
                assert_matches_scan(tree, q, res, k=3)


class TestMetricsAgreement:
    @pytest.mark.parametrize("metric", ["euclidean", "maximum", "l1"])
    def test_all_methods_with_metric(self, metric):
        data, queries = make_workload(uniform, 1000, 3, seed=11, dim=6)
        tree = IQTree.build(data, disk=experiment_disk(), metric=metric)
        scan = SequentialScan(data, disk=experiment_disk(), metric=metric)
        for q in queries:
            assert np.allclose(
                tree.nearest(q, k=4).distances,
                scan.nearest(q, k=4).distances,
            )


class TestCompressionEffect:
    def test_iqtree_quantized_level_smaller_than_exact(self):
        """The compressed second level must actually be smaller than the
        exact data -- the premise of the whole paper."""
        data, _ = make_workload(uniform, 4000, 2, seed=13, dim=16)
        tree = IQTree.build(data, disk=experiment_disk())
        sizes = tree.size_summary()
        if np.all(tree.page_bits == 32):
            pytest.skip("optimizer chose exact pages at this scale")
        assert sizes["quantized_blocks"] < sizes["exact_blocks"]

    def test_deeper_quantization_changes_refinements(self):
        data, queries = make_workload(uniform, 3000, 5, seed=14, dim=12)
        coarse = IQTree.build(
            data, disk=experiment_disk(), optimize=False, fixed_bits=1
        )
        fine = IQTree.build(
            data, disk=experiment_disk(), optimize=False, fixed_bits=8
        )
        coarse_ref = sum(coarse.nearest(q).refinements for q in queries)
        fine_ref = sum(fine.nearest(q).refinements for q in queries)
        assert fine_ref <= coarse_ref
