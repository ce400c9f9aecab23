"""Each chosen PQ page is fitted once: layouts encode the kept fit.

Codec selection fits every PQ candidate it prices and keeps the winning
fit on the :class:`~repro.core.optimizer.OptimizedPartition`.  The
build's layout, a sharded router's per-shard layouts and maintenance's
in-place page swaps then encode that fit without calling ``fit_pq``
again.  Pages that hold no fit -- a loaded tree's -- are fitted once
per layout.  The encoder refuses a fit of another point set.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.quantization.codecs as codecs
from repro.core.maintenance import MaintenanceManager
from repro.core.optimizer import OptimizedPartition
from repro.core.tree import IQTree
from repro.datasets import gaussian_clusters, weather_like
from repro.engine.sharding import ShardRouter
from repro.exceptions import QuantizationError
from repro.quantization.codecs import CODEC_PQ, encode_pq_body, fit_pq
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.persistence import load_iqtree, save_iqtree
from repro.storage.serializer import encode_pq_page


class FitSpy:
    """Counts ``fit_pq`` calls by the layer running when each happens.

    ``fits[None]`` counts fits outside a layout or page swap,
    ``fits["layout"]`` those inside ``IQTree._layout`` and
    ``fits["replace"]`` those inside ``MaintenanceManager._replace_page``;
    ``pq_swaps`` counts page swaps that wrote a PQ page.
    """

    def __init__(self, monkeypatch):
        self.fits = {None: 0, "layout": 0, "replace": 0}
        self.pq_swaps = 0
        self._phase = None
        real_fit = codecs.fit_pq
        real_layout = IQTree._layout
        real_replace = MaintenanceManager._replace_page

        def fit(*args):
            self.fits[self._phase] += 1
            return real_fit(*args)

        def within(phase, fn, *args):
            outer, self._phase = self._phase, phase
            try:
                return fn(*args)
            finally:
                self._phase = outer

        def replace_page(manager, page, new):
            self.pq_swaps += new.codec == CODEC_PQ
            return within("replace", real_replace, manager, page, new)

        monkeypatch.setattr(codecs, "fit_pq", fit)
        monkeypatch.setattr(
            IQTree, "_layout", lambda tree: within("layout", real_layout, tree)
        )
        monkeypatch.setattr(MaintenanceManager, "_replace_page", replace_page)


def quantized_blocks(tree) -> list[bytes]:
    tree._ensure_clean()
    qf = tree._quant_file
    return [qf.peek_block(i) for i in range(qf.n_blocks)]


def n_pq_pages(tree) -> int:
    return sum(opt.codec == CODEC_PQ for opt in tree._partitions)


def build(codec: str) -> IQTree:
    """Forced PQ on correlated pages; cost-picked PQ on micro-clusters."""
    if codec == "pq":
        disk = SimulatedDisk(DiskModel(block_size=4096))
        return IQTree.build(weather_like(4000, seed=7), codec="pq", disk=disk)
    data = gaussian_clusters(8000, 16, n_clusters=64, spread=5e-4, seed=3)
    return IQTree.build(data, codec="auto")


@pytest.fixture(scope="module", params=["pq", "auto"])
def built(request):
    return request.param, build(request.param)


class TestBuildReusesTheFit:
    @pytest.mark.parametrize("codec", ["pq", "auto"])
    def test_layout_performs_no_fit(self, codec, monkeypatch):
        spy = FitSpy(monkeypatch)
        tree = build(codec)
        assert n_pq_pages(tree) > 0
        assert spy.fits[None] > 0  # codec selection did fit
        assert spy.fits["layout"] == 0

    def test_every_pq_page_holds_its_fit(self, built):
        _, tree = built
        for opt in tree._partitions:
            if opt.codec == CODEC_PQ:
                codes, _lo, _hi = opt.pq_fit
                assert codes.shape == (opt.partition.size, opt.pq_sub)

    def test_fit_takes_no_part_in_equality(self, built):
        _, tree = built
        opt = next(o for o in tree._partitions if o.codec == CODEC_PQ)
        bare = replace(opt, pq_fit=None)
        assert bare == opt and hash(bare) == hash(opt)
        assert "pq_fit" not in repr(opt)

    def test_sharded_layouts_perform_no_fit(self, built, monkeypatch):
        _, tree = built
        source = quantized_blocks(tree)
        spy = FitSpy(monkeypatch)
        with ShardRouter(tree, 4) as router:
            assert spy.fits == {None: 0, "layout": 0, "replace": 0}
            for shard in router.shards:
                blocks = quantized_blocks(shard.tree)
                assert blocks == [source[int(g)] for g in shard.pages]


class TestFitlessPages:
    def test_loaded_tree_fits_each_pq_page_once(
        self, built, tmp_path, monkeypatch
    ):
        codec, tree = built
        path = tmp_path / f"{codec}.iqt"
        save_iqtree(tree, path, fsync=False)
        spy = FitSpy(monkeypatch)
        loaded = load_iqtree(path)
        n_pq = n_pq_pages(loaded)
        assert n_pq == n_pq_pages(tree) > 0
        assert spy.fits["layout"] == n_pq
        loaded._dirty = True
        loaded._ensure_clean()
        assert spy.fits["layout"] == 2 * n_pq
        assert quantized_blocks(loaded) == quantized_blocks(tree)

    @pytest.mark.parametrize("codec", ["pq", "auto"])
    def test_sweep_swaps_encode_the_kept_fit(self, codec, monkeypatch):
        tree = build(codec)
        manager = tree.maintenance_manager()
        spy = FitSpy(monkeypatch)
        # Coarsen every PQ page to a hand-built grid page, which holds no
        # fit; the sweep re-runs codec selection on each and swaps the
        # chosen PQ page back in place.
        for j, opt in enumerate(tree._partitions):
            if opt.codec == CODEC_PQ:
                manager._replace_page(
                    j, OptimizedPartition(opt.partition, opt.bits)
                )
        report = manager.sweep()
        assert report.requantized > 0
        assert spy.pq_swaps == report.requantized
        assert spy.fits["replace"] == 0


class TestEncoderRefusesForeignFits:
    pts = gaussian_clusters(60, 6, n_clusters=4, spread=1e-3, seed=1)

    def test_code_count_must_match_the_page(self):
        fit = fit_pq(self.pts[:-1], 2, 4)
        with pytest.raises(QuantizationError, match="shape"):
            encode_pq_page(fit, len(self.pts), 4, 2, 8192)
        with pytest.raises(QuantizationError, match="shape"):
            encode_pq_body(fit, len(self.pts), 2, 4)

    def test_subspace_count_must_match_the_page(self):
        fit = fit_pq(self.pts, 3, 4)
        with pytest.raises(QuantizationError, match="shape"):
            encode_pq_page(fit, len(self.pts), 4, 2, 8192)

    def test_cluster_count_must_fit_the_code_width(self):
        fit = fit_pq(self.pts, 2, 4)  # K = 16
        with pytest.raises(QuantizationError, match="clusters"):
            encode_pq_body(fit, len(self.pts), 2, 3)

    def test_matching_fit_round_trips(self):
        fit = fit_pq(self.pts, 2, 4)
        body = encode_pq_body(fit, len(self.pts), 2, 4)
        codes, _view = codecs.decode_pq_body(body, len(self.pts), 4, 6)
        assert (codes == fit[0]).all()
