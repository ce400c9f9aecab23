"""Tests for the top-level ``python -m repro`` CLI."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def data_file(tmp_path, rng):
    path = tmp_path / "data.npy"
    np.save(path, rng.random((400, 6)).astype(np.float32))
    return path


@pytest.fixture
def index_file(tmp_path, data_file):
    path = tmp_path / "index.iqt"
    assert main(["build", str(data_file), str(path)]) == 0
    return path


class TestBuild:
    def test_build_writes_index(self, tmp_path, data_file, capsys):
        path = tmp_path / "fresh.iqt"
        assert main(["build", str(data_file), str(path)]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "saved to" in out

    def test_build_no_optimize(self, tmp_path, data_file, capsys):
        path = tmp_path / "exact.iqt"
        assert (
            main(["build", str(data_file), str(path), "--no-optimize"])
            == 0
        )
        out = capsys.readouterr().out
        assert "{32:" in out.replace("np.int64(32)", "32")

    def test_build_with_metric(self, tmp_path, data_file):
        path = tmp_path / "linf.iqt"
        assert (
            main(
                ["build", str(data_file), str(path), "--metric", "linf"]
            )
            == 0
        )


class TestQuery:
    def test_explicit_point(self, index_file, capsys):
        point = ",".join(["0.5"] * 6)
        assert (
            main(["query", str(index_file), "--point", point, "--k", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "query ->" in out
        assert "ms simulated" in out

    def test_random_queries(self, index_file, capsys):
        assert main(["query", str(index_file), "--random", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("query ->") == 3


class TestBatch:
    def test_knn_batch(self, index_file, capsys):
        assert (
            main(
                [
                    "batch",
                    str(index_file),
                    "--random",
                    "5",
                    "--k",
                    "3",
                    "--pool",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "batch of 5 3-NN queries" in out
        assert "buffer pool" in out

    def test_range_batch_with_compare(self, index_file, capsys):
        assert (
            main(
                [
                    "batch",
                    str(index_file),
                    "--random",
                    "4",
                    "--radius",
                    "0.25",
                    "--compare",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "range r=0.25" in out
        assert "sequential loop" in out


class TestInfo:
    def test_info_fields(self, index_file, capsys):
        assert main(["info", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "metric: euclidean" in out
        assert "estimated query cost" in out
        assert "page resolutions" in out


class TestFsck:
    def test_fsck_clean_container(self, index_file, capsys):
        assert main(["fsck", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "IQTREE02" in out
        assert "status: clean" in out

    def test_fsck_corrupt_container(self, index_file, capsys):
        raw = bytearray(index_file.read_bytes())
        raw[-1] ^= 0xFF  # damage the payload tail
        index_file.write_bytes(bytes(raw))
        assert main(["fsck", str(index_file)]) == 1
        out = capsys.readouterr().out
        assert "status: corrupt" in out
        assert "payload" in out


class TestValidate:
    def test_validate_runs(self, index_file, capsys):
        assert (
            main(["validate", str(index_file), "--queries", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "pages" in out and "refinements" in out


class TestChaos:
    @pytest.fixture
    def quantized_index(self, tmp_path, data_file):
        # Fixed-bit quantization guarantees third-level refinements, so
        # the chaos matrix can target both the quantized and exact
        # levels.
        path = tmp_path / "quantized.iqt"
        assert (
            main(["build", str(data_file), str(path), "--bits", "5"]) == 0
        )
        return path

    def test_full_matrix_passes(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--random",
                    "4",
                    "--k",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos verdict: PASS" in out
        assert "post-chaos pristine check: ok" in out
        for kind in ("transient", "persistent", "corrupt"):
            assert kind in out

    def test_single_cell_smoke(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--random",
                    "3",
                    "--kinds",
                    "transient",
                    "--levels",
                    "exact",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transient" in out and "exact" in out

    def test_unknown_kind_rejected(self, quantized_index):
        with pytest.raises(SystemExit):
            main(
                ["chaos", str(quantized_index), "--kinds", "gamma-ray"]
            )

    def test_write_matrix_passes(self, quantized_index, capsys):
        assert (
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--writes",
                    "--ops",
                    "12",
                    "--checkpoint-every",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chaos verdict: PASS" in out
        for scenario in (
            "insert:post-append",
            "checkpoint:post-save",
            "torn-append",
            "torn-checkpoint",
            "corrupt-acked-record",
            "maintenance x sharded",
        ):
            assert scenario in out

    def test_writes_backend_rejected(self, quantized_index):
        with pytest.raises(SystemExit):
            main(
                [
                    "chaos",
                    str(quantized_index),
                    "--writes",
                    "--backend",
                    "carrier-pigeon",
                ]
            )
