"""Self-test of the iqbench harness at smoke size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/iqbench -q``.
Every workload runs three times in a fresh interpreter -- untraced
twice, traced once -- so the tests see exactly what a caller of the
command sees: the final JSON line and the exit code.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: end-to-end metrics that are counts, which must repeat exactly.
COUNTS = ("sim_s_per_query", "blocks_per_query", "space_amp")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(cwd: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.2", "--smoke",
            "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    cwd = tmp_path_factory.mktemp(request.param)
    untraced = [bench(cwd, request.param, 0) for _ in range(2)]
    return untraced + [bench(cwd, request.param, 1)]


def test_every_metric_is_emitted_with_its_unit(runs):
    for result, section in ((runs[0], "end_to_end"), (runs[2], "per_layer")):
        assert result["correct"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"])
            assert math.isfinite(metric["value"])


def test_end_to_end_metrics_are_never_zero(runs):
    assert all(m["value"] != 0 for m in runs[0]["metrics"].values())


def test_counts_repeat_exactly(runs):
    for name in COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


def test_levels_sum_to_untraced_ledger(runs):
    """T_1st + T_2nd + T_3rd of the traced pass is the untraced cost."""
    from repro.storage.disk import DiskModel

    model = DiskModel()
    traced = runs[2]["metrics"]
    untraced = runs[0]["metrics"]

    def per_level(kind):
        return [traced[f"level{i}.{kind}"]["value"] for i in (1, 2, 3)]

    seconds = sum(
        s * model.t_seek + b * model.t_xfer
        for s, b in zip(per_level("seeks_per_query"),
                        per_level("blocks_per_query"))
    )
    assert math.isclose(
        seconds, untraced["sim_s_per_query"]["value"], rel_tol=1e-9
    )
    assert math.isclose(
        sum(per_level("blocks_per_query")),
        untraced["blocks_per_query"]["value"],
        rel_tol=1e-12,
    )
    assert math.isclose(sum(per_level("sim_share")), 1.0, rel_tol=1e-12)


def test_corrupted_answer_is_caught(tmp_path, monkeypatch, capsys):
    import repro.core.search as search
    from benchmarks.iqbench import run

    real = search.nearest_neighbors

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.ids = result.ids[::-1].copy()
        return result

    monkeypatch.setattr(search, "nearest_neighbors", corrupted)
    monkeypatch.chdir(tmp_path)
    code = run.main(
        ["--workload", "single-clustered", "--smoke", "--seconds", "0"]
    )
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
