"""Cost-model drift monitoring (the paper's eqs. 6-22 as an invariant).

The IQ-tree's layout is chosen by the Section 3 cost model, so the
model's accuracy is a standing claim the running system can check
itself: for every executed kNN query the :class:`DriftMonitor` stores
the model's *predicted* page accesses and simulated time next to the
*measured* figures from the :class:`~repro.storage.disk.IOStats`
ledger, and reports relative-error percentiles.  A drifting model --
because the data changed under maintenance, because the fractal
dimension estimate is stale, or because a code change broke an equation
-- shows up as a rising error percentile long before the optimizer's
layouts degrade.

Predictions are cached per ``(tree, layout, k)``: evaluating eqs. 16-18
and 23 costs a few hundred microseconds, far too much to pay per query.

The module-level :data:`MONITOR` is fed by the query paths whenever the
metrics registry is enabled; each recorded sample also lands in the
``iq_costmodel_drift_*`` histograms, so Prometheus scrapes see drift
without any extra wiring.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs import instruments

__all__ = ["DriftSample", "DriftReport", "DriftMonitor", "MONITOR"]

_EPS = 1e-12


def _relative_error(actual: float, predicted: float) -> float:
    return abs(actual - predicted) / max(abs(predicted), _EPS)


@dataclass(frozen=True)
class DriftSample:
    """Predicted vs. measured cost of one executed query."""

    predicted_pages: float
    actual_pages: float
    predicted_seconds: float
    actual_seconds: float

    @property
    def page_error(self) -> float:
        """Relative error of the page-access prediction."""
        return _relative_error(self.actual_pages, self.predicted_pages)

    @property
    def time_error(self) -> float:
        """Relative error of the simulated-time prediction."""
        return _relative_error(
            self.actual_seconds, self.predicted_seconds
        )


@dataclass(frozen=True)
class DriftReport:
    """Relative-error percentiles over the monitor's sample window."""

    count: int
    page_error_mean: float
    page_error_p50: float
    page_error_p90: float
    page_error_max: float
    time_error_mean: float
    time_error_p50: float
    time_error_p90: float
    time_error_max: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "page_error": {
                "mean": self.page_error_mean,
                "p50": self.page_error_p50,
                "p90": self.page_error_p90,
                "max": self.page_error_max,
            },
            "time_error": {
                "mean": self.time_error_mean,
                "p50": self.time_error_p50,
                "p90": self.time_error_p90,
                "max": self.time_error_max,
            },
        }

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        if self.count == 0:
            return "cost-model drift: no samples recorded"
        return (
            f"cost-model drift over {self.count} queries "
            "(relative error |actual-predicted|/predicted):\n"
            f"  pages  p50={self.page_error_p50:.2f} "
            f"p90={self.page_error_p90:.2f} "
            f"max={self.page_error_max:.2f} "
            f"mean={self.page_error_mean:.2f}\n"
            f"  time   p50={self.time_error_p50:.2f} "
            f"p90={self.time_error_p90:.2f} "
            f"max={self.time_error_max:.2f} "
            f"mean={self.time_error_mean:.2f}"
        )


class DriftMonitor:
    """Sliding-window collector of predicted-vs-actual query costs."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._samples: deque[DriftSample] = deque(maxlen=capacity)
        self._predictions: dict[tuple, tuple[float, float]] = {}

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[DriftSample]:
        """A copy of the current window."""
        return list(self._samples)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        predicted_pages: float,
        actual_pages: float,
        predicted_seconds: float,
        actual_seconds: float,
    ) -> DriftSample:
        """Store one predicted-vs-actual pair; feeds the histograms."""
        sample = DriftSample(
            predicted_pages=float(predicted_pages),
            actual_pages=float(actual_pages),
            predicted_seconds=float(predicted_seconds),
            actual_seconds=float(actual_seconds),
        )
        self._samples.append(sample)
        if instruments.REGISTRY.enabled:
            instruments.DRIFT_PAGE_ERROR.observe(sample.page_error)
            instruments.DRIFT_TIME_ERROR.observe(sample.time_error)
        return sample

    def observe_query(
        self, tree, k: int, actual_pages: float, actual_seconds: float
    ) -> DriftSample:
        """Record one executed kNN query against the tree's own model."""
        predicted_pages, predicted_seconds = self._prediction(tree, k)
        return self.record(
            predicted_pages, actual_pages, predicted_seconds,
            actual_seconds,
        )

    def _prediction(self, tree, k: int) -> tuple[float, float]:
        """Model-predicted (pages, seconds) per query, cached by layout.

        The cache key includes the page count and live-point count, so
        maintenance (insert/delete/reoptimize) invalidates it naturally.
        The tree enters it by weak reference, not by ``id``: a tree
        allocated where a freed one lived has the freed one's ``id``,
        and would be served that tree's prediction.
        """
        key = (weakref.ref(tree), tree.n_pages, tree.n_live_points, int(k))
        cached = self._predictions.get(key)
        if cached is not None:
            return cached
        # Local imports: obs must stay importable from the storage
        # layer without pulling the cost model in at module-import time.
        from repro.core.optimizer import stats_for
        from repro.costmodel.model import CostModel
        from repro.costmodel.pages import expected_page_accesses

        model = tree.cost_model
        if int(k) != model.k:
            model = CostModel(
                model.disk,
                model.dim,
                model.n_total,
                fractal_dim=model.fractal_dim,
                data_space_volume=model.data_space_volume,
                metric=model.metric,
                k=int(k),
            )
        pages = expected_page_accesses(
            tree.n_pages,
            tree.n_live_points,
            tree.dim,
            fractal_dim=model.fractal_dim,
            data_space_volume=model.data_space_volume,
            metric=model.metric,
            k=int(k),
        )
        # stats_for attributes per-codec refinement cost: PQ pages
        # report their codebook's grid-equivalent resolution, not the
        # grid bits, so mixed-codec trees do not show spurious drift.
        breakdown = model.breakdown(
            stats_for(opt) for opt in tree._partitions
        )
        prediction = (float(pages), float(breakdown.total))
        # Drop the entries of freed trees; no live tree can match them.
        self._predictions = {
            old: cached
            for old, cached in self._predictions.items()
            if old[0]() is not None
        }
        self._predictions[key] = prediction
        return prediction

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> DriftReport:
        """Percentile summary of the current window."""
        if not self._samples:
            return DriftReport(0, *([0.0] * 8))
        page = np.array([s.page_error for s in self._samples])
        time_ = np.array([s.time_error for s in self._samples])
        return DriftReport(
            count=len(self._samples),
            page_error_mean=float(page.mean()),
            page_error_p50=float(np.percentile(page, 50)),
            page_error_p90=float(np.percentile(page, 90)),
            page_error_max=float(page.max()),
            time_error_mean=float(time_.mean()),
            time_error_p50=float(np.percentile(time_, 50)),
            time_error_p90=float(np.percentile(time_, 90)),
            time_error_max=float(time_.max()),
        )

    def reset(self) -> None:
        """Drop all samples and cached predictions."""
        self._samples.clear()
        self._predictions.clear()


#: Process-wide monitor fed by the query paths when the registry is on.
MONITOR = DriftMonitor()
