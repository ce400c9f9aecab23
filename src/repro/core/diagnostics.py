"""Query-execution diagnostics: explain what a query would do and why.

``explain_query`` runs an instrumented nearest-neighbor search and
returns a structured trace -- the per-page decisions (pruned, loaded
standardly, pre-read speculatively), the access probabilities the
scheduler computed, and whether the search needed each page it read --
so users can see the paper's machinery at work on their own data, and
tests can pin scheduler behaviour precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SearchError
from repro.core.tree import IQTree
from repro.geometry.mbr import mindist_to_boxes

__all__ = ["PageDecision", "QueryExplanation", "explain_query"]


@dataclass
class PageDecision:
    """What happened to one data page during a query."""

    page: int
    mindist: float
    outcome: str  # "pivot" | "speculative" | "pruned"
    #: last probability the window planner computed (see explain_query)
    access_probability: float | None = None
    order: int | None = None  # read order among read pages
    #: the search decoded and bounded the page; a page read but never
    #: decoded cost its transfer and nothing else (wasted I/O)
    decoded: bool = False


@dataclass
class QueryExplanation:
    """Structured trace of one nearest-neighbor query."""

    query: np.ndarray
    k: int
    result_ids: np.ndarray
    result_distances: np.ndarray
    decisions: list[PageDecision] = field(default_factory=list)
    refinements: int = 0
    elapsed: float = 0.0

    @property
    def pages_read(self) -> int:
        """Pages actually loaded (pivot + speculative)."""
        return sum(1 for d in self.decisions if d.outcome != "pruned")

    @property
    def pages_pruned(self) -> int:
        """Pages never loaded."""
        return sum(1 for d in self.decisions if d.outcome == "pruned")

    @property
    def speculative_reads(self) -> int:
        """Pages pre-read by the cost-balance scheduler."""
        return sum(
            1 for d in self.decisions if d.outcome == "speculative"
        )

    @property
    def pages_decoded(self) -> int:
        """Read pages the search decoded (the rest were wasted reads)."""
        return sum(1 for d in self.decisions if d.decoded)

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        return (
            f"k={self.k}: read {self.pages_read} pages "
            f"({self.speculative_reads} speculative, "
            f"{self.pages_decoded} decoded), pruned "
            f"{self.pages_pruned}, refined {self.refinements} points, "
            f"{self.elapsed * 1e3:.2f} ms simulated"
        )


class _Recorder:
    """What one search did, page by page (see :func:`explain_query`)."""

    def __init__(self):
        #: page -> (outcome, read order) of every page read
        self.read: dict[int, tuple[str, int]] = {}
        #: page -> the access probability a window last computed for it
        self.probabilities: dict[int, float] = {}
        self.decoded: set[int] = set()

    def pages_read(self, pivot: int, pages) -> None:
        for page in pages:
            outcome = "pivot" if page == pivot else "speculative"
            self.read.setdefault(page, (outcome, len(self.read)))


def explain_query(tree: IQTree, query: np.ndarray, k: int = 1) -> QueryExplanation:
    """Run one instrumented optimized-scheduler k-NN query.

    The search reports to a recorder of its own: each page a step
    reads is the step's pivot or a speculative read of the pivot's
    cost-balance window.  A decoded-cache hit is a step of its own (no
    window is planned around it), so it counts as that step's pivot.
    Pages never loaded are pruned.  A read page is ``decoded`` when its
    turn came in the best-first order (an exact page, when it was
    read).  Concurrent calls do not see each other's pages, and each
    runs from a parked disk head under the tree's write lock.

    A speculative or pruned page carries the access probability the
    window planner last computed for it while it was still pending
    (for a speculative page, in the window that read it); a page no
    window examined carries ``None``, as does every pivot.
    """
    from repro.core.search import nearest_neighbors

    tree._ensure_clean()
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (tree.dim,):
        raise SearchError(
            f"query must have shape ({tree.dim},), got {query.shape}"
        )
    recorder = _Recorder()
    with tree._write_lock:
        tree.disk.park()
        result = nearest_neighbors(tree, query, k=k, recorder=recorder)

    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, tree.metric
    )
    explanation = QueryExplanation(
        query=query,
        k=k,
        result_ids=result.ids,
        result_distances=result.distances,
        refinements=result.refinements,
        elapsed=result.io.elapsed,
    )
    for page in range(tree.n_pages):
        outcome, order = recorder.read.get(page, ("pruned", None))
        explanation.decisions.append(
            PageDecision(
                page=page,
                mindist=float(page_mindists[page]),
                outcome=outcome,
                access_probability=(
                    None
                    if outcome == "pivot"
                    else recorder.probabilities.get(page)
                ),
                order=order,
                decoded=page in recorder.decoded,
            )
        )
    return explanation
