"""Looking inside a query: diagnostics and cost-model validation.

Two introspection tools round out the library:

* ``explain_query`` traces one nearest-neighbor search -- which pages
  were pivots, which were pre-read speculatively by the cost-balance
  scheduler, which were pruned, and which read pages the best-first
  order never needed to decode -- so you can watch Section 2.1 of the
  paper operate on your data.
* ``validate_cost_model`` compares the cost model's predictions
  (expected page accesses, refinements, total time) against an
  instrumented workload -- the sanity check behind "optimal with
  respect to a given cost model".

Run with:  python examples/explain_and_validate.py
"""

from collections import Counter

from repro.core.diagnostics import explain_query
from repro.core.tree import IQTree
from repro.datasets import gaussian_clusters, make_workload
from repro.experiments.harness import experiment_disk
from repro.experiments.validation import validate_cost_model


def main() -> None:
    data, queries = make_workload(
        gaussian_clusters,
        n=25_000,
        n_queries=8,
        seed=1,
        dim=10,
        n_clusters=12,
        spread=0.04,
    )
    tree = IQTree.build(data, disk=experiment_disk())
    print(f"{tree}\n")

    # --- explain one query -------------------------------------------
    explanation = explain_query(tree, queries[0], k=5)
    print("query explanation:", explanation.summary())
    outcomes = Counter(d.outcome for d in explanation.decisions)
    print(f"page outcomes: {dict(outcomes)}")
    loaded = sorted(
        (d for d in explanation.decisions if d.outcome != "pruned"),
        key=lambda d: d.order,
    )
    print("first pages touched (page id, mindist, how):")
    for decision in loaded[:6]:
        print(
            f"  page {decision.page:4d}  mindist={decision.mindist:.4f}"
            f"  {decision.outcome}"
            f"{'' if decision.decoded else ', never decoded'}"
        )

    # --- validate the cost model --------------------------------------
    validation = validate_cost_model(tree, queries, k=5)
    print("\ncost-model validation (predicted/measured):")
    print(" ", validation.summary())
    print(
        f"  -> the optimizer minimized a prediction that is "
        f"{validation.time_ratio:.2f}x the measured time"
    )

    # --- warm-cache effect ---------------------------------------------
    pool = tree.use_buffer_pool(4096)
    tree.disk.park()
    cold = tree.nearest(queries[1], k=5).io.elapsed
    tree.disk.park()
    warm = tree.nearest(queries[1], k=5).io.elapsed
    print(
        f"\nbuffer pool: cold {cold * 1e3:.2f} ms -> warm "
        f"{warm * 1e3:.2f} ms (hit rate {pool.hit_rate:.0%})"
    )


if __name__ == "__main__":
    main()
