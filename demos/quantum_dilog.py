"""Multiply quantum dilogarithm series and test the classical identities.

Builds exact q-series out of module dimension vectors for the rank-3 preset
"a3", verifies the commuting-square and pentagon identities, shows that the
pentagon fails when the factors are fed in the mirrored order, and finishes
with the wall-crossing invariant: every maximal green sequence of "a3" at
level 1 multiplies out to the same series. It is checked twice, once per
sequence and once per green edge of the exchange graph, and the two checks
agree.

Run:  python3 demos/quantum_dilog.py
"""

from mcfans import (MutationContext, PairingForm, check_pentagon,
                    check_square, dilog_series, dt_invariant_check,
                    edge_invariant_check, enumerate_mgs, exchange_graph,
                    green_paths, indecomposables, preset)
from mcfans.errors import HypothesisViolated


def main():
    q3 = preset("a3")
    table3 = indecomposables(q3)

    # --- the first few coefficients of a dilogarithm series ---
    s1 = table3.simple(1)
    form = PairingForm(q3.exchange)
    series = dilog_series(s1.dim, 4, form)
    for k in range(3):
        alpha = tuple(k * x for x in s1.dim)
        print(f"coefficient of y^{alpha}: {series.coefficient(alpha)}")

    # --- hom- and ext-orthogonal factors commute ---
    print(f"square identity for (S1, S3): "
          f"{check_square(s1, table3.simple(3))}")
    try:
        check_square(table3.simple(2), s1)
    except HypothesisViolated as exc:
        print(f"square refused for (S2, S1): {exc}")

    # --- the pentagon in rank 2: E(S2) E(S1) = E(S1) E(P2) E(S2) ---
    table2 = indecomposables(preset("a2"))
    t1, t2, p2 = table2.simple(1), table2.simple(2), table2.projective(2)
    print(f"pentagon identity for (S2, S1, P2): {check_pentagon(t2, t1, p2)}")
    try:
        check_pentagon(t1, t2, p2)
    except HypothesisViolated as exc:
        print(f"pentagon refused for swapped factors: {exc}")

    # --- every green sequence yields the same ordered product ---
    ctx = MutationContext(q3, 1)
    records = enumerate_mgs(ctx, depth_cap=8).records
    report = dt_invariant_check(ctx, records, truncation=4)
    print(f"invariance across {len(records)} green sequences: ok={report.ok}")
    print(f"common series has {len(report.series.terms)} terms "
          f"up to total degree {report.series.truncation}")

    # --- the same verdict from one product per green edge ---
    graph = exchange_graph(ctx, depth_cap=8)
    count = green_paths(graph, 8).count
    edges = edge_invariant_check(ctx, graph, 4)
    print(f"invariance across {len(graph.edges)} green edges: ok={edges.ok}, "
          f"{count} green paths counted")
    print(f"both checks report the same series: "
          f"{edges.series.to_json() == report.series.to_json()}")

if __name__ == "__main__":
    main()
