"""E5 — Figure 6: Phase I running time scales linearly with data size.

The paper scales a WBCD-derived workload from 100K to 500K tuples (holding
the cluster structure constant, growing outliers proportionally, 3%
frequency threshold, 5MB memory cap) and reports linear Phase I running
time.  The authors' testbed was a Sun Sparc 10; absolute times are
meaningless here, so we verify the *shape*: the N-vs-seconds series must
fit a line with high R^2 and near-zero curvature.

The sweep keeps the paper's 30 attributes (every tree carries 29 cross
partitions) and scales the sizes to laptop budgets (50K-200K tuples by
default); set REPRO_BENCH_SCALE to stretch it.  ``benchmarks/paper_scale.py``
extends the same run to 0.5M tuples, capped and uncapped.
"""

from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like
from repro.evaluation import linear_fit, measure_phase1
from repro.report.tables import Table

from conftest import bench_scale

#: Passes over every size; each size keeps its fastest pass, so a slow
#: spell of a shared host has to hit the same size in every pass to count.
PASSES = 2


def run_scaling():
    scale = bench_scale()
    sizes = [int(round(n * scale)) for n in (50_000, 100_000, 150_000, 200_000)]
    base = make_wbcd_like(seed=42)
    names = base.schema.names
    best = {}
    for _ in range(PASSES):
        for size in sizes:
            relation = make_scaled_wbcd(size, outlier_fraction=0.05, seed=42, base=base)
            measurement = measure_phase1(
                relation,
                names,
                frequency_fraction=0.03,      # the paper's 3% threshold
                memory_limit_bytes=5 * 2**20,  # the paper's 5MB Phase I cap
            )
            if size not in best or measurement.seconds < best[size][0]:
                best[size] = (measurement.seconds, measurement.entry_count)
    return [(size, *best[size]) for size in sizes]


def test_fig6_phase1_scaling(benchmark, emit):
    series = benchmark.pedantic(run_scaling, rounds=1, iterations=1)

    sizes = [row[0] for row in series]
    seconds = [row[1] for row in series]
    fit = linear_fit(sizes, seconds)

    table = Table(
        "Figure 6 - Phase I running time vs number of tuples "
        f"(linear fit R^2 = {fit.r_squared:.4f})",
        ["tuples", "phase1 seconds", "ACF entries", "sec per 10K tuples"],
    )
    for size, secs, entries in series:
        table.add_row(size, secs, entries, secs / size * 10_000)
    emit(table, "fig6_phase1_scaling.txt")

    # The paper's claim: performance scales linearly with data size.  The
    # R^2 bar allows for wall-clock noise on shared machines (a steady run
    # measures 0.99+); the per-tuple flatness check below is the robust
    # superlinearity detector — quadratic growth would show a 4x per-tuple
    # cost at the largest size, far outside the 1.5x band.
    assert fit.r_squared > 0.95, f"Phase I not linear in N: R^2={fit.r_squared:.4f}"
    # Time must actually grow with N (guards against degenerate fits).
    assert seconds[-1] > seconds[0]
    per_tuple = [secs / size for size, secs, _ in series]
    assert per_tuple[-1] < per_tuple[0] * 1.5
