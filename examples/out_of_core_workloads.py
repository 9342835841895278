"""Out-of-core workloads end to end: measure F(M), classify, and rebalance.

This example is the measurement pipeline the benchmarks use, applied to three
workloads with very different memory behaviour:

* blocked matrix multiplication      -- intensity grows like sqrt(M),
* blocked FFT (Fig. 2 decomposition) -- intensity grows like log2(M),
* streaming matrix-vector product    -- intensity stuck at a constant.

For each workload it sweeps the local-memory size, prints the measured
intensity table, classifies the curve into the paper's taxonomy, fits the
scaling law, inverts the *measured* curve to answer "how much memory do I
need if C/IO doubles?", and draws the three curves on one log-log ASCII
chart.

Run with:  python examples/out_of_core_workloads.py
"""

from __future__ import annotations

from repro.analysis import ascii_chart, fit_power_law, measured_rebalance_curve
from repro.kernels import BlockedFFT, BlockedMatrixMultiply, StreamingMatrixVectorProduct
from repro.runtime import SweepRunner

WORKLOADS = (
    (BlockedMatrixMultiply(), 48, (12, 27, 48, 108, 192, 300, 432), 48),
    (BlockedFFT(), 12, (4, 8, 16, 32, 128, 8192), 32),
    (StreamingMatrixVectorProduct(), 64, (8, 32, 128, 512, 2048), 32),
)


def main() -> None:
    chart_series = {}
    for kernel, scale, memory_sizes, base_memory in WORKLOADS:
        sweep = SweepRunner().run_default(kernel, memory_sizes, scale)
        print(f"== {kernel.name} ==")
        for memory, execution in zip(sweep.memory_sizes, sweep.executions):
            print(
                f"  M={memory:>6d} words: {execution.cost.compute_ops:>12,.0f} ops, "
                f"{execution.cost.io_words:>12,.0f} words of I/O, F={execution.intensity:7.2f}"
            )

        classification = sweep.classification()
        fit = fit_power_law(sweep.memory_sizes, sweep.intensities)
        print(f"  classification : {classification.describe()}")
        print(f"  power-law fit  : {fit.describe()}")

        curve = measured_rebalance_curve(sweep, memory_old=base_memory, alphas=(2.0,))
        answer = curve[0]
        if answer.feasible:
            print(
                f"  if C/IO doubles: grow the local memory from {base_memory} to "
                f"{answer.memory_new:,.0f} words (x{answer.growth_factor:,.1f})"
            )
        else:
            print(
                "  if C/IO doubles: no finite local memory restores balance "
                "(I/O-bounded computation)"
            )
        print()

        chart_series[kernel.name] = (list(sweep.memory_sizes), list(sweep.intensities))

    print(
        ascii_chart(
            chart_series,
            log_x=True,
            log_y=True,
            title="Measured operational intensity F(M) (log-log)",
            x_label="local memory M (words)",
            y_label="F(M)",
        )
    )


if __name__ == "__main__":
    main()
