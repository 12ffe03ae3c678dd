"""Helpers shared by the workloads: paths, program setup, statistics, memory.

Nothing here imports the program at module load; workloads import ``repro``
themselves so that the set-up time they report includes that import.
"""

from __future__ import annotations

import math
import os
import statistics
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Oracle databases and answer caches (ignored by git).
CACHE_DIR = os.path.join(HERE, ".cache")
#: Span dumps of traced runs and scratch files of one run (ignored by git).
OUT_DIR = os.path.join(HERE, "out")

#: Data and scramble seed: every run of every workload reads the same base
#: tables and the same scrambles; ``--seed`` picks the statements and batches.
DATA_SEED = 0
#: TPC-H-like scale factor (60k ``lineitem`` rows per unit).
TPCH_SCALE = 2.0
#: Instacart-like scale factor (60k ``order_products`` rows per unit).
INSTACART_SCALE = 2.0
#: Sampling ratio of every scramble (the experiments' harness recipe).
SAMPLE_RATIO = 0.02

#: Scramble recipe of ``repro.experiments.harness``: a uniform sample per
#: fact table plus hashed and stratified ones on these columns.
TPCH_HASHED = {
    "lineitem": ["l_orderkey", "l_partkey"],
    "orders": ["o_orderkey"],
    "partsupp": ["ps_partkey"],
}
TPCH_STRATIFIED = {"lineitem": ["l_returnflag", "l_shipmode"], "orders": ["o_orderpriority"]}
INSTACART_HASHED = {"order_products": ["order_id"], "orders": ["order_id"]}
INSTACART_STRATIFIED = {"orders": ["order_dow"], "order_products": ["reordered"]}


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_program_source() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def planner_config():
    """The experiments' planner budget (``harness.default_planner_config``)."""
    from repro import PlannerConfig

    return PlannerConfig(io_budget=0.1, large_table_rows=5_000)


def build_scrambles(session, fact_tables, hashed, stratified) -> None:
    """Uniform, hashed and stratified scrambles per fact table."""
    from repro import SampleSpec

    for table in fact_tables:
        specs = [SampleSpec("uniform", (), SAMPLE_RATIO)]
        specs += [SampleSpec("hashed", (c,), SAMPLE_RATIO) for c in hashed.get(table, [])]
        specs += [
            SampleSpec("stratified", (c,), SAMPLE_RATIO) for c in stratified.get(table, [])
        ]
        session.create_samples(table, specs)


def scramble_count_mismatches(session) -> list[str]:
    """Scrambles whose metadata ``sample_rows`` differs from an exact count."""
    problems = []
    for info in session.samples():
        counted = session.execute_exact(f"SELECT count(*) AS n FROM {info.sample_table}")
        rows = int(counted.column("n")[0])
        if rows != info.sample_rows:
            problems.append(f"{info.sample_table}: metadata {info.sample_rows}, count {rows}")
    return problems


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def gmean_of_medians(latencies: dict[str, list[float]]) -> float:
    """Geometric mean over templates of each template's median latency."""
    medians = [median(values) for values in latencies.values() if values]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def latency_metrics(latencies: dict[str, list[float]], tail: float) -> dict[str, float]:
    """``latency_gmean_ms`` and the tail percentile of all statements, in ms."""
    pooled = [value for values in latencies.values() for value in values]
    print("template median ms: " + " ".join(
        f"{name}={median(values) * 1000:.2f}" for name, values in latencies.items()
    ))
    beyond = len(pooled) * (100.0 - tail) / 100.0
    if beyond < 10:
        print(
            f"warning: {len(pooled)} samples leave {beyond:.1f} beyond p{tail:g}",
            file=sys.stderr,
        )
    return {
        "latency_gmean_ms": gmean_of_medians(latencies) * 1000.0,
        "latency_p95_ms": float(np.percentile(pooled, tail)) * 1000.0,
    }


def accuracy_metrics(cells: list[tuple[float, float, float]]) -> dict[str, float]:
    """Error metrics over (estimate, half-width, truth) of approximate cells."""
    errors = [abs(est - truth) / abs(truth) for est, _, truth in cells if truth != 0]
    widths = [margin / abs(est) for est, margin, _ in cells if est != 0]
    covered = [abs(est - truth) <= margin for est, margin, truth in cells]
    return {
        "rel_error_p50": median(errors),
        "ci_halfwidth_p50": median(widths),
        "ci_coverage": sum(covered) / len(covered) if covered else float("nan"),
    }


# -- memory -------------------------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
