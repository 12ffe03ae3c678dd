"""Seeded ``lineitem`` batches appended by the ``ingest_sharded`` workload.

Pure numpy, so the oracle's worker processes regenerate exactly the batches
the program received without importing the program.
"""

from __future__ import annotations

import numpy as np

from aqpbench import common

_FLAGS = ["A", "N", "R"]
_STATUSES = ["F", "O"]
_MODES = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"]


def lineitem_batch(seed: int, index: int, rows: int) -> dict[str, np.ndarray]:
    """Batch ``index`` of the append stream of ``seed``: ``rows`` new lines.

    Keys stay inside the base tables' ranges and quantities are whole
    numbers, so ``sum(l_quantity)`` is exact in float64.
    """
    rng = np.random.default_rng([seed, index])
    orders = int(15_000 * common.TPCH_SCALE)
    parts = int(2_000 * common.TPCH_SCALE)
    suppliers = int(100 * common.TPCH_SCALE)
    years = rng.integers(1992, 1999, rows)
    ship = years * 10_000 + rng.integers(1, 13, rows) * 100 + rng.integers(1, 29, rows)
    return {
        "l_orderkey": rng.integers(0, orders, rows),
        "l_partkey": rng.integers(0, parts, rows),
        "l_suppkey": rng.integers(0, suppliers, rows),
        "l_quantity": rng.integers(1, 51, rows).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900, 105_000, rows), 2),
        "l_discount": np.round(rng.uniform(0.0, 0.1, rows), 2),
        "l_tax": np.round(rng.uniform(0.0, 0.08, rows), 2),
        "l_returnflag": rng.choice(_FLAGS, rows, p=[0.25, 0.5, 0.25]).astype(object),
        "l_linestatus": rng.choice(_STATUSES, rows).astype(object),
        "l_shipdate": ship,
        "l_commitdate": ship + rng.integers(0, 60, rows),
        "l_receiptdate": ship + rng.integers(1, 45, rows),
        "l_shipmode": rng.choice(_MODES, rows).astype(object),
    }
