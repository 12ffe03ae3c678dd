"""``tpch_adhoc``: one in-process connection, a serial engine, no two
statements with the same text.

Each round runs the 16 TPC-H-like templates that answer soundly today
(``tq-9`` and ``tq-16`` are left out, see ``CHANGES.md``) with literals drawn
from the seed and inlined, so every layer from parsing to error estimation
runs on every statement.  ``tq-3/10/13/15/18`` take the exact fallback.
"""

from __future__ import annotations

import os
import time

import numpy as np

from aqpbench import common, oracle, report

_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_FLAGS = ["A", "N", "R"]


def _date(rng, first_year: int, last_year: int) -> int:
    return (
        int(rng.integers(first_year, last_year + 1)) * 10_000
        + int(rng.integers(1, 13)) * 100
        + int(rng.integers(1, 29))
    )


def _later(date: int, months: int) -> int:
    year, month, day = date // 10_000, date // 100 % 100, date % 100
    month += months
    year += (month - 1) // 12
    month = (month - 1) % 12 + 1
    return year * 10_000 + month * 100 + day


def _brand(rng) -> str:
    return f"Brand#{int(rng.integers(1, 26))}"


def _tq1(rng):
    return f"""SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= {_date(rng, 1997, 1998)} AND l_quantity <= {int(rng.integers(40, 51))}
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus"""


def _tq3(rng):
    day = _date(rng, 1995, 1995)
    return f"""SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderdate < {day} AND l_shipdate > {day} AND l_discount >= {rng.integers(0, 6) / 100:.2f}
GROUP BY l_orderkey
ORDER BY revenue DESC
LIMIT 10"""


def _tq5(rng):
    start = _date(rng, 1993, 1997)
    return f"""SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem
     INNER JOIN orders ON l_orderkey = o_orderkey
     INNER JOIN customer ON o_custkey = c_custkey
     INNER JOIN nation ON c_nationkey = n_nationkey
WHERE o_orderdate >= {start} AND o_orderdate < {_later(start, 12)}
GROUP BY n_name
ORDER BY revenue DESC"""


def _tq6(rng):
    start = _date(rng, 1992, 1997)
    discount = int(rng.integers(2, 10))
    return f"""SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= {start} AND l_shipdate < {_later(start, 12)}
      AND l_discount BETWEEN {(discount - 1) / 100:.2f} AND {(discount + 1) / 100:.2f}
      AND l_quantity < {int(rng.integers(20, 31))}"""


def _tq7(rng):
    start = _date(rng, 1992, 1996)
    return f"""SELECT n_name, floor(l_shipdate / 10000) AS l_year,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem
     INNER JOIN orders ON l_orderkey = o_orderkey
     INNER JOIN customer ON o_custkey = c_custkey
     INNER JOIN nation ON c_nationkey = n_nationkey
WHERE l_shipdate BETWEEN {start} AND {_later(start, 24)}
GROUP BY n_name, floor(l_shipdate / 10000)
ORDER BY n_name, l_year"""


def _tq8(rng):
    start = _date(rng, 1992, 1996)
    kind = _TYPES[int(rng.integers(len(_TYPES)))]
    return f"""SELECT floor(o_orderdate / 10000) AS o_year,
       sum(l_extendedprice * (1 - l_discount)) AS volume, count(*) AS num_items
FROM lineitem
     INNER JOIN orders ON l_orderkey = o_orderkey
     INNER JOIN part ON l_partkey = p_partkey
WHERE p_type = '{kind}' AND o_orderdate BETWEEN {start} AND {_later(start, 24)}
GROUP BY floor(o_orderdate / 10000)
ORDER BY o_year"""


def _tq10(rng):
    start = _date(rng, 1993, 1995)
    flag = _FLAGS[int(rng.integers(len(_FLAGS)))]
    return f"""SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem
     INNER JOIN orders ON l_orderkey = o_orderkey
     INNER JOIN customer ON o_custkey = c_custkey
WHERE l_returnflag = '{flag}' AND o_orderdate >= {start} AND o_orderdate < {_later(start, 3)}
GROUP BY c_custkey
ORDER BY revenue DESC
LIMIT 20"""


def _tq11(rng):
    return f"""SELECT n_name, sum(ps_supplycost * ps_availqty) AS stock_value
FROM partsupp
     INNER JOIN supplier ON ps_suppkey = s_suppkey
     INNER JOIN nation ON s_nationkey = n_nationkey
WHERE ps_availqty >= {int(rng.integers(1, 5001))}
GROUP BY n_name
ORDER BY stock_value DESC"""


def _tq12(rng):
    start = _date(rng, 1992, 1997)
    return f"""SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
WHERE l_receiptdate >= {start} AND l_receiptdate < {_later(start, 12)}
GROUP BY l_shipmode
ORDER BY l_shipmode"""


def _tq13(rng):
    return f"""SELECT avg(order_count) AS avg_orders, count(*) AS num_customers
FROM (SELECT o_custkey, count(*) AS order_count
      FROM orders
      WHERE o_totalprice >= {int(rng.integers(0, 100_000))}
      GROUP BY o_custkey) AS per_customer"""


def _tq14(rng):
    start = _date(rng, 1992, 1998)
    kind = _TYPES[int(rng.integers(len(_TYPES)))]
    return f"""SELECT sum(CASE WHEN p_type = '{kind}' THEN l_extendedprice * (1 - l_discount)
                ELSE 0 END) AS promo_revenue,
       sum(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM lineitem INNER JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= {start} AND l_shipdate < {_later(start, 1)}"""


def _tq15(rng):
    start = _date(rng, 1992, 1997)
    return f"""SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM lineitem
WHERE l_shipdate >= {start} AND l_shipdate < {_later(start, 3)}
GROUP BY l_suppkey
ORDER BY total_revenue DESC
LIMIT 10"""


def _tq17(rng):
    return f"""SELECT sum(l_extendedprice) AS total_price, avg(l_quantity) AS avg_qty
FROM lineitem INNER JOIN part ON l_partkey = p_partkey
WHERE p_brand = '{_brand(rng)}' AND l_quantity < {int(rng.integers(20, 31))}
      AND l_discount <= {rng.integers(5, 11) / 100:.2f}"""


def _tq18(rng):
    start = _date(rng, 1992, 1995)
    return f"""SELECT avg(total_qty) AS avg_order_qty, count(*) AS num_orders
FROM (SELECT l_orderkey, sum(l_quantity) AS total_qty
      FROM lineitem
      WHERE l_shipdate >= {start} AND l_shipdate < {_later(start, 36)}
      GROUP BY l_orderkey) AS per_order"""


def _tq19(rng):
    low = [int(rng.integers(1, 11)), int(rng.integers(10, 21)), int(rng.integers(20, 31))]
    return f"""SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem INNER JOIN part ON l_partkey = p_partkey
WHERE (p_brand = '{_brand(rng)}' AND l_quantity BETWEEN {low[0]} AND {low[0] + 10})
   OR (p_brand = '{_brand(rng)}' AND l_quantity BETWEEN {low[1]} AND {low[1] + 10})
   OR (p_brand = '{_brand(rng)}' AND l_quantity BETWEEN {low[2]} AND {low[2] + 10})"""


def _tq20(rng):
    return f"""SELECT p_type, sum(ps_availqty) AS total_avail, avg(ps_supplycost) AS avg_cost
FROM partsupp INNER JOIN part ON ps_partkey = p_partkey
WHERE ps_supplycost < {int(rng.integers(100, 1001))}
GROUP BY p_type
ORDER BY p_type"""


TEMPLATES = [
    ("tq-1", _tq1), ("tq-3", _tq3), ("tq-5", _tq5), ("tq-6", _tq6), ("tq-7", _tq7),
    ("tq-8", _tq8), ("tq-10", _tq10), ("tq-11", _tq11), ("tq-12", _tq12), ("tq-13", _tq13),
    ("tq-14", _tq14), ("tq-15", _tq15), ("tq-17", _tq17), ("tq-18", _tq18), ("tq-19", _tq19),
    ("tq-20", _tq20),
]


def statement_rounds(seed: int, rounds: int) -> list[list[tuple[str, str]]]:
    """The first ``rounds`` rounds of the seed's statement stream.

    Round 0 is the warm-up.  A draw that repeats an earlier statement's
    text is drawn again, so no two statements of a run share text.
    """
    rng = np.random.default_rng([seed, 7])
    seen: set[str] = set()
    result = []
    for _ in range(rounds):
        batch = []
        for name, make in TEMPLATES:
            for _attempt in range(1000):
                sql = make(rng)
                if sql not in seen:
                    break
            else:
                raise RuntimeError(f"{name}: literal domain exhausted")
            seen.add(sql)
            batch.append((name, sql))
        result.append(batch)
    return result


def _setup():
    import repro
    from repro import Database
    from repro.workloads import tpch

    dataset = tpch.generate(scale_factor=common.TPCH_SCALE, seed=common.DATA_SEED)
    connection = repro.connect(
        database=Database(seed=common.DATA_SEED), planner_config=common.planner_config()
    )
    for name, columns in dataset.tables.items():
        connection.session.load_table(name, columns)
    common.build_scrambles(
        connection.session, tpch.FACT_TABLES, common.TPCH_HASHED, common.TPCH_STRATIFIED
    )
    return connection


def _execute(cursor, sql):
    started = time.perf_counter()
    cursor.execute(sql)
    rows = cursor.fetchall()
    return time.perf_counter() - started, rows


def run(args, started: float, tracer) -> None:
    if tracer is not None:
        tracer.enabled = True
    connection = _setup()
    setup_s = time.perf_counter() - started
    builder_spans = tracer.take() if tracer is not None else []
    if tracer is not None:
        tracer.enabled = False
    problems = common.scramble_count_mismatches(connection.session)
    database = connection.session.connector.database
    cursor = connection.cursor()

    all_rounds = statement_rounds(args.seed, 1 + _rounds_budget(args.seconds))
    for _, sql in all_rounds[0]:
        _execute(cursor, sql)

    measured = []  # (template, sql, seconds, rows, result, window)
    windows = [args.seconds / 2.0, args.seconds / 2.0] if tracer else [args.seconds]
    window_stats = []
    qps = []
    round_index = 1
    for window_number, window in enumerate(windows):
        if tracer is not None and window_number == 1:
            tracer.take()
            tracer.enabled = True
        before = report.stats_snapshot(database.stats)
        window_started = time.perf_counter()
        round_rates = []
        while time.perf_counter() - window_started < window:
            if round_index >= len(all_rounds):
                raise RuntimeError("statement stream exhausted; raise the rounds budget")
            busy = 0.0
            for name, sql in all_rounds[round_index]:
                seconds, rows = _execute(cursor, sql)
                busy += seconds
                measured.append((name, sql, seconds, rows, cursor.last_result, window_number))
            round_rates.append(len(TEMPLATES) / busy)
            round_index += 1
        qps.append(common.median(round_rates))
        window_stats.append(report.stats_delta(before, report.stats_snapshot(database.stats)))
    if tracer is not None:
        tracer.enabled = False
    rss = common.peak_rss_mb()
    problems += common.scramble_count_mismatches(connection.session)

    jobs = [
        {"key": oracle.job_key(sql, None), "sql": sql, "params": None}
        for _, sql, *_ in measured
    ]
    answers, oracle_seconds = oracle.answers_for(
        "tpch", common.TPCH_SCALE, jobs, f"seed{args.seed}"
    )
    failed, cells, latencies = check_answers(measured, answers, problems)
    approximate = sum(1 for entry in measured if not entry[4].is_exact)
    _print_oracle_reference(measured, oracle_seconds)
    connection.close()

    if tracer is None:
        metrics = {"setup_s": setup_s, "qps": qps[0], "peak_rss_mb": rss}
        metrics.update(common.latency_metrics(latencies, 95.0))
        metrics.update(common.accuracy_metrics(cells))
    else:
        from aqpbench import tracing

        traced = [entry for entry in measured if entry[5] == 1]
        spans = tracer.take()
        tracing.Tracer.dump(spans, os.path.join(common.OUT_DIR, f"spans-tpch-{args.seed}.json"))
        summary = tracing.summarize(spans)
        problems += report.cross_check(summary, window_stats[1])
        metrics = report.per_layer_metrics(
            summary, window_stats[1], len(traced),
            sum(1 for entry in traced if not entry[4].is_exact),
            setup=tracing.summarize(builder_spans),
            qps_ratio=qps[1] / qps[0],
        )
    print(f"approx_ratio={approximate / len(measured):.3f}")
    for stats in window_stats:
        problems += report.mechanism_problems("tpch_adhoc", stats)
    for problem in problems:
        print(f"check failed: {problem}")
    report.emit(not problems, len(measured), failed, metrics, tracer is not None)


def _rounds_budget(seconds: float) -> int:
    # Generous: a round takes well over 50 ms on any machine this runs on.
    return int(seconds * 20) + 10


def check_answers(measured, answers, problems):
    """Compare every answer with the oracle; returns (failed, cells, latencies)."""
    failed = 0
    cells = []
    latencies: dict[str, list[float]] = {}
    for name, sql, seconds, rows, result, _ in measured:
        problem, found = oracle.check_answer(
            sql, rows, result, answers[oracle.job_key(sql, None)]
        )
        if problem is not None:
            failed += 1
            problems.append(f"{name}: {problem}\n{sql}")
            continue
        cells.extend(found)
        latencies.setdefault(name, []).append(seconds)
    return failed, cells, latencies


def _print_oracle_reference(measured, oracle_seconds) -> None:
    if not oracle_seconds:
        return
    per_template: dict[str, list[float]] = {}
    for name, sql, *_ in measured:
        seconds = oracle_seconds.get(oracle.job_key(sql, None))
        if seconds is not None:
            per_template.setdefault(name, []).append(seconds)
    line = " ".join(
        f"{name}={common.median(values) * 1000:.1f}" for name, values in per_template.items()
    )
    print(f"sqlite oracle median ms: {line}")
