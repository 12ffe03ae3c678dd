"""``ingest_sharded``: appends beside reads on a two-worker shard pool.

TPC-H-like data on ``Database(parallel_exec=2)``.  Each round appends a
seeded ``lineitem`` batch through ``session.append_data``, runs an exact
reconciliation (``count(*)`` and an integer sum per return flag, which the
shard pool dispatches; it refuses float sums such as ``sum(l_quantity)``)
and checks it against numpy totals over the arrays loaded so far, then
refreshes nine approximate templates with fixed text: five read the appended
table, whose scramble clustering the append breaks, and four read only
``orders``, which is never appended.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from aqpbench import common, oracle, report
from aqpbench.batches import lineitem_batch

BATCH_ROWS = 100
RECONCILE = (
    "SELECT l_returnflag, count(*) AS n, sum(l_suppkey) AS s FROM lineitem "
    "GROUP BY l_returnflag ORDER BY l_returnflag"
)

#: (name, SQL, reads the appended table)
TEMPLATES = [
    ("li-flags", "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
     "avg(l_extendedprice) AS avg_price, count(*) AS count_order FROM lineitem "
     "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus", True),
    ("li-modes", "SELECT l_shipmode, sum(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM lineitem WHERE l_shipdate >= 19950101 GROUP BY l_shipmode ORDER BY l_shipmode",
     True),
    ("li-years", "SELECT floor(l_shipdate / 10000) AS l_year, count(*) AS num_lines, "
     "avg(l_discount) AS avg_disc FROM lineitem "
     "GROUP BY floor(l_shipdate / 10000) ORDER BY l_year", True),
    ("li-revenue", "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
     "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 AND l_quantity < 24", True),
    ("li-orders", "SELECT o_orderpriority, sum(l_extendedprice) AS revenue "
     "FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority", True),
    ("o-priority", "SELECT o_orderpriority, count(*) AS num_orders, "
     "avg(o_totalprice) AS avg_price FROM orders "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority", False),
    ("o-status", "SELECT o_orderstatus, sum(o_totalprice) AS total_price FROM orders "
     "WHERE o_orderdate >= 19950101 GROUP BY o_orderstatus ORDER BY o_orderstatus", False),
    ("o-years", "SELECT floor(o_orderdate / 10000) AS o_year, count(*) AS num_orders "
     "FROM orders GROUP BY floor(o_orderdate / 10000) ORDER BY o_year", False),
    ("o-price", "SELECT count(*) AS num_orders, avg(o_totalprice) AS avg_price FROM orders "
     "WHERE o_totalprice BETWEEN 100000 AND 400000", False),
]


def _job(sql: str, state: int) -> dict:
    return {"key": oracle.job_key(sql, None, state), "sql": sql, "params": None,
            "state": state}


def oracle_jobs(seed: int, rounds: int) -> tuple[list[dict], dict]:
    """Oracle jobs of the first ``rounds`` rounds and the batch stream."""
    jobs = {}
    for round_index in range(rounds):
        for _, sql, appended in TEMPLATES:
            job = _job(sql, round_index + 1 if appended else 0)
            jobs[job["key"]] = job
    return list(jobs.values()), {"table": "lineitem", "seed": seed, "rows": BATCH_ROWS}


def _setup():
    import repro
    from repro import Database, ExecutionOptions
    from repro.workloads import tpch

    dataset = tpch.generate(scale_factor=common.TPCH_SCALE, seed=common.DATA_SEED)
    connection = repro.connect(
        database=Database(seed=common.DATA_SEED, parallel_exec=2),
        planner_config=common.planner_config(),
    )
    for name, columns in dataset.tables.items():
        connection.session.load_table(name, columns)
    common.build_scrambles(
        connection.session, tpch.FACT_TABLES, common.TPCH_HASHED, common.TPCH_STRATIFIED
    )
    exact = ExecutionOptions(mode="exact")
    cursor = connection.cursor()
    # Starts the shard pool and publishes lineitem.
    cursor.execute(RECONCILE, options=exact)
    return connection, cursor, exact, dataset.tables["lineitem"], cursor.fetchall()


def _add_totals(totals: dict, columns: dict) -> None:
    """Per return flag: [rows, sum(l_suppkey)] of the arrays loaded so far."""
    flags = columns["l_returnflag"]
    for flag in set(flags.tolist()):
        chosen = flags == flag
        entry = totals.setdefault(flag, [0, 0])
        entry[0] += int(chosen.sum())
        entry[1] += int(columns["l_suppkey"][chosen].sum())


def _reconciled(rows, totals: dict) -> bool:
    found = [[str(flag), int(n), int(s)] for flag, n, s in rows]
    return found == [[flag, *totals[flag]] for flag in sorted(totals)]


def _timed(cursor, sql, options=None):
    started = time.perf_counter()
    cursor.execute(sql, options=options)
    rows = cursor.fetchall()
    return time.perf_counter() - started, rows


def run(args, started: float, tracer) -> None:
    if tracer is not None:
        tracer.enabled = True
    connection, cursor, exact, lineitem, base_totals = _setup()
    setup_s = time.perf_counter() - started
    builder_spans = tracer.take() if tracer is not None else []
    if tracer is not None:
        tracer.enabled = False
    session = connection.session
    database = session.connector.database
    problems = common.scramble_count_mismatches(session)
    totals: dict = {}
    _add_totals(totals, lineitem)
    if not _reconciled(base_totals, totals):
        problems.append(f"base totals {base_totals} != {totals}")
    for _, sql, _ in TEMPLATES:
        _timed(cursor, sql)

    windows = [args.seconds / 2.0, args.seconds / 2.0] if tracer else [args.seconds]
    measured = []  # (window, round, name, sql, seconds, rows, result)
    failed = 0
    window_stats, qps, qps_counts, rounds_per_window = [], [], [], []
    append_seconds = [0.0 for _ in windows]
    round_index = 0
    for number, window in enumerate(windows):
        if tracer is not None and number == 1:
            tracer.take()
            tracer.enabled = True
        before = report.stats_snapshot(database.stats)
        window_started = time.perf_counter()
        round_rates, count, first_round = [], 0, round_index
        while time.perf_counter() - window_started < window:
            busy = 0.0
            batch = lineitem_batch(args.seed, round_index, BATCH_ROWS)
            appended = time.perf_counter()
            session.append_data("lineitem", batch)
            append_seconds[number] += time.perf_counter() - appended
            _add_totals(totals, batch)
            round_index += 1

            seconds, rows = _timed(cursor, RECONCILE, exact)
            busy += seconds
            count += 1
            if not _reconciled(rows, totals):
                failed += 1
                problems.append(f"round {round_index}: reconciliation {rows} != {totals}")
            else:
                measured.append((number, round_index, "reconcile", RECONCILE, seconds, rows,
                                 cursor.last_result))
            for name, sql, _ in TEMPLATES:
                seconds, rows = _timed(cursor, sql)
                busy += seconds
                count += 1
                measured.append((number, round_index, name, sql, seconds, rows,
                                 cursor.last_result))
            round_rates.append((1 + len(TEMPLATES)) / busy)
        qps.append(common.median(round_rates))
        qps_counts.append(count)
        rounds_per_window.append(round_index - first_round)
        window_stats.append(report.stats_delta(before, report.stats_snapshot(database.stats)))
    if tracer is not None:
        tracer.enabled = False
    rss = common.peak_rss_mb() + sum(
        common.peak_rss_mb(child.pid) for child in multiprocessing.active_children()
    )
    problems += common.scramble_count_mismatches(session)
    connection.close()

    jobs, batches = oracle_jobs(args.seed, round_index)
    answers, _ = oracle.answers_for(
        "tpch", common.TPCH_SCALE, jobs, f"ingest-seed{args.seed}", batches
    )
    reads_appended = {sql for _, sql, appended in TEMPLATES if appended}
    cells = []
    latencies: dict[str, list[float]] = {"reconcile": []}
    for _, state, name, sql, seconds, rows, result in measured:
        if name != "reconcile":
            truth = answers[oracle.job_key(sql, None, state if sql in reads_appended else 0)]
            problem, found = oracle.check_answer(sql, rows, result, truth)
            if problem is not None:
                failed += 1
                problems.append(f"round {state} {name}: {problem}")
                continue
            cells.extend(found)
        latencies.setdefault(name, []).append(seconds)

    appended_rows = BATCH_ROWS * rounds_per_window[-1]
    print(f"ingest_rows_per_s {appended_rows / append_seconds[-1]:.1f} "
          f"({rounds_per_window[-1]} batches of {BATCH_ROWS} rows)")
    attempted = sum(qps_counts)
    if tracer is None:
        metrics = {"setup_s": setup_s, "qps": qps[0], "peak_rss_mb": rss}
        metrics.update(common.latency_metrics(latencies, 95.0))
        metrics.update(common.accuracy_metrics(cells))
    else:
        from aqpbench import tracing

        spans = tracer.take()
        tracing.Tracer.dump(spans, os.path.join(common.OUT_DIR, f"spans-ingest-{args.seed}.json"))
        summary = tracing.summarize(spans)
        traced = [entry for entry in measured if entry[0] == 1]
        problems += report.cross_check(summary, window_stats[1])
        metrics = report.per_layer_metrics(
            summary, window_stats[1], len(traced),
            sum(1 for entry in traced if not entry[6].is_exact),
            rounds=rounds_per_window[1], rows_appended=appended_rows,
            append_seconds=append_seconds[1],
            setup=tracing.summarize(builder_spans),
            qps_ratio=qps[1] / qps[0],
        )
    for stats, appends in zip(window_stats, rounds_per_window):
        problems += report.mechanism_problems("ingest_sharded", stats, appends)
    for problem in problems:
        print(f"check failed: {problem}")
    report.emit(not problems, attempted, failed, metrics, tracer is not None)
