"""``served_prepared``: parameterised Instacart templates over the wire.

The Instacart-like tables are served by ``repro.serve`` in a process of
their own (``server_main.py``).  Two client connections in two threads run a
closed loop over seven iq-style templates, each with 64 parameter sets
drawn from the seed, so after the warm-up every statement is cache-hot and
the wire protocol, server threading, binding and answer construction do
most of the work.  The templates include joins over the scrambles hashed on
``order_id`` and a count-distinct on that hashed column.  (Joins grouped on
``order_dow`` are left out: the planner answers them from the whole
``order_products`` table, see ``CHANGES.md``.)

The load generator and the server run on one CPU: the benchmark pins itself
with ``sched_setaffinity`` before it starts the server, which inherits the
pin.  Every query is two round trips between the two processes, and on the
two-vCPU reference VM a wake-up that crosses vCPUs is slow and its cost
varies with the host: with the server on one vCPU and the load generator on
the other, five runs read 252-436 queries/s at a p95 of 10-31 ms, and 2-s
windows inside one run 187-505 queries/s; unpinned runs read 135-405.  On
one CPU, 2-s windows stay within 341-413 queries/s at a p95 of 8-10 ms.
The price is that client-side work shares the server's core, and a server
that used more than one process would need this pin revisited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

from aqpbench import common, oracle, report

CLIENTS = 2
PARAMETER_SETS = 64

_JOIN_ORDERS = "order_products INNER JOIN orders ON order_products.order_id = orders.order_id"
_JOIN_PRODUCTS = (
    "order_products INNER JOIN products ON order_products.product_id = products.product_id"
)

#: name -> (SQL template, parameter generator)
TEMPLATES = {
    "iq-gap": (
        "SELECT count(*) AS num_lines, avg(days_since_prior_order) AS avg_gap "
        f"FROM {_JOIN_ORDERS} WHERE reordered = ? AND add_to_cart_order <= ?",
        lambda rng: [int(rng.integers(0, 2)), int(rng.integers(5, 20))],
    ),
    "iq-rev": (
        "SELECT count(*) AS num_lines, sum(quantity * unit_price) AS revenue "
        f"FROM {_JOIN_ORDERS} WHERE days_since_prior_order <= ?",
        lambda rng: [int(rng.integers(3, 25))],
    ),
    "iq-4p": (
        "SELECT department_id, count(*) AS num_lines, sum(quantity * unit_price) AS revenue "
        f"FROM {_JOIN_PRODUCTS} WHERE quantity >= ? "
        "GROUP BY department_id ORDER BY revenue DESC",
        lambda rng: [int(rng.integers(1, 4))],
    ),
    "iq-5p": (
        "SELECT department, sum(quantity * unit_price) AS revenue "
        f"FROM {_JOIN_PRODUCTS} INNER JOIN departments "
        "ON products.department_id = departments.department_id "
        "WHERE unit_price > ? GROUP BY department ORDER BY revenue DESC",
        lambda rng: [round(float(rng.uniform(0.5, 3.0)), 2)],
    ),
    "iq-6p": (
        "SELECT reordered, count(*) AS num_lines, avg(add_to_cart_order) AS avg_position "
        "FROM order_products WHERE unit_price > ? GROUP BY reordered ORDER BY reordered",
        lambda rng: [round(float(rng.uniform(0.5, 5.0)), 2)],
    ),
    "iq-9p": (
        "SELECT count(*) AS num_lines, sum(quantity * unit_price) AS revenue, "
        "avg(quantity) AS avg_quantity FROM order_products WHERE unit_price > ?",
        lambda rng: [round(float(rng.uniform(1.0, 6.0)), 2)],
    ),
    "iq-12p": (
        "SELECT count(DISTINCT order_products.order_id) AS active_orders "
        "FROM order_products WHERE reordered = ? AND add_to_cart_order <= ?",
        lambda rng: [int(rng.integers(0, 2)), int(rng.integers(5, 20))],
    ),
}


def parameter_sets(seed: int) -> list[tuple[str, list]]:
    """The seed's operations: every template with each of its parameter sets."""
    rng = np.random.default_rng([seed, 11])
    return [
        (name, make(rng))
        for name, (_, make) in TEMPLATES.items()
        for _ in range(PARAMETER_SETS)
    ]


def oracle_jobs(operations) -> list[dict]:
    jobs = {}
    for name, params in operations:
        sql = TEMPLATES[name][0]
        key = oracle.job_key(sql, params)
        jobs[key] = {"key": key, "sql": sql, "params": params}
    return list(jobs.values())


class _Server:
    """The server process and its line-based control channel."""

    def __init__(self, trace: bool) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "server_main.py"),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = json.loads(self.process.stdout.readline())
        self.port = ready["port"]

    def command(self, *words: str) -> None:
        self.process.stdin.write(" ".join(words) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline().strip()
        if reply != "ok":
            raise RuntimeError(f"server answered {reply!r} to {words[0]}")

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


def _client_loop(cursor, operations, rng_seed, deadline_at, records, warm_up):
    """Closed loop over whole shuffled rounds of ``operations``."""
    rng = np.random.default_rng(rng_seed)
    while True:
        for index in rng.permutation(len(operations)):
            name, params = operations[index]
            sql = TEMPLATES[name][0]
            started = time.perf_counter()
            try:
                cursor.execute(sql, params)
                rows = cursor.fetchall()
            except Exception as error:  # noqa: BLE001 - every failure is counted
                records.append((name, params, None, repr(error), None, started))
                continue
            records.append((name, params, time.perf_counter() - started, rows,
                            cursor.approximate, started))
        if warm_up or time.perf_counter() >= deadline_at:
            return


def _slice_rate(records, slice_size: int = 100) -> float:
    """Median completion rate over consecutive slices of ``slice_size`` completions."""
    ends = sorted(r[5] + r[2] for r in records if r[2] is not None)
    rates = [
        slice_size / (ends[index + slice_size] - ends[index])
        for index in range(0, len(ends) - slice_size, slice_size)
    ]
    return common.median(rates)


def _window(cursors, operations, seed, seconds, warm_up=False):
    """Run every client for ``seconds``; returns the records of all clients."""
    records: list[list] = [[] for _ in cursors]
    deadline_at = time.perf_counter() + seconds
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(cursor, operations, [seed, 13, index, int(warm_up)], deadline_at,
                  records[index], warm_up),
        )
        for index, cursor in enumerate(cursors)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for per_client in records for record in per_client]


def run(args, started: float, tracer) -> None:
    import repro.client

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    server = _Server(bool(tracer))
    try:
        connections = [
            repro.client.connect("127.0.0.1", server.port, timeout=120) for _ in range(CLIENTS)
        ]
        setup_s = time.perf_counter() - started
        cursors = [connection.cursor() for connection in connections]
        operations = parameter_sets(args.seed)
        _window(cursors, operations, args.seed, 0.0, warm_up=True)

        windows = [args.seconds / 2.0, args.seconds / 2.0] if tracer else [args.seconds]
        measured = []
        qps = []
        for number, seconds in enumerate(windows):
            if tracer is not None and number == 1:
                tracer.take()
                tracer.enabled = True
                server.command("trace")
            server.command("mark")
            records = _window(cursors, operations, args.seed + 1000 * number, seconds)
            qps.append(_slice_rate(records))
            measured.extend((number, *record) for record in records)
        if tracer is not None:
            tracer.enabled = False
        rss = common.peak_rss_mb(server.process.pid)

        jobs = oracle_jobs(operations)
        os.makedirs(common.OUT_DIR, exist_ok=True)
        stem = os.path.join(common.OUT_DIR, f"served-{os.getpid()}")
        with open(stem + ".jobs.json", "w") as handle:
            json.dump(jobs, handle)
        server.command("report", stem + ".jobs.json", stem + ".report.json")
        with open(stem + ".report.json") as handle:
            served = json.load(handle)
        for suffix in (".jobs.json", ".report.json"):
            os.remove(stem + suffix)
        for connection in connections:
            connection.close()
    finally:
        server.close()
        os.sched_setaffinity(0, cpus)

    answers, _ = oracle.answers_for(
        "instacart", common.INSTACART_SCALE, jobs, f"seed{args.seed}"
    )
    problems = list(served["problems"])
    failed, cells, latencies = _check(measured, served["answers"], answers, problems)
    if tracer is None:
        metrics = {"setup_s": setup_s, "qps": qps[0], "peak_rss_mb": rss}
        metrics.update(common.latency_metrics(latencies, 95.0))
        metrics.update(common.accuracy_metrics(cells))
    else:
        from aqpbench import tracing

        client_spans = tracer.take()
        tracing.Tracer.dump(
            client_spans, os.path.join(common.OUT_DIR, f"spans-served-{args.seed}.json")
        )
        summary = tracing.merge(tracing.summarize(client_spans), served["summary"])
        traced = [r for r in measured if r[0] == 1 and r[3] is not None]
        problems += report.cross_check(summary, served["stats"])
        metrics = report.per_layer_metrics(
            summary, served["stats"], len(traced), sum(1 for r in traced if r[5]),
            setup=served["setup_summary"], qps_ratio=qps[1] / qps[0],
        )
    problems += report.mechanism_problems("served_prepared", served["stats"])
    for problem in problems:
        print(f"check failed: {problem}")
    report.emit(not problems, len(measured), failed, metrics, tracer is not None)


def _check(measured, served_answers, truth, problems):
    """Check every served answer; accuracy cells come once per operation."""
    failed = 0
    cells = []
    latencies: dict[str, list[float]] = {}
    verdicts: dict[tuple, str | None] = {}
    for key, answer in served_answers.items():
        if answer["is_exact"]:
            continue
        problem, found = oracle.approximate_cells(
            answer["rows"], truth[key], answer["group_positions"],
            answer["estimate_positions"],
            {int(position): margins for position, margins in answer["margins"].items()},
        )
        if problem is None:
            cells.extend(found)
    for _, name, params, seconds, rows, approximate, _ in measured:
        if seconds is None:
            failed += 1
            print(f"operation failed: {name} {params}: {rows}", file=sys.stderr)
            continue
        sql = TEMPLATES[name][0]
        key = oracle.job_key(sql, params)
        answer = served_answers[key]
        memo = (key, repr(rows))
        if memo not in verdicts:
            if not approximate:
                verdicts[memo] = oracle.check_exact(rows, truth[key], oracle.is_ordered(sql))
            else:
                verdicts[memo], _ = oracle.approximate_cells(
                    rows, truth[key], answer["group_positions"],
                    answer["estimate_positions"],
                    {p: [0.0] * len(rows) for p in answer["estimate_positions"]},
                )
        if verdicts[memo] is not None:
            failed += 1
            problems.append(f"{name} {params}: {verdicts[memo]}")
            continue
        latencies.setdefault(name, []).append(seconds)
    return failed, cells, latencies
