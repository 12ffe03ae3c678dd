"""Server process of the ``served_prepared`` workload.

Loads the Instacart-like tables, builds the scrambles, starts
``repro.serve`` on an ephemeral port and prints one JSON line with the port.
It then obeys one command per line on standard input, answering each with
one line on standard output:

``mark``                      remember the program's counters
``trace``                     start recording spans (``--trace 1`` only)
``report <jobs> <out>``       write counters, spans and, for each job
                              ``{"key", "sql", "params"}``, the answer with
                              its interval half-widths, computed in-process
                              on the served engine
``quit``                      drain the server and exit
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from aqpbench import common  # noqa: E402


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _answer(session, sql, params) -> dict:
    result = session.execute(sql, params)
    names = result.column_names()
    return {
        "is_exact": result.is_exact,
        "group_positions": [names.index(c) for c in result.group_columns],
        "estimate_positions": [names.index(c) for c in result.estimate_columns],
        "margins": {
            names.index(c): [float(m) for m in result.margins(c)]
            for c in result.estimate_columns
        },
        "rows": [[_plain(v) for v in row] for row in result.fetchall()],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.use_program_source()
    tracer = None
    if args.trace:
        from aqpbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True

    import repro
    from repro import Database
    from repro.workloads import instacart

    from aqpbench import report

    dataset = instacart.generate(scale_factor=common.INSTACART_SCALE, seed=common.DATA_SEED)
    database = Database(seed=common.DATA_SEED)
    connection = repro.connect(database=database, planner_config=common.planner_config())
    for name, columns in dataset.tables.items():
        connection.session.load_table(name, columns)
    common.build_scrambles(
        connection.session, instacart.FACT_TABLES,
        common.INSTACART_HASHED, common.INSTACART_STRATIFIED,
    )
    server = repro.serve(
        database=database,
        pool_size=2,
        max_concurrent_queries=2,
        session_kwargs={"planner_config": common.planner_config()},
    )
    builder_spans = []
    if tracer is not None:
        tracer.enabled = False
        builder_spans = tracer.take()
    print(json.dumps({"port": server.address[1], "setup_s": time.perf_counter() - STARTED}))
    sys.stdout.flush()

    marked = report.stats_snapshot(database.stats)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "mark":
                marked = report.stats_snapshot(database.stats)
            elif command[0] == "trace" and tracer is not None:
                tracer.take()
                tracer.enabled = True
            elif command[0] == "report":
                _report(command[1], command[2], connection, database, marked, tracer,
                        builder_spans)
            elif command[0] == "quit":
                break
            print("ok")
            sys.stdout.flush()
    finally:
        server.shutdown()
        connection.close()
    return 0


def _report(jobs_path, out_path, connection, database, marked, tracer, builder_spans):
    from aqpbench import report, tracing

    out = {"stats": report.stats_delta(marked, report.stats_snapshot(database.stats))}
    if tracer is not None:
        tracer.enabled = False
        spans = tracer.take()
        tracing.Tracer.dump(spans, os.path.join(common.OUT_DIR, "spans-server.json"))
        out["summary"] = tracing.summarize(spans)
        out["setup_summary"] = tracing.summarize(builder_spans)
    out["problems"] = common.scramble_count_mismatches(connection.session)
    with open(jobs_path) as handle:
        jobs = json.load(handle)
    out["answers"] = {
        job["key"]: _answer(connection.session, job["sql"], job["params"]) for job in jobs
    }
    with open(out_path, "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    sys.exit(main())
