"""Run one benchmark workload and print its metrics.

    python3 aqpbench/run.py --workload tpch_adhoc --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Run it from the root of a checkout; it reads the program from
``src/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from aqpbench import common  # noqa: E402

WORKLOADS = ("tpch_adhoc", "served_prepared", "ingest_sharded")


def main() -> int:
    parser = argparse.ArgumentParser(description="AQP benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_available():
        print(f"error: the program's source is missing under {common.SRC}", file=sys.stderr)
        return 2
    common.use_program_source()
    tracer = None
    if args.trace:
        from aqpbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload == "tpch_adhoc":
        from aqpbench import tpch_adhoc as workload
    elif args.workload == "served_prepared":
        from aqpbench import served_prepared as workload
    else:
        from aqpbench import ingest_sharded as workload
    workload.run(args, STARTED, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
