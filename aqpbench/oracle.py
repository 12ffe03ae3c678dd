"""Exact oracle: the generated tables in stdlib ``sqlite3``.

The oracle loads the generator's numpy arrays straight into SQLite (never
through ``repro.connectors``) and runs each statement's own text there, so
it shares no parser, evaluator or NULL handling with the program.  Answers
depend only on the data, the statement and, for appends, the batches before
it; they are cached per seed under ``aqpbench/.cache`` and any missing ones
are computed by two worker processes.  The database file and the answers
are keyed on a digest of the generated arrays, and answers after appends
also on a digest of the batch generator and its parameters, so a change to
the generator or the batch stream never meets stale truth.

Remake the answers of one run ahead of time with::

    python3 aqpbench/oracle.py remake --workload tpch_adhoc --seed 3 --rounds 40
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sqlite3
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(HERE))

from aqpbench import common  # noqa: E402
from aqpbench.batches import lineitem_batch  # noqa: E402

#: Key columns declared INTEGER PRIMARY KEY so SQLite joins by rowid lookup.
PRIMARY_KEYS = {
    "region": "r_regionkey",
    "nation": "n_nationkey",
    "supplier": "s_suppkey",
    "customer": "c_custkey",
    "part": "p_partkey",
    "orders": "o_orderkey",
    "departments": "department_id",
    "aisles": "aisle_id",
    "products": "product_id",
}
#: Instacart's ``orders`` is keyed on order_id, TPC-H's on o_orderkey.
_INSTACART_KEYS = {"orders": "order_id"}
WORKERS = 2
WORKER_TIMEOUT_S = 150


def _generate(dataset: str, scale: float) -> dict:
    common.use_program_source()
    if dataset == "tpch":
        from repro.workloads import tpch

        return tpch.generate(scale_factor=scale, seed=common.DATA_SEED).tables
    from repro.workloads import instacart

    return instacart.generate(scale_factor=scale, seed=common.DATA_SEED).tables


_DIGESTS: dict[tuple[str, float], str] = {}


def data_digest(dataset: str, scale: float) -> str:
    """Digest of the generated tables: names, dtypes and every value."""
    if (dataset, scale) not in _DIGESTS:
        digest = hashlib.sha1()
        for table, columns in sorted(_generate(dataset, scale).items()):
            for name, array in columns.items():
                digest.update(f"{table}.{name}:{array.dtype.str}:{len(array)};".encode())
                if array.dtype.kind == "O":
                    digest.update("\x1f".join(map(str, array.tolist())).encode())
                else:
                    digest.update(array.tobytes())
        _DIGESTS[(dataset, scale)] = digest.hexdigest()[:16]
    return _DIGESTS[(dataset, scale)]


def batches_digest(batches: dict | None) -> str:
    """Digest of the append stream: its parameters and the code that makes it."""
    digest = hashlib.sha1(json.dumps(batches, sort_keys=True).encode())
    if batches is not None:
        with open(os.path.join(HERE, "batches.py"), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def db_path(dataset: str, scale: float) -> str:
    return os.path.join(
        common.CACHE_DIR, f"{dataset}-sf{scale:g}-{data_digest(dataset, scale)}.sqlite"
    )


def _sql_type(array) -> str:
    kind = array.dtype.kind
    return "INTEGER" if kind in "iub" else "REAL" if kind == "f" else "TEXT"


def insert_columns(db: sqlite3.Connection, table: str, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[name].tolist() for name in names))
    marks = ", ".join("?" for _ in names)
    db.executemany(f"INSERT INTO {table} ({', '.join(names)}) VALUES ({marks})", rows)


def build(dataset: str, scale: float) -> str:
    """Write the dataset's SQLite file once; later calls reuse it."""
    path = db_path(dataset, scale)
    if os.path.exists(path):
        return path
    os.makedirs(common.CACHE_DIR, exist_ok=True)
    tables = _generate(dataset, scale)
    keys = dict(PRIMARY_KEYS, **(_INSTACART_KEYS if dataset == "instacart" else {}))
    partial = f"{path}.{os.getpid()}.partial"
    db = sqlite3.connect(partial)
    try:
        for table, columns in tables.items():
            declared = [
                f"{name} {_sql_type(array)}" + (" PRIMARY KEY" if keys.get(table) == name else "")
                for name, array in columns.items()
            ]
            db.execute(f"CREATE TABLE {table} ({', '.join(declared)})")
            insert_columns(db, table, columns)
        db.commit()
    finally:
        db.close()
    os.replace(partial, path)
    return path


def _in_memory(path: str) -> sqlite3.Connection:
    source = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    memory = sqlite3.connect(":memory:")
    source.backup(memory)
    source.close()
    return memory


def answer_jobs(path: str, jobs: list[dict], batches: dict | None) -> dict:
    """Run ``jobs`` in order of their data state (the batches applied before).

    Returns ``{"answers": key -> rows, "seconds": key -> SQLite time}``.

    ``batches`` names the append stream: ``{"table", "seed", "rows"}``; a job
    with ``state`` k is answered after the first k batches are inserted.
    """
    db = _in_memory(path)
    applied = 0
    answers, seconds = {}, {}
    for job in sorted(jobs, key=lambda job: job.get("state", 0)):
        while applied < job.get("state", 0):
            insert_columns(
                db, batches["table"], lineitem_batch(batches["seed"], applied, batches["rows"])
            )
            applied += 1
        started = time.perf_counter()
        rows = db.execute(job["sql"], job.get("params") or ()).fetchall()
        seconds[job["key"]] = time.perf_counter() - started
        answers[job["key"]] = [list(row) for row in rows]
    db.close()
    return {"answers": answers, "seconds": seconds}


def job_key(sql: str, params, state: int = 0) -> str:
    text = json.dumps([sql, params, state], sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


def answers_for(
    dataset: str,
    scale: float,
    jobs: list[dict],
    cache_name: str,
    batches: dict | None = None,
) -> tuple[dict, dict]:
    """Answers for ``jobs`` (each ``{"key", "sql", "params", "state"}``).

    Cached answers are read from ``cache_name``; the rest are computed by
    worker processes and added to the cache.  Returns ``(answers, seconds)``
    where ``seconds`` holds SQLite's time for the statements computed now.
    """
    cache_dir = os.path.join(
        common.CACHE_DIR, "answers", f"{dataset}-sf{scale:g}-{data_digest(dataset, scale)}"
    )
    cache_file = os.path.join(cache_dir, f"{cache_name}-{batches_digest(batches)}.json")
    cached = {}
    if os.path.exists(cache_file):
        with open(cache_file) as handle:
            cached = json.load(handle)
    missing = {job["key"]: job for job in jobs if job["key"] not in cached}
    seconds = {}
    if missing:
        os.makedirs(cache_dir, exist_ok=True)
        path = build(dataset, scale)
        shards = [[] for _ in range(WORKERS)]
        for key, job in missing.items():
            shards[int(key[:8], 16) % WORKERS].append(job)
        fresh = _answer_in_workers(path, shards, batches)
        cached.update(fresh["answers"])
        seconds = fresh["seconds"]
        partial = f"{cache_file}.{os.getpid()}.partial"
        with open(partial, "w") as handle:
            json.dump(cached, handle)
        os.replace(partial, cache_file)
    return {job["key"]: cached[job["key"]] for job in jobs}, seconds


def _answer_in_workers(path, shards, batches) -> dict:
    os.makedirs(common.OUT_DIR, exist_ok=True)
    processes = []
    results = {"answers": {}, "seconds": {}}
    try:
        for index, shard in enumerate(shards):
            if not shard:
                continue
            stem = os.path.join(common.OUT_DIR, f"oracle-{os.getpid()}-{index}")
            with open(stem + ".in.json", "w") as handle:
                json.dump({"jobs": shard, "batches": batches}, handle)
            command = [
                sys.executable, os.path.abspath(__file__), "answer",
                "--db", path,
                "--jobs", stem + ".in.json", "--out", stem + ".out.json",
            ]
            processes.append((subprocess.Popen(command), stem))
        for process, stem in processes:
            if process.wait(timeout=WORKER_TIMEOUT_S) != 0:
                raise RuntimeError(f"oracle worker failed with code {process.returncode}")
            with open(stem + ".out.json") as handle:
                shard = json.load(handle)
            for part in results:
                results[part].update(shard[part])
    finally:
        for process, stem in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
            for suffix in (".in.json", ".out.json"):
                if os.path.exists(stem + suffix):
                    os.remove(stem + suffix)
    return results


# -- comparison -----------------------------------------------------------------


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _group_key(values) -> tuple:
    key = []
    for value in values:
        value = _plain(value)
        if _is_null(value):
            key.append(None)
        elif isinstance(value, (int, float)):
            key.append(round(float(value), 6))
        else:
            key.append(str(value))
    return tuple(key)


def _same(ours, truth) -> bool:
    ours, truth = _plain(ours), _plain(truth)
    if _is_null(ours) or _is_null(truth):
        return _is_null(ours) and _is_null(truth)
    if isinstance(truth, (int, float)) and isinstance(ours, (int, float)):
        return math.isclose(float(ours), float(truth), rel_tol=1e-6, abs_tol=1e-6)
    return str(ours) == str(truth)


def check_exact(rows: list, truth: list, ordered: bool) -> str | None:
    """None when ``rows`` equal the oracle's, else what differs."""
    if len(rows) != len(truth):
        return f"{len(rows)} rows, oracle has {len(truth)}"
    if not ordered:
        rows = sorted(rows, key=lambda row: repr(_group_key(row)))
        truth = sorted(truth, key=lambda row: repr(_group_key(row)))
    for index, (ours, expected) in enumerate(zip(rows, truth)):
        if len(ours) != len(expected) or not all(map(_same, ours, expected)):
            return f"row {index}: {list(map(_plain, ours))} != oracle {expected}"
    return None


def approximate_cells(rows, truth, group_positions, estimate_positions, margins):
    """Check an approximate answer and pair its estimates with the truth.

    Returns ``(problem, cells)``: ``problem`` names the first group the
    oracle lacks or the first non-finite estimate; ``cells`` are
    ``(estimate, half-width, truth)`` triples of the groups both have.
    """
    index = {_group_key([row[p] for p in group_positions]): row for row in truth}
    cells = []
    for row_number, row in enumerate(rows):
        key = _group_key([row[p] for p in group_positions])
        expected = index.get(key)
        if expected is None:
            return f"group {key} is not in the oracle's answer", cells
        for position in estimate_positions:
            estimate = _plain(row[position])
            if _is_null(estimate) or not math.isfinite(float(estimate)):
                return f"group {key}: estimate {estimate!r} is not finite", cells
            true_value = _plain(expected[position])
            if _is_null(true_value):
                continue
            margin = float(margins[position][row_number])
            cells.append((float(estimate), margin, float(true_value)))
    return None, cells


def is_ordered(sql: str) -> bool:
    return "ORDER BY" in " ".join(sql.upper().split())


def check_answer(sql: str, rows: list, result, truth: list):
    """Check one in-process answer (an ``ApproximateResult`` and its rows).

    Returns ``(problem, cells)`` as :func:`approximate_cells` does; exact
    answers yield no cells.
    """
    if result.is_exact:
        return check_exact(rows, truth, is_ordered(sql)), []
    names = result.column_names()
    return approximate_cells(
        rows, truth,
        [names.index(column) for column in result.group_columns],
        [names.index(column) for column in result.estimate_columns],
        {names.index(column): result.margins(column) for column in result.estimate_columns},
    )


# -- command line -------------------------------------------------------------------


def _remake(workload: str, seed: int, rounds: int) -> None:
    common.use_program_source()
    if workload == "tpch_adhoc":
        from aqpbench import tpch_adhoc

        statements = [s for r in tpch_adhoc.statement_rounds(seed, rounds) for s in r]
        jobs = [{"key": job_key(sql, None), "sql": sql, "params": None} for _, sql in statements]
        answers_for("tpch", common.TPCH_SCALE, jobs, f"seed{seed}")
    elif workload == "served_prepared":
        from aqpbench import served_prepared

        answers_for(
            "instacart", common.INSTACART_SCALE,
            served_prepared.oracle_jobs(served_prepared.parameter_sets(seed)), f"seed{seed}",
        )
    elif workload == "ingest_sharded":
        from aqpbench import ingest_sharded

        jobs, batches = ingest_sharded.oracle_jobs(seed, rounds)
        answers_for("tpch", common.TPCH_SCALE, jobs, f"ingest-seed{seed}", batches)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    answer_cmd = sub.add_parser("answer")
    answer_cmd.add_argument("--db", required=True, help="the dataset's SQLite file")
    answer_cmd.add_argument("--jobs", required=True)
    answer_cmd.add_argument("--out", required=True)
    remake_cmd = sub.add_parser("remake")
    remake_cmd.add_argument("--workload", required=True)
    remake_cmd.add_argument("--seed", type=int, required=True)
    remake_cmd.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    if args.command == "answer":
        with open(args.jobs) as handle:
            spec = json.load(handle)
        started = time.perf_counter()
        answers = answer_jobs(args.db, spec["jobs"], spec["batches"])
        with open(args.out, "w") as handle:
            json.dump(answers, handle)
        print(
            f"oracle: {len(answers['answers'])} statements in "
            f"{time.perf_counter() - started:.2f} s",
            file=sys.stderr,
        )
    else:
        _remake(args.workload, args.seed, args.rounds)


if __name__ == "__main__":
    main()
