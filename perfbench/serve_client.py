"""The ``serve-stream`` client: one process, two binary-framed connections.

Run by the harness as ``python serve_client.py --port P --seed S ...``
against a ``repro cluster``.  Both connections walk the nine coder
families in the same order, one session per family, in a closed loop:
each chunk is encoded with ``feed`` and then decoded on the same session,
and the next request is sent only when the previous one has answered.
Stream values come from the ``gen:mixed,seed=S`` population.

Protocol with the harness, one line each on stdout: ``READY`` once the
streams exist and both connections are negotiated (the end of set-up),
then one JSON document with the samples and the output checks, made
after the timed loop.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import FAMILIES, import_program  # noqa: E402

import_program()

import numpy as np  # noqa: E402

from repro.corpus.workload import parse_workload_source  # noqa: E402
from repro.serve.client import TraceClient  # noqa: E402

HOST = "127.0.0.1"
CONNECTIONS = 2


def population_spec(seed: int, population: int, cycles: int) -> str:
    return f"gen:mixed,seed={seed},population={population},cycles={cycles}"


def make_streams(seed: int, population: int, cycles: int) -> List[Any]:
    source = parse_workload_source(population_spec(seed, population, cycles))
    return [source.for_stream(i).trace() for i in range(population)]


def digest(states: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(states, dtype="<u8").tobytes()).hexdigest()


class Record:
    """Everything one connection observed."""

    def __init__(self) -> None:
        self.rtt: List[float] = []
        self.request_s: List[float] = []
        self.sessions: List[Dict[str, Any]] = []
        self.cycles = 0


async def connection_loop(
    index: int,
    client: TraceClient,
    streams: List[Any],
    chunk: int,
    deadline: float,
    barrier: asyncio.Barrier,
    record: Record,
) -> None:
    try:
        await _walk(index, client, streams, chunk, deadline, barrier, record)
    except BaseException:
        barrier.abort()  # the other connection must not wait for this one
        raise


async def _walk(index, client, streams, chunk, deadline, barrier, record) -> None:
    round_no = 0
    while True:
        stream_index = (CONNECTIONS * round_no + index) % len(streams)
        trace = streams[stream_index]
        values = trace.values
        for family in FAMILIES:
            await barrier.wait()  # both connections hold same-spec sessions at once
            session = await client.open_stream(family, width=trace.width)
            parts, decoded_ok = [], True
            for offset in range(0, len(values), chunk):
                part = values[offset:offset + chunk]
                t0 = time.perf_counter()
                states = await session.feed(part)
                t1 = time.perf_counter()
                decoded = await session.decode(states)
                t2 = time.perf_counter()
                record.rtt.append(t2 - t0)
                record.request_s.extend((t1 - t0, t2 - t1))
                record.cycles += len(part)
                decoded_ok = decoded_ok and np.array_equal(np.asarray(decoded, dtype=np.uint64), part)
                parts.append(np.array(states, dtype=np.uint64))
            await session.close()
            record.sessions.append(
                {"stream": stream_index, "family": family, "digest": digest(np.concatenate(parts)),
                 "decoded_ok": decoded_ok, "chunks": len(parts)}
            )
        round_no += 1
        if time.perf_counter() >= deadline:
            return


def oracle_digests(streams: List[Any], sessions: List[Dict[str, Any]]) -> Dict[str, str]:
    """The in-process ``encode_trace`` of every (stream, family) served."""
    from repro.coding.specs import parse_coder_spec

    out: Dict[str, str] = {}
    for session in sessions:
        key = f"{session['stream']}|{session['family']}"
        if key not in out:
            trace = streams[session["stream"]]
            coded = parse_coder_spec(session["family"], trace.width).encode_trace(trace)
            out[key] = digest(coded.values)
    return out


async def main_async(args: argparse.Namespace) -> Dict[str, Any]:
    streams = make_streams(args.seed, args.population, args.cycles)
    clients = [await TraceClient.connect(HOST, args.port) for _ in range(CONNECTIONS)]
    try:
        for client in clients:
            if not await client.negotiate_binary():
                raise RuntimeError("cluster did not negotiate binary frames")
        print("READY", flush=True)
        if args.setup_only:
            return {}
        records = [Record() for _ in clients]
        barrier = asyncio.Barrier(len(clients))
        start = time.perf_counter()
        deadline = start + args.seconds
        outcomes = await asyncio.gather(
            *(
                connection_loop(i, client, streams, args.chunk, deadline, barrier, record)
                for i, (client, record) in enumerate(zip(clients, records))
            ),
            return_exceptions=True,
        )
        loop_s = time.perf_counter() - start
        telemetry = None
        if args.telemetry:
            telemetry = await clients[0].call("telemetry", span_limit=0)
    finally:
        for client in clients:
            await client.close()

    errors = [repr(o) for o in outcomes if isinstance(o, BaseException)]
    sessions = [s for r in records for s in r.sessions]
    oracle = oracle_digests(streams, sessions)
    mismatched = [
        f"{s['family']} on stream {s['stream']}"
        for s in sessions
        if s["digest"] != oracle[f"{s['stream']}|{s['family']}"]
    ]
    undecoded = [f"{s['family']} on stream {s['stream']}" for s in sessions if not s["decoded_ok"]]
    return {
        "loop_s": loop_s,
        "cycles": sum(r.cycles for r in records),
        "rtt_s": [x for r in records for x in r.rtt],
        "request_s": [x for r in records for x in r.request_s],
        "sessions": len(sessions),
        "chunks": sum(s["chunks"] for s in sessions),
        "errors": errors,
        "state_mismatches": mismatched,
        "decode_mismatches": undecoded,
        "telemetry": telemetry,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--population", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--chunk", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--telemetry", action="store_true")
    args = parser.parse_args()
    result = asyncio.run(main_async(args))
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
