"""End-to-end tests for binary bulk framing on the serving stack.

Four angles on the same invariant — framing is transport, never
semantics:

* every coder family streamed over real TCP returns bit-identical
  states under binary and newline-JSON framing (and the binary path
  returns ndarrays, the JSON path plain lists);
* chaos: a corrupted binary frame fails the pending request with
  :class:`FrameCorruptionError` immediately (never a hang), split
  writes reassemble transparently, and binary payloads containing
  ``0x0A`` survive the proxy's frame pump untouched;
* the micro-batcher's columnar path answers exactly what the
  ``batch_limit=1`` sequential path answers, including the
  deterministic ``serve.*`` cost counters;
* a hypothesis property: random chunking x session mix x framing
  drive :class:`ServeEngine` to identical outputs *and* identical
  deterministic cost metrics.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.coding import CODER_FAMILIES, parse_coder_spec
from repro.faults.transport import FrameDecision, PartialWrite, ScriptedTransport
from repro.serve import ServeEngine, TraceClient, TraceServer, protocol
from repro.serve.chaos import ChaosProxy
from repro.serve.client import FrameCorruptionError
from repro.traces import BusTrace
from repro.workloads import locality_trace

WIDTH = 16

#: The deterministic cost counters the satellite property pins; timing
#: and batch-shape metrics (``serve.coalesced``, ``serve.batch_*``,
#: latency histograms) legitimately differ between schedules.
COST_COUNTERS = ("serve.requests", "serve.encoded_cycles", "serve.decoded_cycles")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def flat(chunks):
    return [int(s) for chunk in chunks for s in chunk]


def split(stream, sizes):
    """Carve ``stream`` into chunks of the given sizes plus the tail."""
    parts, pos = [], 0
    for size in sizes:
        parts.append(stream[pos : pos + size])
        pos += size
        if pos >= len(stream):
            break
    parts.append(stream[pos:])
    return [p for p in parts if len(p)]


def cost_counters(baseline):
    delta = obs.get_registry().diff(baseline)["counters"]
    return {
        k: v for k, v in delta.items() if k.split("|")[0] in COST_COUNTERS
    }


class TestEveryFamilyOverTcp:
    def test_binary_and_json_clients_agree_for_all_families(self):
        async def scenario():
            async with TraceServer(port=0) as server:
                json_client = await TraceClient.connect(server.host, server.port)
                bin_client = await TraceClient.connect(server.host, server.port)
                try:
                    assert await bin_client.negotiate_binary()
                    assert not json_client.binary
                    for index, family in enumerate(CODER_FAMILIES):
                        trace = locality_trace(210, seed=40 + index)
                        values = [int(v) for v in trace.values]
                        oracle = parse_coder_spec(family, 32).encode_trace(trace)

                        chunks = split(values, [70, 70])
                        streams = {}
                        states = {}
                        for name, client in (
                            ("json", json_client),
                            ("binary", bin_client),
                        ):
                            stream = await client.open_stream(family, 32)
                            out = [await stream.feed(c) for c in chunks]
                            streams[name] = stream
                            states[name] = out

                        # Framing mirrors the request: ndarrays on the
                        # negotiated connection, plain lists otherwise.
                        for chunk in states["binary"]:
                            assert isinstance(chunk, np.ndarray)
                            assert chunk.dtype == np.dtype("<u8")
                        for chunk in states["json"]:
                            assert isinstance(chunk, list)

                        want = [int(v) for v in oracle.values]
                        assert flat(states["json"]) == want, family
                        assert flat(states["binary"]) == want, family

                        # And the decode direction round-trips over
                        # both framings too.
                        for name, client in (
                            ("json", json_client),
                            ("binary", bin_client),
                        ):
                            decoder = await client.open_stream(family, 32)
                            back = [
                                await decoder.decode(c) for c in states[name]
                            ]
                            assert flat(back) == values, (family, name)
                            await decoder.close()
                            await streams[name].close()
                finally:
                    await json_client.close()
                    await bin_client.close()

        run(scenario())


class TestBinaryFramesUnderChaos:
    def test_corrupted_binary_response_fails_fast_not_hangs(self):
        # s2c frame 0 is the hello (JSON), frame 1 the open response
        # (JSON), frame 2 the first encode response — binary, because
        # the request was.  Bytes 14-15 sit in the CRC-protected JSON
        # header (never 0xFF), so the overwrite is guaranteed to be a
        # detectable change.
        async def scenario():
            async with TraceServer(port=0) as server:
                async with ChaosProxy(
                    server.host,
                    server.port,
                    server_faults=lambda i: ScriptedTransport(
                        {2: FrameDecision(corrupt_at=(14, 15))}
                    ),
                ) as proxy:
                    client = await TraceClient.connect(proxy.host, proxy.port)
                    try:
                        assert await client.negotiate_binary()
                        stream = await client.open_stream("transition", WIDTH)
                        with pytest.raises(FrameCorruptionError):
                            await asyncio.wait_for(stream.feed([1, 2, 3]), 10)
                        # The connection is condemned, not wedged.
                        with pytest.raises(ConnectionError):
                            await client.request("hello")
                    finally:
                        await client.close()
                    return proxy.stats

        stats = run(scenario())
        assert stats.corrupted == 1

    def test_split_writes_and_newline_payload_bytes_survive_the_proxy(self):
        # Every frame in both directions is split across two TCP
        # pushes, and the payload words are stuffed with 0x0A bytes —
        # the two classic ways to shear a naive newline-framed pump.
        values = [0x0A0A0A0A, 10, 0x0A, (10 << 24) | 10]

        async def scenario():
            async with TraceServer(port=0) as server:
                async with ChaosProxy(
                    server.host,
                    server.port,
                    client_faults=lambda i: PartialWrite(rate=1.0, seed=3),
                    server_faults=lambda i: PartialWrite(rate=1.0, seed=4),
                ) as proxy:
                    client = await TraceClient.connect(proxy.host, proxy.port)
                    try:
                        assert await client.negotiate_binary()
                        stream = await client.open_stream("transition", 32)
                        states = await stream.feed(values)
                        await stream.close()
                    finally:
                        await client.close()
                    return states, proxy.stats

        states, stats = run(scenario())
        oracle = parse_coder_spec("transition", 32).encode_trace(
            BusTrace.from_values(values, width=32)
        )
        assert isinstance(states, np.ndarray)
        assert flat([states]) == [int(v) for v in oracle.values]
        assert stats.forwarded == stats.frames > 0
        assert stats.corrupted == stats.cuts == 0


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("op", ["encode", "encode_trace"])
    def test_columnar_micro_batch_matches_batch_limit_one(self, op):
        """Session chunks and stateless one-shots alike: the coalesced
        transition wave answers what the sequential path answers."""
        streams, chunks, words = 6, 5, 48
        traces = [
            [int(v) for v in locality_trace(chunks * words, seed=70 + i).values]
            for i in range(streams)
        ]

        async def drive(batch_limit):
            baseline = obs.get_registry().snapshot()
            engine = ServeEngine(batch_limit=batch_limit, queue_limit=256)
            await engine.start()
            try:
                sessions = []
                if op == "encode":
                    for i in range(streams):
                        opened = await engine.handle(
                            i, protocol.request("open", 1, coder="transition", width=32)
                        )
                        sessions.append(opened["session"])
                outputs = [[] for _ in range(streams)]

                async def one(i):
                    for start in range(0, chunks * words, words):
                        payload = np.asarray(
                            traces[i][start : start + words], dtype=np.uint64
                        )
                        if op == "encode":
                            fields = dict(session=sessions[i], values=payload)
                        else:
                            fields = dict(coder="transition", width=32, values=payload)
                        response = await engine.handle(
                            i, protocol.request(op, 2, **fields)
                        )
                        assert response["ok"]
                        outputs[i].append(response["states"])

                await asyncio.gather(*(one(i) for i in range(streams)))
            finally:
                await engine.stop(0.5)
            coalesced = obs.get_registry().diff(baseline)["counters"].get(
                f"serve.coalesced{{coder=transition, op={op}}}", 0
            )
            return outputs, cost_counters(baseline), coalesced

        sequential, seq_costs, _ = run(drive(1))
        batched, batch_costs, coalesced = run(drive(16))
        assert coalesced > 0  # the columnar wave really ran
        assert [flat(out) for out in batched] == [flat(out) for out in sequential]
        assert batch_costs == seq_costs
        # And both match the library oracle: one stream per session, or
        # one power-on encode per one-shot chunk.
        oracle = parse_coder_spec("transition", 32)
        for i, out in enumerate(sequential):
            if op == "encode":
                trace = locality_trace(chunks * words, seed=70 + i)
                assert flat(out) == [int(v) for v in oracle.encode_trace(trace).values]
            else:
                for start, states in zip(range(0, chunks * words, words), out):
                    chunk = BusTrace.from_values(traces[i][start : start + words])
                    assert flat([states]) == [
                        int(v) for v in oracle.encode_trace(chunk).values
                    ]


class TestFramingIsInvisibleProperty:
    """Satellite invariant: framing never changes answers or costs."""

    specs = st.lists(st.sampled_from(CODER_FAMILIES), min_size=1, max_size=3)
    values = st.lists(st.integers(0, 0xFFFF), min_size=0, max_size=60)
    chunkings = st.lists(st.integers(1, 17), min_size=0, max_size=8)

    @given(specs=specs, values=values, sizes=chunkings)
    @settings(max_examples=10, deadline=None)
    def test_binary_and_json_engines_agree_bit_and_cost_identically(
        self, specs, values, sizes
    ):
        async def drive(binary):
            baseline = obs.get_registry().snapshot()
            engine = ServeEngine(batch_limit=8, queue_limit=256)
            await engine.start()
            encoded = []
            decoded = []
            try:
                for index, spec in enumerate(specs):
                    opened = await engine.handle(
                        index,
                        protocol.request("open", 1, coder=spec, width=WIDTH),
                    )
                    session = opened["session"]
                    states = []
                    for chunk in split(values, sizes):
                        payload = (
                            np.asarray(chunk, dtype=np.uint64)
                            if binary
                            else [int(v) for v in chunk]
                        )
                        response = await engine.handle(
                            index,
                            protocol.request(
                                "encode", 2, session=session, values=payload
                            ),
                        )
                        assert response["ok"], response
                        # Type mirroring: ndarray in, ndarray out.
                        if binary:
                            assert isinstance(response["states"], np.ndarray)
                        states.append(response["states"])
                    encoded.append(flat(states))

                    decoder = await engine.handle(
                        index,
                        protocol.request("open", 3, coder=spec, width=WIDTH),
                    )
                    back = []
                    for chunk in split(encoded[-1], sizes):
                        payload = (
                            np.asarray(chunk, dtype=np.uint64)
                            if binary
                            else [int(v) for v in chunk]
                        )
                        response = await engine.handle(
                            index,
                            protocol.request(
                                "decode",
                                4,
                                session=decoder["session"],
                                states=payload,
                            ),
                        )
                        assert response["ok"], response
                        back.append(response["values"])
                    decoded.append(flat(back))
            finally:
                await engine.stop(0.5)
            return encoded, decoded, cost_counters(baseline)

        json_enc, json_dec, json_costs = run(drive(False))
        bin_enc, bin_dec, bin_costs = run(drive(True))
        assert bin_enc == json_enc
        assert bin_dec == json_dec
        assert bin_costs == json_costs
        # Decoding what we encoded recovers the input for every session.
        want = [int(v) for v in values]
        for back in json_dec:
            assert back == want
