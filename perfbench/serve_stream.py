"""``serve-stream``: round-trip streaming through the serving cluster.

``repro cluster --workers 1`` is spawned during set-up; one client process
(``serve_client.py``) drives two binary-framed connections in a closed
loop through framing, router, queue, kernel and serialisation, encoding
and decoding every chunk for all nine families.  Both connections hold
same-spec sessions at once, so the transition family's columnar
coalescing can fire.  The ``--seed`` selects the ``gen:mixed`` population
the streams come from.  No simulation, audit or ledger work happens.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    FAMILIES,
    BenchError,
    Daemon,
    Outcome,
    Tracer,
    child_env,
    mcycles_per_s,
    median,
    percentile,
    repro_cmd,
    wait_rusage,
    window8_miss_share,
)

CLIENT = str(Path(__file__).resolve().parent / "serve_client.py")


class Cluster:
    """A ``repro cluster`` child, its port and its worker processes."""

    def __init__(self, obs: bool = False):
        self.daemon = Daemon(
            repro_cmd("cluster", "--workers", "1", "--port", "0", "--host", "127.0.0.1"), child_env(obs=obs)
        )
        try:
            line = self.daemon.read_line(60.0)
            if "listening on" not in line:
                raise BenchError(f"unexpected cluster announcement {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.daemon.read_line(60.0)  # the worker's own announcement
        except BaseException:
            self.daemon.stop()
            raise
        self.workers = _children(self.daemon.proc.pid)

    def stop(self, outcome: Outcome) -> float:
        """SIGTERM drain: must exit 0 and leave no worker behind.

        Workers seen at start and just before the SIGTERM are both
        checked, so a worker the supervisor restarted counts too.  A
        stray is killed and reaped here, so the run leaves nothing behind.
        """
        workers = set(self.workers) | set(_children(self.daemon.proc.pid))
        code, rss = self.daemon.stop()
        outcome.check(code == 0, f"cluster exited {code} on SIGTERM: {self.daemon.stderr_tail()}")
        stray = sorted(pid for pid in workers if _alive(pid))
        outcome.check(not stray, f"cluster left worker processes {stray}")
        for pid in stray:
            _kill_and_wait(pid)
        return rss


def _children(pid: int) -> List[int]:
    found: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _kill_and_wait(pid: int, timeout_s: float = 10.0) -> None:
    """SIGKILL an orphaned worker and wait until it has ended."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout_s
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def client_args(cfg: Dict[str, Any], port: int, seed: int, seconds: float, *extra: str) -> List[str]:
    return [
        sys.executable, CLIENT, "--port", str(port), "--seed", str(seed), "--seconds", str(seconds),
        "--population", str(cfg["population"]), "--cycles", str(cfg["stream_cycles"]),
        "--chunk", str(cfg["chunk"]), *extra,
    ]


def start(cfg: Dict[str, Any], seed: int, seconds: float, obs: bool = False, *extra: str) -> Tuple[Cluster, Daemon, float]:
    """Set up: the cluster up and a client with its streams ready."""
    begin = time.perf_counter()
    cluster = Cluster(obs)
    client = None
    try:
        client = Daemon(client_args(cfg, cluster.port, seed, seconds, *extra), child_env(obs=obs))
        ready = client.read_line(60.0)
        if ready.strip() != "READY":
            raise BenchError(f"client said {ready!r}: {client.stderr_tail()}")
    except BaseException:
        if client is not None:
            client.stop()
        cluster.daemon.stop()
        raise
    return cluster, client, time.perf_counter() - begin


def finish(client: Daemon, timeout_s: float) -> Tuple[Dict[str, Any], float]:
    """The client's result document and its peak RSS."""
    line = client.read_line(timeout_s)
    code, rss = wait_rusage(client.proc, 30.0)
    if code != 0:
        raise BenchError(f"serve client exited {code}: {client.stderr_tail()}")
    return json.loads(line), rss


def setup(cfg: Dict[str, Any], seed: int, times: int, outcome: Outcome) -> List[float]:
    """The wall times of ``times`` complete set-ups, each torn down again."""
    walls = []
    for _ in range(times):
        cluster, client, wall = start(cfg, seed, 0, False, "--setup-only")
        wait_rusage(client.proc, 30.0)
        cluster.stop(outcome)
        walls.append(wall)
    return walls


def check(result: Dict[str, Any], outcome: Outcome) -> None:
    for error in result["errors"]:
        outcome.fail(f"client connection failed: {error}")
    chunks, sessions = result["chunks"], result["sessions"]
    bad_decode, bad_state = result["decode_mismatches"], result["state_mismatches"]
    outcome.attempted += chunks + sessions
    outcome.failed += len(bad_decode) + len(bad_state)
    outcome.reasons += [f"decoded chunk differs from its input: {s}" for s in bad_decode[:10]]
    outcome.reasons += [f"encoded states differ from encode_trace: {s}" for s in bad_state[:10]]
    if sessions == 0:
        outcome.fail("no session completed")


def run_once(cfg: Dict[str, Any], seed: int, seconds: float, outcome: Outcome, obs: bool = False, *extra: str):
    cluster, client, setup_s = start(cfg, seed, seconds, obs, *extra)
    try:
        result, client_rss = finish(client, seconds + 120.0)
    finally:
        if client.proc.returncode is None:
            client.stop()
        cluster_rss = cluster.stop(outcome)
    check(result, outcome)
    return result, setup_s, max(client_rss, cluster_rss)


def end_to_end(cfg: Dict[str, Any], seconds: float, seed: int, outcome: Outcome):
    walls = setup(cfg, seed, cfg["setup_repeats"] - 1, outcome)
    result, setup_s, rss = run_once(cfg, seed, seconds, outcome)
    walls.append(setup_s)
    rtt = result["rtt_s"]
    metrics = {
        "setup_s": median(walls),
        "latency_p50_ms": median(rtt) * 1e3,
        "latency_p99_ms": percentile(rtt, 99) * 1e3,
        "mcycles_per_s": mcycles_per_s(result["cycles"], result["loop_s"]),
        "peak_rss_mb": rss,
    }
    report = {
        "serve_mcycles_per_s": f"{metrics['mcycles_per_s']:.4f} Mcycles/s (round-tripped)",
        "serve_rtt_p50_ms": f"{metrics['latency_p50_ms']:.3f} ms",
        "serve_rtt_p99_ms": f"{metrics['latency_p99_ms']:.3f} ms ({len(rtt)} samples, "
        f"{sum(1 for x in rtt if x * 1e3 > metrics['latency_p99_ms'])} beyond p99)",
        "sessions": result["sessions"],
        "population": f"gen:mixed,seed={seed},population={cfg['population']},cycles={cfg['stream_cycles']}",
    }
    return metrics, report


# -- the traced run ----------------------------------------------------


def _hist_p50_ms(hists: Dict[str, Any], name: str, **labels: str) -> Optional[float]:
    """The p50 (ms) of every histogram ``name`` whose labels match, merged;
    None when the telemetry holds no such sample."""
    from repro.obs.registry import estimate_quantile, parse_key

    merged: Optional[Dict[str, Any]] = None
    for key, hist in hists.items():
        base, have = parse_key(key)
        if base != name or any(have.get(k) not in v.split("|") for k, v in labels.items()):
            continue
        if merged is None:
            merged = {"count": 0, "min": hist["min"], "max": hist["max"], "buckets": [0] * len(hist["buckets"])}
        merged["count"] += hist["count"]
        merged["min"] = min(merged["min"], hist["min"])
        merged["max"] = max(merged["max"], hist["max"])
        merged["buckets"] = [a + b for a, b in zip(merged["buckets"], hist["buckets"])]
    value = None if merged is None else estimate_quantile(merged, 0.5)
    return None if value is None else value * 1e3


def _counter(counters: Dict[str, Any], name: str, **labels: str) -> float:
    from repro.obs.registry import parse_key

    total = 0.0
    for key, value in counters.items():
        base, have = parse_key(key)
        if base == name and all(have.get(k) in v.split("|") for k, v in labels.items()):
            total += float(value)
    return total


def in_process_layers(cfg: Dict[str, Any], seed: int, tracer: Tracer) -> List[Any]:
    """The layers the serving path calls, timed in this process: stream
    generation, binary framing at the chunk size, and each family's
    streaming encode and decode over the first streams of the population."""
    from repro.coding.specs import parse_coder_spec
    from repro.corpus.workload import parse_workload_source
    from repro.serve import protocol
    from repro.traces.streaming import StreamingDecoder, StreamingEncoder

    spec = f"gen:mixed,seed={seed},population={cfg['population']},cycles={cfg['stream_cycles']}"
    source = parse_workload_source(spec)
    streams = []
    for index in range(cfg["population"]):
        with tracer.span("corpus.generate", work=cfg["stream_cycles"]):
            streams.append(source.for_stream(index).trace())

    chunk = streams[0].values[: cfg["chunk"]]
    message = protocol.request("encode", 1, session=1, values=chunk)
    for _ in range(cfg["frame_reps"]):
        with tracer.span("serve.frame_encode"):
            raw = protocol.encode_binary_frame(message, "values", chunk)
        with tracer.span("serve.frame_decode"):
            protocol.decode_binary_frame(raw)

    for family in FAMILIES:
        for trace in streams[: cfg["coding_streams"]]:
            encoder = StreamingEncoder(parse_coder_spec(family, trace.width))
            decoder = StreamingDecoder(parse_coder_spec(family, trace.width))
            for offset in range(0, len(trace), cfg["chunk"]):
                part = trace.values[offset:offset + cfg["chunk"]]
                with tracer.span(f"coding.{family}.encode", work=len(part)):
                    states = encoder.feed(part)
                with tracer.span(f"coding.{family}.decode", work=len(states)):
                    decoder.feed(states)
    return streams


def throughput(result: Dict[str, Any]) -> float:
    return mcycles_per_s(result["cycles"], result["loop_s"])


def traced(cfg: Dict[str, Any], seed: int, outcome: Outcome):
    tracer = Tracer()
    streams = in_process_layers(cfg, seed, tracer)
    # Tracing's cost is the throughput of a REPRO_OBS=0 cluster over that
    # of a REPRO_OBS=1 one, minus 1, as the median over alternating pairs
    # of runs; it is small beside run-to-run noise, so read it as a bound.
    overheads = []
    for _ in range(cfg["overhead_pairs"]):
        plain, _setup_s, _rss = run_once(cfg, seed, cfg["traced_seconds"], outcome, False)
        observed, _setup_s, _rss = run_once(cfg, seed, cfg["traced_seconds"], outcome, True, "--telemetry")
        overheads.append(throughput(plain) / throughput(observed) - 1.0)
    telemetry = observed["telemetry"] or {}
    outcome.check(bool(telemetry.get("enabled")), "the REPRO_OBS=1 cluster reported no telemetry")
    metrics_doc = telemetry.get("metrics") or {}
    hists, counters = metrics_doc.get("hists") or {}, metrics_doc.get("counters") or {}
    ops = "encode|decode"
    requests = _counter(counters, "serve.requests", op=ops)
    engine_p50 = _hist_p50_ms(hists, "serve.request_s", op=ops)
    client_p50 = median(observed["request_s"]) * 1e3
    frames = max(tracer.count("serve.frame_encode"), 1)
    frame_encode_us = tracer.self_s("serve.frame_encode") / frames * 1e6
    frame_decode_us = tracer.self_s("serve.frame_decode") / frames * 1e6
    # Each request is framed twice (request and reply), each frame once
    # encoded and once decoded.
    framing_ms = 2 * (frame_encode_us + frame_decode_us) / 1e3
    metrics = {
        "corpus.generate_mcycles_per_s": tracer.rate("corpus.generate"),
        "serve.frame_encode_us": frame_encode_us,
        "serve.frame_decode_us": frame_decode_us,
        "serve.request_p50_ms": engine_p50,
        "serve.queue_wait_p50_ms": _hist_p50_ms(hists, "serve.queue_wait_s", op=ops),
        "serve.serialize_p50_ms": _hist_p50_ms(hists, "serve.serialize_s", op=ops),
        "serve.coalesced_frac": _counter(counters, "serve.coalesced", op=ops) / requests if requests else None,
        "serve.router_overhead_ms": None if engine_p50 is None else client_p50 - engine_p50,
        "coding.window8_miss_share": window8_miss_share(streams),
        # The share of a client request that neither the engine's request
        # span nor framing accounts for.
        "trace.unattributed_frac": None if engine_p50 is None else (client_p50 - engine_p50 - framing_ms) / client_p50,
        "obs.tracing_overhead_frac": median(overheads),
    }
    for family in FAMILIES:
        metrics[f"coding.{family}.encode_mcycles_per_s"] = tracer.rate(f"coding.{family}.encode")
        metrics[f"coding.{family}.decode_mcycles_per_s"] = tracer.rate(f"coding.{family}.decode")
        metrics[f"serve.kernel_p50_ms.{family}"] = _hist_p50_ms(hists, "serve.kernel_s", op=ops, coder=family)
    report = {
        "requests (telemetry)": int(requests),
        "client request p50": f"{client_p50:.3f} ms",
        "framing per request": f"{framing_ms:.3f} ms",
        "tracing overhead per pair": " ".join(f"{x:+.3f}" for x in overheads),
    }
    return metrics, report
