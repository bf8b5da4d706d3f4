"""The serve workload: fit → register → ``python -m repro serve`` → load.

One client process (this one) drives the real server subprocess with at
most two threads, each owning one keep-alive connection:

* ``hit``   open loop at ``RATE`` req/s over a 512-row working set that was
  sent once before timing, so every timed request is an LRU hit;
* ``miss``  the same schedule, but every row is new;
* ``ladder`` the hit stream at rates found by bisection, to locate the
  highest rate whose p90 meets ``LIMIT_MS`` with no growing backlog;
* ``batch`` closed loop, 256 fresh rows per request.

Open-loop requests are timed from the moment they were due, so a stalled
connection charges its wait to every request queued behind it, and the
generator records how late it sent each one. A step whose due requests
are still unsent when it ends has a growing backlog and fails, so the
ladder never credits a rate the client could not actually offer.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from common import Outcome, median, percentile

MODEL = "pfr-bench"
TRAIN_ROWS = 2_000
FEATURES = 12
COMPONENTS = 4
HIT_SET = 512
BATCH_ROWS = 256
BATCH_REQUESTS = 24
ROUNDS = 16
RATE = 250.0
LIMIT_MS = 20.0
LADDER = (100.0, 2000.0)
LADDER_STEPS = 6
CONNECTIONS = 2
SETUP_TRIALS = 3
#: With two or more CPUs the server runs on the last one and the client on
#: the first, so the two processes do not migrate onto each other's CPU.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SERVER_CPU = {_CPUS[-1]} if len(_CPUS) >= 2 else None
CLIENT_CPU = {_CPUS[0]} if len(_CPUS) >= 2 else None
#: A step fails when more than this many due requests are unsent at its end
#: (one request may legitimately be waiting behind each busy connection).
BACKLOG_SLACK = CONNECTIONS


# -------------------------------------------------------------------- inputs

def serve_inputs(seed: int, *, miss_rows: int = 20_000,
                 batch_requests: int = ROUNDS * BATCH_REQUESTS) -> dict:
    """Training data, the hit working set, fresh miss rows, batch matrices."""
    import numpy as np

    from repro.datasets import simulate_blobs
    from repro.graphs import knn_graph

    data = simulate_blobs(TRAIN_ROWS, n_features=FEATURES - 1, seed=seed)
    w_fair = knn_graph(data.side_information[:, None], n_neighbors=8,
                       bandwidth=1.0)
    rng = np.random.default_rng([seed, 1])
    scale = data.X.std(axis=0)
    center = data.X.mean(axis=0)

    def rows(n):
        return center + scale * rng.standard_normal((n, FEATURES))

    return {
        "X": data.X,
        "w_fair": w_fair,
        "hit": rows(HIT_SET),
        "miss": rows(miss_rows),
        "batch": rows(batch_requests * BATCH_ROWS).reshape(
            batch_requests, BATCH_ROWS, FEATURES),
    }


def row_body(row) -> bytes:
    return json.dumps({"model": MODEL, "row": [float(v) for v in row]}).encode()


def rows_body(rows) -> bytes:
    return json.dumps({"model": MODEL, "rows": rows.tolist()}).encode()


# -------------------------------------------------------------------- client

class Connection:
    """A minimal HTTP/1.1 keep-alive client over one socket."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> tuple:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """``python -m repro serve`` with CLI defaults on an ephemeral port."""

    def __init__(self, root, registry, log_path):
        start = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry", str(registry),
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, SERVER_CPU)
        line = self.proc.stdout.readline().decode()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"server did not report its address: {line!r}")
        self.port = int(match.group(1))
        probe = Connection(self.port)
        try:
            status, _ = probe.request("GET", "/healthz")
        finally:
            probe.close()
        if status != 200:
            self.close()
            raise RuntimeError(f"/healthz answered {status}")
        self.boot_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self.log.close()


@contextlib.contextmanager
def pinned(cpus):
    """Run this process on ``cpus`` (unchanged when ``None``), then restore."""
    if cpus is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def open_loop(conns, bodies, rate: float, duration: float, prefix: bytes) -> dict:
    """Send ``bodies`` (cycled) at ``rate`` req/s for ``duration`` seconds.

    Request ``i`` is due at ``t0 + i / rate`` and goes out on connection
    ``i mod len(conns)``. Latency runs from the due time to the end of the
    response; lateness from the due time to the send.
    """
    n = max(1, int(rate * duration))
    latency = [None] * n
    late = [0.0] * n
    failed = [0] * len(conns)
    backlog = [0] * len(conns)
    t0 = time.perf_counter() + 0.02
    end = t0 + duration

    def drive(k):
        conn = conns[k]
        for i in range(k, n, len(conns)):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            elif now > end:
                backlog[k] = len(range(i, n, len(conns)))
                return
            sent = time.perf_counter()
            late[i] = sent - due
            status, body = conn.request("POST", "/transform",
                                        bodies[i % len(bodies)])
            latency[i] = time.perf_counter() - due
            if status != 200 or not body.startswith(prefix):
                failed[k] += 1

    _run_threads(drive, len(conns))
    done = [value for value in latency if value is not None]
    sent_late = [lag for lag, value in zip(late, latency) if value is not None]
    return {
        "rate": rate,
        "offered": len(done) / duration,
        "sent": len(done),
        "samples": done,
        "failed": sum(failed),
        "backlog": sum(backlog),
        "p50_ms": 1e3 * percentile(done, 50),
        "p90_ms": 1e3 * percentile(done, 90),
        "p99_ms": 1e3 * percentile(done, 99),
        "late_ms": 1e3 * percentile(sent_late, 90),
    }


def _passes(step: dict) -> bool:
    return (step["failed"] == 0 and step["backlog"] <= BACKLOG_SLACK
            and step["p90_ms"] <= LIMIT_MS)


def closed_batch(conns, bodies, prefix: bytes) -> tuple:
    """All ``bodies`` through the connections back to back; (wall, failed)."""
    failed = [0] * len(conns)

    def drive(k):
        for i in range(k, len(bodies), len(conns)):
            status, body = conns[k].request("POST", "/transform", bodies[i])
            if status != 200 or not body.startswith(prefix):
                failed[k] += 1

    start = time.perf_counter()
    _run_threads(drive, len(conns))
    return time.perf_counter() - start, sum(failed)


def _run_threads(target, count: int) -> None:
    errors = []

    def guarded(k):
        try:
            target(k)
        except Exception as exc:  # surfaced below, after every thread ends
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def scrape(port: int) -> dict:
    """``{(metric, sorted label items): value}`` from ``GET /metrics``."""
    conn = Connection(port)
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = {}
    for line in body.decode().splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*)(\{(.*)\})? (\S+)$", line)
        if match is None or line.startswith("#"):
            continue
        labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', match.group(3) or "")))
        out[(match.group(1), labels)] = float(match.group(4))
    return out


def _quantile(series: dict, metric: str, **labels) -> float:
    for (name, items), value in series.items():
        found = dict(items)
        if name == metric and found.get("quantile") == "0.5" and all(
            found.get(key) == val for key, val in labels.items()
        ):
            return value
    raise KeyError(metric)


# ------------------------------------------------------------------ workload

def fit_and_register(ctx, inputs, name: str = "registry-traced") -> tuple:
    """Fit the served PFR and register it in a fresh registry directory."""
    from repro.core import PFR
    from repro.serving import ModelRegistry

    model = PFR(n_components=COMPONENTS, gamma=0.5).fit(inputs["X"], inputs["w_fair"])
    registry = ModelRegistry(ctx.workdir / name)
    began = time.perf_counter()
    record = registry.register(MODEL, model)
    return model, registry, record, time.perf_counter() - began


def _setup_trial(ctx, inputs, index: int) -> dict:
    """Fit, register, boot and warm one server; returns its timings."""
    start = time.perf_counter()
    model, registry, record, register_s = fit_and_register(
        ctx, inputs, f"registry{index}")
    registry_dir = registry.root
    server = Server(ctx.root, registry_dir, ctx.workdir / f"server{index}.log")
    try:
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        prefix = json.dumps({"model": record.spec})[:-1].encode() + b", "
        hit_bodies = [row_body(row) for row in inputs["hit"]]
        for body in hit_bodies:
            status, answer = conns[0].request("POST", "/transform", body)
            if status != 200 or not answer.startswith(prefix):
                raise RuntimeError(f"warm-up request failed: {status} {answer[:200]!r}")
    except BaseException:
        server.close()
        raise
    return {
        "seconds": time.perf_counter() - start,
        "register_s": register_s,
        "boot_s": server.boot_s,
        "server": server,
        "conns": conns,
        "model": model,
        "record": record,
        "registry": registry,
        "prefix": prefix,
        "hit_bodies": hit_bodies,
    }


def setup(ctx, inputs, probe_seconds) -> dict:
    """``SETUP_TRIALS`` full set-ups; the last one's server stays up."""
    trials = []
    for index in range(SETUP_TRIALS):
        trial = _setup_trial(ctx, inputs, index)
        trial["seconds"] += probe_seconds[index]
        if index < SETUP_TRIALS - 1:
            for conn in trial["conns"]:
                conn.close()
            trial["server"].close()
        trials.append(trial)
    live = trials[-1]
    live["setup_s"] = median([t["seconds"] for t in trials])
    live["register_s_median"] = median([t["register_s"] for t in trials])
    live["boot_s_median"] = median([t["boot_s"] for t in trials])
    return live


def _check_sample(live, out: Outcome, rows, bodies_sent) -> None:
    """Served rows for a sample must match local ``PFR.transform`` to 1e-12."""
    import numpy as np

    conn = live["conns"][0]
    for index in range(0, len(rows), max(1, len(rows) // 16)):
        status, body = conn.request("POST", "/transform", bodies_sent[index])
        ok = status == 200
        if ok:
            payload = json.loads(body)
            local = live["model"].transform(rows[index][None, :])[0]
            ok = (payload["model"] == live["record"].spec
                  and float(np.max(np.abs(np.asarray(payload["row"]) - local))) <= 1e-12)
        out.check(ok, f"served row {index} disagrees with local transform")


def run_serve(ctx, inputs, out: Outcome, live: dict, trace: bool) -> None:
    """Interleaved rounds of the hit stream and a closed-loop batch pass.

    Interleaving lets both end-to-end numbers see the same machine state;
    ``second_s`` is the p50 over every round's hit samples and ``main_s``
    the summed wall of the batch passes: the closed-loop time to push
    ``ROUNDS * BATCH_REQUESTS`` requests of fresh rows through the server.
    """
    conns, prefix = live["conns"], live["prefix"]
    hit_bodies = live["hit_bodies"]
    batch_bodies = [rows_body(matrix) for matrix in inputs["batch"]]
    rounds = len(batch_bodies) // BATCH_REQUESTS
    samples, walls, steps = [], [], []
    with pinned(CLIENT_CPU):
        for index in range(rounds):
            step = open_loop(conns, hit_bodies, RATE, 0.5 * ctx.seconds / rounds,
                             prefix)
            _account(out, step, "hit")
            samples.extend(step.pop("samples"))
            steps.append(step)
            start = index * BATCH_REQUESTS
            wall, failed = closed_batch(
                conns, batch_bodies[start:start + BATCH_REQUESTS], prefix)
            out.attempted += BATCH_REQUESTS
            out.failed += failed
            walls.append(wall)
        hit = {
            "sent": len(samples),
            "backlog": sum(step["backlog"] for step in steps),
            "p50_ms": 1e3 * percentile(samples, 50),
            "p90_ms": 1e3 * percentile(samples, 90),
            "p99_ms": 1e3 * percentile(samples, 99),
            "late_ms": max(step["late_ms"] for step in steps),
        }
        out.metrics["second_s"] = hit["p50_ms"] / 1e3
        out.metrics["main_s"] = sum(walls)
        out.notes["hit"] = hit
        out.notes["batch_walls"] = walls
        out.notes["batch_rows_per_s"] = BATCH_ROWS * BATCH_REQUESTS * rounds / sum(walls)
        _check_sample(live, out, inputs["hit"], hit_bodies)
        if trace:
            serve_layers(ctx, inputs, out, live, hit)
    out.metrics["peak_rss_mb"] = live["server"].peak_rss_mb()


def _account(out: Outcome, step: dict, label: str) -> None:
    """Count a fixed-rate step; a backlog beyond the slack counts as failed."""
    overdue = step["backlog"] if step["backlog"] > BACKLOG_SLACK else 0
    out.attempted += step["sent"] + step["backlog"]
    out.failed += step["failed"] + overdue
    if step["failed"] or overdue:
        out.failures.append(f"{label} stream: {step['failed']} failed, "
                            f"{step['backlog']} unsent at end")


def serve_layers(ctx, inputs, out: Outcome, live: dict, hit: dict) -> None:
    """Per-layer numbers: server scrape, client streams, in-process micro pass."""
    conns, prefix = live["conns"], live["prefix"]
    series = scrape(live["server"].port)
    dispatch = 1e3 * _quantile(series, "repro_http_request_seconds",
                               route="/transform")
    compute = 1e3 * _quantile(series, "repro_serving_request_seconds")
    layers = out.layers
    layers["serving.dispatch_p50_ms"] = dispatch
    layers["serving.compute_p50_ms"] = compute
    layers["serving.transport_p50_ms"] = hit["p50_ms"] - dispatch

    duration = 0.25 * ctx.seconds
    miss_bodies = [row_body(row) for row in inputs["miss"][: int(RATE * duration) + 1]]
    miss = open_loop(conns, miss_bodies, RATE, duration, prefix)
    miss.pop("samples")
    _account(out, miss, "miss")

    lo, hi = LADDER
    best = None
    steps = []
    for _ in range(LADDER_STEPS):
        rate = (lo * hi) ** 0.5 if steps else lo
        step = open_loop(conns, live["hit_bodies"], rate, 0.1 * ctx.seconds, prefix)
        step.pop("samples")
        out.attempted += step["sent"] + step["backlog"]
        out.failed += step["failed"]
        steps.append(step)
        if _passes(step):
            best = step
            lo = rate
        else:
            hi = rate
    out.notes["ladder"] = [
        {k: round(v, 4) for k, v in step.items()} for step in steps]

    layers.update({
        "serving.hit_p50_ms": hit["p50_ms"],
        "serving.hit_p90_ms": hit["p90_ms"],
        "serving.hit_p99_ms": hit["p99_ms"],
        "serving.miss_p50_ms": miss["p50_ms"],
        "serving.miss_p90_ms": miss["p90_ms"],
        "serving.max_rps": best["offered"] if best else 0.0,
        "serving.batch_rows_per_s": out.notes["batch_rows_per_s"],
        "serving.requests": float(out.attempted),
        "serving.failed": float(out.failed),
        "serving.gen_late_ms": max(hit["late_ms"], miss["late_ms"]),
        "serving.backlog": float(hit["backlog"] + miss["backlog"]),
        "serving.register_s": live["register_s_median"],
        "serving.boot_s": live["boot_s_median"],
    })
    out.notes["hit_p99_samples"] = hit["sent"]
    out.notes["miss"] = miss


def micro_pass(live, inputs) -> dict:
    """In-process per-call costs on a ``TransformService`` over the registry."""
    from repro.serving import LRUCache, TransformService, row_digest

    service = TransformService(live["registry"])
    spec = live["record"].spec
    hit_rows = inputs["hit"]
    miss_rows = inputs["miss"][-4096:]
    bodies = live["hit_bodies"]
    model = live["model"]
    cache = LRUCache(max_size=len(hit_rows))
    keys = [row_digest(row) for row in hit_rows]
    for key, row in zip(keys, hit_rows):
        cache.put(key, row)

    def per_call(fn, items):
        start = time.perf_counter()
        for item in items:
            fn(item)
        return 1e6 * (time.perf_counter() - start) / len(items)

    for row in hit_rows:
        service.transform_one_versioned(spec, row)
    cycle = [row for _ in range(4) for row in hit_rows]
    values = {
        "serving.transform_one_hit_us": per_call(
            lambda row: service.transform_one_versioned(spec, row), cycle),
        "serving.transform_one_miss_us": per_call(
            lambda row: service.transform_one_versioned(spec, row), miss_rows[:2048]),
        "serving.row_digest_us": per_call(row_digest, cycle),
        "serving.lru_get_us": per_call(cache.get, keys * 4),
        "serving.json_decode_us": per_call(json.loads, bodies * 4),
        "serving.model_transform_us": per_call(
            lambda row: model.transform(row[None, :]), hit_rows),
    }
    batches = miss_rows[2048:].reshape(-1, BATCH_ROWS, FEATURES)
    start = time.perf_counter()
    for matrix in batches:
        service.transform_versioned(spec, matrix)
    values["serving.transform_batch_us_per_row"] = (
        1e6 * (time.perf_counter() - start) / (len(batches) * BATCH_ROWS))
    totals = service.stats()["totals"]
    hits, misses = totals["cache_hits"], totals["cache_misses"]
    values["serving.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return values


def close(live) -> None:
    for conn in live["conns"]:
        conn.close()
    live["server"].close()
