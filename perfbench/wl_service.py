"""``service``: ``repro serve`` driven by one closed-loop client.

The daemon runs as a subprocess with ``nproc`` workers and the default
admission settings. The client alternates two kinds of request, each
as submit -> poll status -> results:

* fresh: a small full-detail grid {gzip, mcf} x one machine whose cells
  are new (a unique instruction budget), so they must execute;
* cached: a grid that already completed, under a new campaign name, so
  its cells settle from the result store.

The seed picks the program data, the order of machines in the fresh
requests and which completed grid each cached request repeats.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perfbench import common
from perfbench.common import MACHINES, PROGRAMS

#: Committed instructions per fresh cell (plus a per-request offset
#: that keeps every fresh cell distinct). Small enough that the slowest
#: cell (16-SP on mcf, ~0.1 s) ends well inside one 0.25 s dispatcher
#: tick: at ~1.5k instructions it ends right at the tick boundary, and
#: a few percent of host speed then flips a request between two and
#: three ticks.
FRESH_BUDGET = 500
WORKERS = len(os.sched_getaffinity(0))
POLL_S = 0.025
#: Client think time is uniform over [0, THINK_S): one dispatcher tick.
THINK_S = 0.25
CACHED_PER_FRESH = 2
SETUP_SAMPLES = 9
#: Default admission: 64-token burst, 1 token per second.
QUOTA_BURST, QUOTA_REFILL = 64, 1.0
REQUEST_TIMEOUT_S = 60.0
CLIENT = "perfbench"

perf = time.perf_counter


# --------------------------------------------------------------------- #
# Daemon lifecycle.
# --------------------------------------------------------------------- #

class Daemon:
    """One ``repro serve --port 0`` subprocess on its own cache dir."""

    def __init__(self, cache_dir) -> None:
        self.cache_dir = cache_dir
        self.log = open(cache_dir / "serve.log", "w")
        start = perf()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--host", "127.0.0.1", "--cache-dir", str(cache_dir),
             "--jobs", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=common.child_env(PYTHONUNBUFFERED="1"),
            cwd=str(common.ROOT))
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        address = line.split("http://")[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        deadline = time.monotonic() + 60
        while call(self, "GET", "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)
        self.setup_s = perf() - start

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def call(daemon: Daemon, method: str, path: str,
         payload: Optional[dict] = None) -> Tuple[int, dict]:
    """One HTTP exchange; returns (status, JSON body)."""
    conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        body = json.dumps(payload).encode() if payload is not None \
            else None
        headers = {"X-Repro-Client": CLIENT}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        try:
            data = json.loads(raw) if raw else {}
        except ValueError:
            data = {"raw": raw[:200].decode("latin-1")}
        return resp.status, data
    except OSError as exc:
        return 599, {"error": str(exc)}
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Requests.
# --------------------------------------------------------------------- #

class Outcome:
    """One request's client-side record."""

    def __init__(self, kind: str, spec: dict) -> None:
        self.kind = kind
        self.spec = spec
        self.campaign: Optional[str] = None
        self.latency = 0.0
        self.post_s = self.status_s = self.results_s = 0.0
        self.polls = 0
        self.statuses: List[int] = []
        self.cells: Dict[str, Dict[str, dict]] = {}
        self.ok = False


def request(daemon: Daemon, kind: str, spec: dict, timed=None) -> Outcome:
    """submit -> poll until settled -> results. ``timed(name, fn)``
    wraps each HTTP call (the traced run records spans with it)."""
    out = Outcome(kind, spec)
    timed = timed or (lambda name, fn: fn())

    def exchange(name: str, method: str, path: str,
                 payload: Optional[dict] = None) -> Tuple[int, dict]:
        t0 = perf()
        status, body = timed(name, lambda: call(daemon, method, path,
                                                payload))
        setattr(out, name, getattr(out, name) + perf() - t0)
        out.statuses.append(status)
        return status, body

    start = perf()
    status, ack = exchange("post_s", "POST", "/campaigns", spec)
    if common.is_failure_status(status):
        return out
    out.campaign = ack["campaign"]
    deadline = start + REQUEST_TIMEOUT_S
    while True:
        status, body = exchange("status_s", "GET",
                                f"/campaigns/{out.campaign}")
        out.polls += 1
        if common.is_failure_status(status):
            return out
        if body.get("state") in ("done", "partial"):
            break
        if perf() > deadline:
            return out
        time.sleep(POLL_S)
    status, result = exchange("results_s", "GET",
                              f"/campaigns/{out.campaign}/results")
    out.latency = perf() - start
    if common.is_failure_status(status):
        return out
    out.cells = result.get("cells", {})
    out.ok = (body.get("state") == "done" and not result.get("missing")
              and result.get("state") == "done")
    return out


def fresh_spec(seed: int, serial: int, tag: str) -> dict:
    return {"workloads": list(PROGRAMS), "machines": [MACHINES[tag]],
            "instructions": FRESH_BUDGET + serial, "seed": seed,
            "name": f"fresh-{serial}"}


def traffic(seed: int):
    """Endless seeded request stream of (kind, payload, think seconds).
    Each fresh request is followed by ``CACHED_PER_FRESH`` cached ones,
    and each block of three fresh requests covers every machine once.
    The think time before each fresh request is uniform over one
    dispatcher tick, so fresh requests reach the daemon at every phase
    of its tick instead of locking onto one."""
    rng = random.Random(seed)
    serial = 0
    while True:
        tags = list(MACHINES)
        rng.shuffle(tags)
        for tag in tags:
            serial += 1
            yield "fresh", fresh_spec(seed, serial, tag), \
                rng.uniform(0.0, THINK_S)
            for _ in range(CACHED_PER_FRESH):
                yield "cached", rng, 0.0


class Session:
    """Client state of one run: outcomes, completed grids and the
    admission budget the fresh cells must stay within."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.outcomes: List[Outcome] = []
        self.completed: List[dict] = []
        self.primed: List[dict] = []
        self.fresh_cells = 0
        self.started = perf()
        self.repeats = 0

    def cached_spec(self, rng: random.Random) -> dict:
        self.repeats += 1
        spec = dict(rng.choice(self.completed))
        spec["name"] = f"repeat-{self.repeats}"
        return spec

    def within_quota(self, cells: int) -> bool:
        allowance = QUOTA_BURST + QUOTA_REFILL * (perf() - self.started)
        return self.fresh_cells + cells <= allowance - 2

    def send(self, daemon: Daemon, kind: str, spec: dict,
             timed=None) -> Outcome:
        if kind == "fresh":
            self.fresh_cells += len(PROGRAMS)
        out = request(daemon, kind, spec, timed)
        if kind == "fresh" and out.ok:
            self.completed.append(spec)
        self.outcomes.append(out)
        return out


def served_stats(out: Outcome) -> Dict[Tuple[str, str], dict]:
    """(workload, machine token) -> stats dict from a results body."""
    tokens = {label: token for token, label in _labels().items()}
    return {(workload, tokens[label]): stats
            for workload, row in out.cells.items()
            for label, stats in row.items()}


def _labels() -> Dict[str, str]:
    from repro.sim.config import SimConfig
    return {token: SimConfig.from_token(token).label
            for token in MACHINES.values()}


def expected_stats(seed: int, spec: dict) -> Dict[Tuple[str, str], dict]:
    """In-process ``simulate`` of a spec's cells (the oracle)."""
    import repro.sim.runner as runner
    import repro.workloads as workloads
    from repro.sim.config import SimConfig
    out = {}
    for workload in spec["workloads"]:
        for token in spec["machines"]:
            stats = runner.simulate(workloads.get_program(workload, seed),
                                    SimConfig.from_token(token),
                                    max_instructions=spec["instructions"])
            out[(workload, token)] = json.loads(json.dumps(stats.to_dict()))
    return out


def spec_key(spec: dict) -> str:
    """The cells a spec asks for (repeats differ only in their name)."""
    return json.dumps([spec["machines"], spec["instructions"]])


def check(session: Session,
          expected: Optional[Dict[str, Dict[Tuple[str, str], dict]]] = None
          ) -> int:
    """Oracle pass, untimed: every request settled ``done`` with every
    cell, and every served cell equals an in-process simulation.
    ``expected`` holds oracle results already computed, by spec key."""
    failed = 0
    expected = dict(expected or {})
    for out in session.outcomes:
        if not out.ok:
            failed += 1
            continue
        key = spec_key(out.spec)
        if key not in expected:
            expected[key] = expected_stats(session.seed, out.spec)
        served = served_stats(out)
        if served.keys() != expected[key].keys() or any(
                served[cell] != expected[key][cell] for cell in served):
            failed += 1
    return failed


def prime(daemon: Daemon, session: Session) -> None:
    """Untimed: one fresh grid per machine, so the workers have built
    the programs and cached requests have grids to repeat."""
    for serial, tag in enumerate(MACHINES, 1):
        session.send(daemon, "fresh", fresh_spec(session.seed, -serial, tag))
    session.primed = list(session.completed)
    session.outcomes.clear()


def next_request(session: Session, stream):
    """The stream's next (kind, spec), after its think time and, for a
    fresh request, after waiting until the admission quota allows it."""
    kind, spec, think = next(stream)
    if kind == "cached":
        spec = session.cached_spec(spec)
    while kind == "fresh" and not session.within_quota(len(PROGRAMS)):
        time.sleep(0.05)
    time.sleep(think)
    return kind, spec


def drive(daemon: Daemon, session: Session, seconds: float,
          pacer: common.Pacer, setup: List[float]) -> None:
    stream = traffic(session.seed)
    prime(daemon, session)
    start = perf()
    block = (1 + CACHED_PER_FRESH) * len(MACHINES)   # every machine once

    def sending() -> bool:
        return perf() - start < seconds or len(session.outcomes) < block

    while sending() or not pacer.done():
        if pacer.probe_due():
            setup.append(probe_setup())
            pacer.taken += 1
        elif sending():
            session.send(daemon, *next_request(session, stream))


def probe_setup() -> float:
    """One set-up sample: a fresh daemon on an empty cache dir."""
    cache_dir = common.scratch_dir("serve-probe")
    daemon = Daemon(cache_dir)
    daemon.stop()
    common.remove_tree(cache_dir)
    return daemon.setup_s


def end_to_end(session: Session, setup: List[float], peak_rss: float):
    fresh = [o for o in session.outcomes if o.kind == "fresh" and o.ok]
    cached = [o for o in session.outcomes if o.kind == "cached" and o.ok]
    metrics = {"setup_s": (common.median(setup), "s"),
               "peak_rss_mb": (peak_rss, "MB")}
    for tag, token in MACHINES.items():
        mine = [o for o in fresh if o.spec["machines"] == [token]]
        inst = sum(stats["committed"] for o in mine
                   for stats in served_stats(o).values())
        metrics[f"{tag}_kips"] = (inst / sum(o.latency for o in mine)
                                  / 1000.0, "kinst/s")
    delivered = sum(stats["committed"] for out in fresh + cached
                    for stats in served_stats(out).values())
    busy = sum(o.latency for o in fresh + cached)
    metrics["represented_kips"] = (delivered / busy / 1000.0, "kinst/s")
    notes = {}
    for kind, group in (("fresh", fresh), ("cached", cached)):
        latencies = [o.latency for o in group]
        value, pct, n = common.tail(latencies)
        metrics[f"{kind}_p50_s"] = (common.median(latencies), "s")
        notes[f"{kind}_tail"] = f"{value:.4g} s, p{pct:.0f} of {n}"
        if kind == "fresh":     # the cached tail is printed, not gated
            metrics["fresh_tail_s"] = (value, "s")
    notes["setup_samples"] = len(setup)
    notes["workers"] = WORKERS
    return metrics, notes


def run(seed: int, seconds: float):
    cache_dir = common.scratch_dir("serve")
    pacer = common.Pacer(seconds, SETUP_SAMPLES - 1)
    daemon = Daemon(cache_dir)
    setup = [daemon.setup_s]
    session = Session(seed)
    try:
        drive(daemon, session, seconds, pacer, setup)
    finally:
        daemon.stop()
    peak_rss = common.peak_rss_mb()       # before the untimed oracle
    failed = check(session)
    metrics, notes = end_to_end(session, setup, peak_rss)
    return metrics, len(session.outcomes), failed, notes
