"""Tests for the benchmark's own helpers (span accounting, the tail
rule, failure counting, the interval-miss rule). They use no simulator and run in well under a
second: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import multiprocessing
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import common, spans, traced, wl_service


def _trace(records, hot=None):
    return spans.Trace([list(r) for r in records],
                       spans.Counter(hot or {}), spans.Counter())


def test_self_time_subtracts_overlapping_children_from_two_workers():
    # A grid span in the parent with one cell on each of two workers;
    # the cells overlap on [3, 5], so together they cover [1, 8].
    trace = _trace([
        ("p.1", "campaign.run_jobs", 0.0, 10.0, None, None, 0.0),
        ("w1.1", "campaign.cell", 1.0, 5.0, "p.1", "a", 0.0),
        ("w2.1", "campaign.cell", 3.0, 8.0, "p.1", "b", 0.0),
        ("w1.2", "artifacts.get", 1.5, 2.0, "w1.1", "a", 0.0),
    ])
    selfs = trace.self_times()
    assert selfs["p.1"] == pytest.approx(3.0)
    assert selfs["w1.1"] == pytest.approx(3.5)
    assert selfs["w2.1"] == pytest.approx(5.0)
    by_name = trace.self_by_name()
    assert by_name["campaign.cell"] == pytest.approx(8.5)
    assert by_name["artifacts.get"] == pytest.approx(0.5)


def test_self_time_subtracts_hot_stage_time_and_clips_children():
    trace = _trace([
        ("p.1", "cpr.run", 0.0, 4.0, None, None, 2.5),
        ("p.2", "runner.build_core", 3.5, 6.0, "p.1", None, 0.0),
    ], hot={"pipeline.cpr.commit": 2.5})
    assert trace.self_times()["p.1"] == pytest.approx(1.0)
    assert trace.self_by_name()["pipeline.cpr.commit"] == 2.5


def test_union_length_merges_and_clips():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.union_length([], 0, 10) == 0


def _forked_cell(tracer):
    with tracer.span("campaign.cell", "cell-1"):
        pass
    tracer.flush()


def test_forked_worker_spans_return_with_their_parent(tmp_path):
    tracer = spans.Tracer(tmp_path)
    with tracer.span("campaign.run_jobs") as grid:
        proc = multiprocessing.get_context("fork").Process(
            target=_forked_cell, args=(tracer,))
        proc.start()
        proc.join()
    assert proc.exitcode == 0
    trace = tracer.collect()
    names = {rec[spans.NAME]: rec for rec in trace.spans}
    cell = names["campaign.cell"]
    assert cell[spans.PARENT] == grid[spans.SID]
    assert cell[spans.RID] == "cell-1"
    assert cell[spans.SID].split(".")[0] != grid[spans.SID].split(".")[0]
    assert not list(tmp_path.glob("spans-*.jsonl"))


def test_paused_restores_then_reinstalls_wrappers(tmp_path):
    class Owner:
        def f(self):
            return 1

    original = Owner.f
    tracer = spans.Tracer(tmp_path)
    tracer.patch(Owner, "f", spans._spanned(tracer, "owner.f", Owner.f))
    with tracer.paused():
        assert Owner.f is original
    Owner().f()
    tracer.restore()
    assert Owner.f is original
    assert [rec[spans.NAME] for rec in tracer.collect().spans] == ["owner.f"]


@pytest.mark.parametrize("n, percentile, beyond", [
    (40, 75.0, 10), (100, 90.0, 10), (1000, 99.0, 10), (21, 11 / 21 * 100, 10),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(
        n, percentile, beyond):
    values = list(range(1, n + 1))
    value, pct, count = common.tail(values)
    assert count == n
    assert pct == pytest.approx(percentile)
    assert sum(1 for v in values if v > value) == beyond


@pytest.mark.parametrize("n", [1, 6, 15, 20])
def test_tail_falls_back_to_median_without_enough_samples(n):
    values = list(range(1, n + 1))
    value, pct, count = common.tail(values)
    assert (value, pct, count) == (common.median(values), 50.0, n)


@pytest.mark.parametrize("cpi, ref, misses", [
    # Sampled below the reference: 1.0 +- 9.5% reaches 1.095 only, so
    # 1.1 is outside even though |1.0 - 1.1| / 1.1 is 9.1%.
    (1.0, 1.1, True),
    # Sampled above: 1.1 +- 9.5% reaches down to 0.9955 and covers 1.0,
    # even though |1.1 - 1.0| / 1.0 is 10%.
    (1.1, 1.0, False),
    (1.0, 1.0, False),
])
def test_interval_half_width_is_relative_to_the_sampled_cpi(
        cpi, ref, misses):
    assert traced.interval_misses(cpi, 0.095, ref) is misses


def test_a_reported_zero_interval_misses_unless_exact():
    assert traced.interval_misses(1.25, 0.0, 1.25) is False
    assert traced.interval_misses(1.25, 0.0, 1.2501) is True


class _Refusing(BaseHTTPRequestHandler):
    def do_POST(self):                      # noqa: N802 (stdlib API)
        self.send_response(429)
        self.send_header("Retry-After", "1")
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_a_429_counts_as_a_failed_operation():
    assert common.is_failure_status(429)
    assert common.is_failure_status(503)
    assert not common.is_failure_status(200)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Refusing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        daemon = type("FakeDaemon", (), {})()
        daemon.host, daemon.port = server.server_address[:2]
        session = wl_service.Session(seed=1)
        out = session.send(daemon, "fresh", wl_service.fresh_spec(1, 1,
                                                                  "cpr"))
    finally:
        server.shutdown()
        server.server_close()
    assert out.statuses == [429] and not out.ok
    failed = wl_service.check(session)
    assert failed == 1
    assert common.failed_ratio(len(session.outcomes), failed) == 1.0
    assert session.completed == []
