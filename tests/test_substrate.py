"""The one trace substrate (repro.obs.substrate) under every trace stream.

Pins the shared contracts once: all four rings evict the oldest records
and count them, all four reject an invalid cap the same way, the
telemetry log rotates at a run start and appends for a continuing run,
and the Chrome validator pairs every flow start with one finish — for
the lineage, epoch and request exporters alike.
"""

import pytest

from repro.obs.epochs import epoch_trace_doc
from repro.obs.events import EventSink
from repro.obs.lineage import LineageTrace, chrome_trace_doc
from repro.obs.lineage import validate_chrome_trace as lineage_validate
from repro.obs.reqtrace import RequestTrace, req_trace_doc
from repro.obs.substrate import (
    ChromeTrace,
    TelemetryLog,
    continue_run_files,
    read_jsonl,
    resolve_cap,
    validate_chrome_trace,
)
from repro.sim.tracing import Trace
from tests import test_lineage as lineage_tests
from tests.test_epochs import _synthetic_records
from tests.test_reqtrace import spans

# ring name -> (build(cap), append record number i, numbers retained)
RINGS = {
    "trace": (
        lambda cap: Trace(max_records=cap),
        lambda ring, i: ring.emit(float(i), "k", "s%d" % i),
        lambda ring: [int(r.subject[1:]) for r in ring],
    ),
    "events": (
        lambda cap: EventSink(max_events=cap),
        lambda ring, i: ring.emit(float(i), "e", i=i),
        lambda ring: [e["i"] for e in ring.records()],
    ),
    "lineage": (
        lambda cap: LineageTrace(enabled=True, max_records=cap),
        lambda ring, i: ring.event(float(i), "e", "x"),
        lambda ring: [int(r["time"]) for r in ring.records()],
    ),
    "reqtrace": (
        lambda cap: RequestTrace(max_records=cap),
        lambda ring, i: ring.record("rank", i, float(i), 0.001),
        lambda ring: [r["seq"] for r in ring.records()],
    ),
}


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("cap, n", [(1, 1), (1, 4), (3, 3), (3, 8)])
def test_ring_keeps_newest_and_counts_dropped(name, cap, n):
    build, add, retained = RINGS[name]
    ring = build(cap)
    for i in range(n):
        add(ring, i)
    assert len(ring) == min(cap, n)
    assert ring.dropped == max(0, n - cap)
    assert retained(ring) == list(range(max(0, n - cap), n))


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("cap", [0, -3])
def test_ring_rejects_cap_below_one(name, cap):
    with pytest.raises(ValueError, match="max_records must be >= 1"):
        RINGS[name][0](cap)


@pytest.mark.parametrize("name", ["trace", "lineage", "reqtrace"])
@pytest.mark.parametrize("raw", ["garbage", "0", "-1", "2.5"])
def test_shared_env_cap_rejects_invalid(name, raw, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MAX", raw)
    with pytest.raises(ValueError, match="REPRO_TRACE_MAX"):
        RINGS[name][0](None)


def test_shared_env_cap_and_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_MAX", raising=False)
    assert [Trace().max_records, LineageTrace().max_records,
            RequestTrace().max_records, EventSink().max_records] == [
        1_000_000, 500_000, 200_000, 65_536
    ]
    monkeypatch.setenv("REPRO_TRACE_MAX", "9")
    assert resolve_cap(None, 5) == 9
    assert resolve_cap(4, 5) == 4  # an explicit cap wins
    # One cap for the trace rings; the event sink keeps its own.
    assert [Trace().max_records, LineageTrace().max_records,
            RequestTrace().max_records, EventSink().max_records] == [
        9, 9, 9, 65_536
    ]


class TestTelemetryLog:
    def test_run_start_rotates_previous_file(self, tmp_path):
        path = tmp_path / "t" / "epochs-0.jsonl"
        with TelemetryLog(path) as log:
            log.write({"run": 1})
        with TelemetryLog(path) as log:
            log.write({"run": 2}, {"run": 2})
        assert read_jsonl(path) == [{"run": 2}, {"run": 2}]
        assert read_jsonl(path.with_name(path.name + ".old")) == [{"run": 1}]

    def test_continuing_run_appends(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        with TelemetryLog(path) as log:
            log.write({"incarnation": 0})
        continue_run_files()
        try:
            with TelemetryLog(path) as log:
                log.write({"incarnation": 1})
        finally:
            continue_run_files(False)
        assert [r["incarnation"] for r in read_jsonl(path)] == [0, 1]
        assert not path.with_name(path.name + ".old").exists()

    def test_append_only_log_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for i in range(2):
            with TelemetryLog(path, rotate=False) as log:
                log.write({"i": i})
        assert [r["i"] for r in read_jsonl(path)] == [0, 1]

    def test_reader_skips_torn_foreign_and_missing(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"epoch": 1, "phase": "a"}\n\n[1, 2]\n'
                        '{"other": 1}\n{"epoch": 2, "pha')
        assert read_jsonl(path, ("epoch", "phase")) == [
            {"epoch": 1, "phase": "a"}
        ]
        assert len(read_jsonl(path)) == 2
        assert read_jsonl(tmp_path / "absent.jsonl") == []


class TestFlowPairing:
    def _doc(self, *flows):
        trace = ChromeTrace("p")
        tid = trace.track("t")
        trace.span(tid, 0, 1, "x", "c", {})
        trace.events.extend(flows)
        return trace.doc()

    @staticmethod
    def _flow(ph, flow_id, cat="c"):
        return {"ph": ph, "ts": 0, "pid": 1, "tid": 1, "name": "n",
                "cat": cat, "id": flow_id}

    def test_paired_flow_passes(self):
        validate_chrome_trace(self._doc(self._flow("s", 1), self._flow("f", 1)))

    @pytest.mark.parametrize("flows", [
        [("s", 1)],                                  # start without finish
        [("f", 1)],                                  # finish without start
        [("s", 1), ("f", 2)],                        # ids do not match
        [("s", 1), ("f", 1), ("f", 1)],              # two finishes
        [("s", 1), ("s", 1), ("f", 1)],              # two starts
    ])
    def test_orphan_flow_raises(self, flows):
        doc = self._doc(*(self._flow(ph, i) for ph, i in flows))
        with pytest.raises(ValueError, match="flow"):
            validate_chrome_trace(doc)

    def test_same_id_in_other_category_is_separate(self):
        doc = self._doc(self._flow("s", 1, "a"), self._flow("f", 1, "b"))
        with pytest.raises(ValueError, match="flow"):
            validate_chrome_trace(doc)

    def test_lineage_module_reexports_the_validator(self):
        assert lineage_validate is validate_chrome_trace


@pytest.mark.parametrize("doc", [
    lambda: chrome_trace_doc(
        lineage_tests.TestChromeTraceExport()._records()
    ),
    lambda: chrome_trace_doc(
        lineage_tests.TestStoryReconstruction()._hunt_records()
    ),
    lambda: epoch_trace_doc(_synthetic_records()),
    lambda: epoch_trace_doc(_synthetic_records(shards=3, epochs=1)),
    lambda: req_trace_doc(spans(n_seq=4)),
], ids=["lineage", "lineage-story", "epochs", "epochs-truncated", "reqtrace"])
def test_every_exporter_pairs_its_flows(doc):
    built = doc()
    validate_chrome_trace(built)
    assert any(e["ph"] == "s" for e in built["traceEvents"])
