"""Fault discipline of the serving layer.

Overload and fault behaviour, pinned by test: a full ingress queue
sheds *probes* (counted, never silent) but always backpressures
feedback; a transport-stage fault in the one consumer is counted and
the event still applied; a core-level failure is counted and the
stream continues; and malformed trace lines are skipped with the same
torn-line discipline ``repro.obs.epochs`` applies to shard telemetry.
"""

import asyncio

import pytest

from repro.serve.core import RankingCore
from repro.serve.events import FeedbackEvent, ProbeEvent, decisions_digest
from repro.serve.service import RankingService, run_stream, serve_stream
from repro.serve.trace import load_trace
from repro.serve.workload import client_mac, synthetic_stream
from repro.wigle.queries import top_ssids_by_count


@pytest.fixture
def core(city, wigle):
    return RankingCore.seeded(
        wigle, city.heatmap, city.venues[0].region.center, seed=3
    )


def _probes(n, start=0.0):
    return [
        ProbeEvent(client_mac(i % 4), round(start + 0.1 * i, 6))
        for i in range(n)
    ]


class TestShedding:
    def test_queue_full_sheds_probes_and_counts(self, core):
        """Probes beyond the bound are dropped and show up in shed_total."""

        async def scenario():
            service = RankingService(core, queue_max=4, shed=True)
            accepted = []
            # Consumer not started yet: the queue fills and stays full.
            for event in _probes(10):
                accepted.append(await service.submit(event))
            await service.start()
            await service.drain()
            await service.stop()
            service.finish()
            return service, accepted

        service, accepted = asyncio.run(scenario())
        assert accepted == [True] * 4 + [False] * 6
        assert service.shed_total() == 6
        assert service.metrics.counter_value(
            "serve.shed_total", type="broadcast"
        ) == 6
        # Only the accepted events reached the core.
        assert core.events_handled == 4

    def test_feedback_backpressures_never_sheds(self, core):
        """Feedback waits for queue space instead of being dropped."""

        async def scenario():
            service = RankingService(core, queue_max=2, shed=True)
            for event in _probes(2):
                await service.submit(event)
            # Queue full: a probe would shed, feedback must block.
            fb = FeedbackEvent(client_mac(0), 9.0, "any-net")
            submit_task = asyncio.ensure_future(service.submit(fb))
            await asyncio.sleep(0.01)
            assert not submit_task.done(), "feedback must backpressure"
            await service.start()
            assert await submit_task is True
            await service.drain()
            await service.stop()
            service.finish()
            return service

        service = asyncio.run(scenario())
        assert service.shed_total() == 0
        assert (
            service.metrics.counter_value(
                "serve.events_total", type="feedback"
            )
            == 1
        )


class TestConsumerFaults:
    def test_transport_fault_still_applies_the_event(self, core, city, wigle):
        """A transport-stage fault is counted and the event still applied.

        The decision stream must equal the fault-free run's: the fault
        happens before the core saw the event, so the consumer applies
        it anyway and nothing — especially feedback — is lost.
        """
        # Feedback names WiGLE-head SSIDs, so dropping any one of them
        # would move the digest.
        pool = [ssid for ssid, _ in top_ssids_by_count(wigle, 8)]
        events = synthetic_stream(
            4, 60, seed=5, ssid_pool=pool,
            direct_share=0.2, feedback_share=0.2,
        )
        reference = run_stream(
            RankingCore.seeded(
                wigle, city.heatmap, city.venues[0].region.center, seed=3
            ),
            events,
        )

        faulted = []

        def fault_hook(event):
            # Fault exactly once, on the first feedback event seen.
            if not faulted and isinstance(event, FeedbackEvent):
                faulted.append(event)
                raise RuntimeError("injected transport fault")

        service = RankingService(core, fault_hook=fault_hook)
        asyncio.run(serve_stream(service, events))
        assert faulted, "fault hook never fired"
        assert service.metrics.counter_value("serve.consumer_faults") == 1
        assert service.metrics.counter_value("serve.events_failed") == 0
        assert decisions_digest(service.decisions) == decisions_digest(
            reference.decisions
        )
        # All events were applied despite the fault: state is intact.
        assert core.events_handled == len(events)

    def test_core_fault_counted_and_stream_continues(self, core):
        """A core-level failure loses one event, never the stream."""
        events = _probes(20)
        poisoned = events[7]
        original_handle = core.handle

        def flaky_handle(event):
            if event is poisoned:
                raise RuntimeError("injected core fault")
            return original_handle(event)

        core.handle = flaky_handle
        service = RankingService(core)
        asyncio.run(serve_stream(service, events))
        assert service.metrics.counter_value("serve.events_failed") == 1
        assert service.metrics.counter_value("serve.consumer_faults") == 1
        # The other 19 events were all committed, in order.
        assert core.events_handled == len(events) - 1
        assert len(service.decisions) == len(events) - 1


class TestSingleConsumer:
    def test_one_consumer_task_whatever_repro_workers_says(
        self, core, monkeypatch
    ):
        """start() spawns exactly one task; the executor's REPRO_WORKERS
        knob is not the service's."""

        async def tasks_after_start():
            service = RankingService(core)
            before = asyncio.all_tasks()
            await service.start()
            spawned = asyncio.all_tasks() - before
            await service.start()  # idempotent
            again = asyncio.all_tasks() - before
            await service.stop()
            return len(spawned), len(again)

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert asyncio.run(tasks_after_start()) == (1, 1)
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert asyncio.run(tasks_after_start()) == (1, 1)


class TestMalformedTraces:
    def test_torn_lines_skipped_not_fatal(self, core, tmp_path):
        """Garbage lines are counted and skipped, parse never raises."""
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ts": 1.0, "mac": "02:00:00:00:00:01", "ssid": ""}\n'
            '{"ts": 2.0, "mac": "02:00:00:00:00:01", "ssi\n'  # torn write
            "not json at all\n"
            '{"ts": "three", "mac": "02:00:00:00:00:01", "ssid": ""}\n'
            '{"ts": 4.0, "ssid": "x", "type": "probe-req"}\n'  # no MAC
            '{"ts": 5.0, "mac": "02:00:00:00:00:02", "type": "assoc"}\n'
            '{"ts": 6.0, "mac": "02:00:00:00:00:02", "ssid": ""}\n'
        )
        events, stats = load_trace(path)
        assert stats.lines == 7
        assert stats.parsed == len(events) == 2
        assert stats.skipped == 5
        assert [line for line, _ in stats.reasons] == [2, 3, 4, 5, 6]
        # The surviving events still serve.
        service = run_stream(core, events)
        assert len(service.decisions) == 2
