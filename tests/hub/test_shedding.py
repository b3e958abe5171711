"""Observability-driven load shedding at hub admission: the typed
denial, the pre-mutation guarantee, the denial-mix label, and the
shed-exempt instrument ops."""

import time

import pytest

from repro.errors import ServerOverloadedError
from repro.hub import RepositoryHub
from repro.obs.slo import SLOConfig
from repro.remote.client import Remote
from repro.remote.protocol import OPS
from repro.storage import sha256_hex


def shed_happy_slo(**overrides):
    """An SLO a single hand-fed breach trips: one sample re-arms it."""
    settings = dict(
        objectives={"put_chunks": 0.001},
        window_seconds=1.0,
        tick_seconds=0.05,
        min_samples=1,
        retry_after_seconds=2.5,
    )
    settings.update(overrides)
    return SLOConfig(**settings)


def breach_put_chunks(hub, ops=("put_chunks",)):
    """Feed slow observations of ``ops`` straight into the hub registry
    (the same family the hosted servers populate), then outwait a tick
    so the monitor's next window sees them."""
    family = hub.registry.histogram(
        "repro_request_seconds",
        "End-to-end request handling latency",
        ("op", "tenant", "repo"),
    )
    for op in ops:
        child = family.labels(op=op, tenant="ana", repo="proj")
        for _ in range(5):
            child.observe(0.5)
    time.sleep(2 * hub.health.slo.tick_seconds)


@pytest.fixture
def shedding_hub():
    hub = RepositoryHub(slo=shed_happy_slo())
    hub.add_tenant("ana", tokens=["tok"])
    hub.create_repo("ana", "proj")
    return hub


def remote_for(hub, retries=0, backoff=None):
    return Remote(
        repo=None,
        transport=hub.local_transport("ana", "proj", "tok"),
        overload_retries=retries,
        backoff=backoff,
    )


class TestShedDenial:
    def test_shed_is_typed_counted_and_never_mutates(self, shedding_hub):
        hub = shedding_hub
        breach_put_chunks(hub)
        blob = b"shed me" * 64
        digest = sha256_hex(blob)
        remote = remote_for(hub)
        with pytest.raises(ServerOverloadedError) as caught:
            remote._call({"op": "put_chunks", "digests": [digest]}, [blob])
        # The typed error carries the configured backoff hint verbatim.
        assert caught.value.retry_after == 2.5
        # Shed before any repository state was touched: the chunk never
        # landed, and the denial is attributed in the admission mix.
        meta, _ = remote._call({"op": "missing_chunks", "digests": [digest]})
        assert meta["missing"] == [digest]
        assert hub.registry.value(
            "repro_admission_denied_total", tenant="ana", reason="overload"
        ) == 1
        assert hub.health.health()["shedding"]["total"] == 1

    def test_instrument_ops_answer_during_overload(self, shedding_hub):
        """health/stats/trace must work while writes are being shed —
        they are the instruments that explain the overload."""
        hub = shedding_hub
        breach_put_chunks(hub)
        remote = remote_for(hub)
        with pytest.raises(ServerOverloadedError):
            remote._call({"op": "put_chunks", "digests": []}, [])
        report = remote.health()
        assert report["alive"] is True
        assert report["shedding"]["active"] is True
        assert report["shedding"]["by_op"] == {"put_chunks": 1}
        stats = remote.stats()
        assert stats["health"]["ready"] is False
        assert "overload shedding active" in stats["health"]["reasons"]

    def test_shed_exempt_ops_never_reach_the_shedder(self):
        """The op table's shed-exempt ops pass admission even with their
        own objectives breached: the hub never asks the monitor."""
        exempt = [op for op, spec in OPS.items() if spec.shed_exempt]
        assert sorted(exempt) == ["health", "stats", "trace"]
        hub = RepositoryHub(
            slo=shed_happy_slo(objectives={op: 0.001 for op in exempt})
        )
        hub.add_tenant("ana", tokens=["tok"])
        hub.create_repo("ana", "proj")
        breach_put_chunks(hub, ops=exempt)
        decide = hub.health.shed_decision
        asked = []
        hub.health.shed_decision = lambda op: asked.append(op) or decide(op)
        remote = remote_for(hub)
        for op in exempt:
            meta, _ = remote._call({"op": op})
            assert op in meta
        assert asked == []
        # The monitor itself would shed them: the exemption is the hub's.
        assert all(decide(op) is not None for op in exempt)

    def test_shedding_disabled_admits_breaching_writes(self):
        hub = RepositoryHub(slo=shed_happy_slo(shed_enabled=False))
        hub.add_tenant("ana", tokens=["tok"])
        hub.create_repo("ana", "proj")
        breach_put_chunks(hub)
        blob = b"admitted" * 64
        digest = sha256_hex(blob)
        meta, _ = remote_for(hub)._call(
            {"op": "put_chunks", "digests": [digest]}, [blob]
        )
        assert meta["new_chunks"] == 1
        # Readiness still reports (shedding off is a policy choice, not
        # blindness) but nothing was denied.
        assert hub.registry.value(
            "repro_admission_denied_total", tenant="ana", reason="overload"
        ) == 0

    def test_client_retries_with_backoff_then_propagates(self, shedding_hub):
        hub = shedding_hub
        breach_put_chunks(hub)
        delays = []
        remote = remote_for(hub, retries=2, backoff=delays.append)
        blob = b"retry me" * 64
        with pytest.raises(ServerOverloadedError):
            remote._call(
                {"op": "put_chunks", "digests": [sha256_hex(blob)]}, [blob]
            )
        # One jittered delay per retry, scaled off the server's hint:
        # attempt N waits in [0.5, 1.5) * retry_after * 2^N.
        assert len(delays) == 2
        assert 0.5 * 2.5 <= delays[0] < 1.5 * 2.5
        assert 0.5 * 5.0 <= delays[1] < 1.5 * 5.0
