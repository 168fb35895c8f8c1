"""WorkerSupervisor tests: heartbeat liveness, bounded-backoff recovery,
in-flight replay, and the nasty edges.

Three layers:

* pure state-machine tests against a fake clock (no processes, no marker);
* local-transport integration (marker ``cluster``): kill -> auto-respawn ->
  replay -> post-respawn traffic, a worker that dies *during* respawn, a
  heartbeat timeout racing a delivered result, parking when no worker is
  left, and give-up semantics (failed futures, never hung ones);
* socket integration (marker ``socket``): a remote worker reconnecting
  under a fresh worker id, with the rendezvous remap staying minimal.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerConfig,
    EngineCluster,
    SupervisorConfig,
    WorkerSupervisor,
    WorkerUnavailableError,
)
from repro.cluster.routing import route
from repro.core.config import SofaConfig
from repro.engine import AttentionRequest, SofaEngine
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=0.25)

FAST = SupervisorConfig(
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=5.0,
    backoff_initial_s=0.02,
    backoff_max_s=0.5,
)


def _make_requests(seed: int, n: int, cache_keys: bool = False):
    rng = make_rng(seed)
    return [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(32 if i % 2 else 48, 8)).astype(np.float64),
            q=rng.normal(size=(3, 8)),
            wk=rng.normal(size=(8, 8)),
            wv=rng.normal(size=(8, 8)),
            cache_key=f"seq-{i}" if cache_keys else None,
        )
        for i in range(n)
    ]


def _bit_identical(ref, got):
    return all(
        a.output.tobytes() == b.output.tobytes()
        and np.array_equal(a.selected, b.selected)
        for a, b in zip(ref, got)
    ) and len(ref) == len(got)


def _wait_for_recovery(cluster, before: int, timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats = cluster.stats
        if stats.n_respawns + stats.n_reconnects > before:
            return
        cluster.poll(0.05)
    stats = cluster.stats
    slots = [
        {"worker": h.worker_id, "alive": h.alive, "ready": h.ready,
         "recovered": h.recovered}
        for h in cluster._slots
    ]
    raise AssertionError(
        f"supervision never recovered the worker within {timeout_s} s: "
        f"slots={slots} n_respawns={stats.n_respawns} "
        f"n_worker_failures={stats.n_worker_failures}"
    )


# ---------------------------------------------------- pure state machine
def test_config_validation():
    with pytest.raises(ValueError, match="heartbeat_timeout_s"):
        SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=0.0)
    with pytest.raises(ValueError, match="max_attempts"):
        SupervisorConfig(max_attempts=-1)
    with pytest.raises(ValueError, match="backoff_initial_s"):
        SupervisorConfig(backoff_initial_s=0.0)
    with pytest.raises(ValueError, match="backoff_max_s"):
        SupervisorConfig(backoff_initial_s=1.0, backoff_max_s=0.5)
    with pytest.raises(ValueError, match="ready_timeout_s"):
        SupervisorConfig(ready_timeout_s=0.0)


def test_heartbeat_cycle_with_fake_clock():
    cfg = SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=3.0)
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    assert sup.ping_due(0, 0.5) is False
    assert sup.ping_due(0, 1.0) is True
    sup.note_ping(0, 1.0)
    assert sup.ping_due(0, 1.5) is False
    assert sup.ping_due(0, 2.5) is False  # one probe at a time while unanswered
    assert sup.timed_out(0, 4.0) is False  # ping age 3.0 not > 3.0
    assert sup.timed_out(0, 4.5) is True
    sup.note_seen(0, 4.0)  # a pong (or any message) cancels the verdict
    assert sup.timed_out(0, 4.5) is False
    assert sup.ping_due(0, 4.5) is True  # answered: the next probe may go


def test_idle_pump_gap_never_kills_a_healthy_worker():
    """No pings are sent while the caller is not pumping; when pumping
    resumes after a long gap, the timeout clock must start at the *new*
    ping - stale last_seen alone is not a verdict."""
    cfg = SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=3.0)
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    # 100s of idle app time with zero supervision traffic
    assert sup.timed_out(0, 100.0) is False  # nothing outstanding
    assert sup.ping_due(0, 100.0) is True
    sup.note_ping(0, 100.0)
    assert sup.timed_out(0, 100.0) is False  # fresh probe, fresh clock
    assert sup.timed_out(0, 102.9) is False
    assert sup.timed_out(0, 103.5) is True  # genuinely unanswered now


def test_any_message_counts_as_proof_of_life():
    cfg = SupervisorConfig(heartbeat_interval_s=1.0, heartbeat_timeout_s=2.0)
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    sup.note_ping(0, 1.0)
    sup.note_seen(0, 2.9)  # e.g. a result message, not a pong
    assert sup.timed_out(0, 4.0) is False  # no ping outstanding anymore


def test_backoff_doubles_and_caps_and_gives_up():
    cfg = SupervisorConfig(
        max_attempts=3, backoff_initial_s=1.0, backoff_max_s=3.0
    )
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    sup.note_down(0, 10.0)
    assert not sup.retry_due(0, 10.5)  # first retry waits backoff_initial
    assert sup.retry_due(0, 11.0)
    sup.note_recovery_started(0, 11.0)
    sup.note_down(0, 11.5)  # died during respawn: attempt 1 consumed
    assert not sup.retry_due(0, 12.0)
    assert sup.retry_due(0, 11.5 + 2.0)  # backoff doubled to 2s
    sup.note_recovery_started(0, 14.0)
    sup.note_start_failed(0, 14.0)  # attempt 2 consumed
    assert sup.retry_due(0, 14.0 + 3.0)  # capped at backoff_max, not 4s
    sup.note_recovery_started(0, 17.0)
    sup.note_down(0, 17.5)  # attempt 3 consumed: budget exhausted
    assert sup.abandoned_slots() == [0]
    assert not sup.retry_due(0, 1e9)
    assert not sup.can_recover()


def test_ready_resets_the_attempt_budget():
    cfg = SupervisorConfig(max_attempts=2, backoff_initial_s=1.0)
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    sup.note_down(0, 1.0)
    sup.note_recovery_started(0, 2.0)
    sup.note_down(0, 2.5)  # one failed attempt
    sup.note_recovery_started(0, 5.0)
    sup.note_ready(0, 5.5)  # success: budget back to full
    sup.note_down(0, 9.0)
    assert sup.can_recover()
    assert sup.retry_due(0, 10.0)  # backoff back at initial


def test_max_attempts_zero_disables_recovery():
    cfg = SupervisorConfig(max_attempts=0)
    sup = WorkerSupervisor(cfg, n_slots=2, now=0.0)
    sup.note_down(0, 1.0)
    assert not sup.can_recover()
    assert sup.abandoned_slots() == [0]


def test_heartbeats_disabled_never_time_out():
    cfg = SupervisorConfig(heartbeat_interval_s=0.0)
    sup = WorkerSupervisor(cfg, n_slots=1, now=0.0)
    assert not sup.ping_due(0, 1e9)
    assert not sup.timed_out(0, 1e9)


# ------------------------------------------------- rendezvous remap bound
def test_reconnect_with_fresh_id_remaps_minimally():
    """The satellite: a remote worker reconnecting under a *different*
    worker id keeps the remap minimal (rendezvous hashing): survivors
    never trade keys among themselves - a survivor's key either stays put
    or goes to the newcomer (its fair ~1/n share) - and the dead worker's
    keys spread over the new live set instead of triggering a full
    re-shard."""
    keys = [f"seq-{i}".encode() for i in range(300)]
    idle = dict.fromkeys(range(4), 0)
    before = {i: route(key, [0, 1, 2], idle) for i, key in enumerate(keys)}
    # worker 2 dies; its replacement reconnects as fresh id 3
    after = {i: route(key, [0, 1, 3], idle) for i, key in enumerate(keys)}
    survivor_keys = [i for i, owner in before.items() if owner in (0, 1)]
    moved = [i for i in survivor_keys if after[i] != before[i]]
    # no survivor<->survivor churn: every moved key went to the newcomer
    assert all(after[i] == 3 for i in moved)
    # and only the newcomer's fair share moved, not a full re-shard
    # (expected ~1/3; a modulo re-hash would move ~2/3 of survivor keys)
    assert len(moved) <= len(survivor_keys) // 2
    orphaned = [i for i, owner in before.items() if owner == 2]
    assert orphaned  # the sweep actually exercised the dead worker
    assert {after[i] for i in orphaned} <= {0, 1, 3}
    assert any(after[i] == 3 for i in orphaned)  # fresh id takes real load


# --------------------------------------------------- local integration
@pytest.mark.cluster
def test_killed_worker_respawns_and_serves_new_traffic():
    requests = _make_requests(5, 8)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=FAST
    ) as cluster:
        assert _bit_identical(ref, cluster.run(requests))
        cluster.crash_worker(0, hard=True)
        _wait_for_recovery(cluster, before=0)
        assert _bit_identical(ref, cluster.run(requests))
        stats = cluster.stats
        assert stats.n_respawns == 1
        assert stats.n_worker_failures == 1
        assert stats.n_errors == 0
        assert stats.live_workers == 2
        # both workers serve post-respawn traffic
        assert sum(1 for w in stats.workers if w.n_requests and w.alive) == 2


@pytest.mark.cluster
def test_inflight_replay_through_respawn():
    """Stall -> crash -> submit: the in-flight requests replay onto the
    survivor; the respawned worker then takes fresh traffic."""
    requests = _make_requests(6, 8)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=FAST
    ) as cluster:
        cluster.stall_worker(0, 0.3)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        cluster.flush()
        assert _bit_identical(ref, [f.result() for f in futures])
        stats = cluster.stats
        assert stats.n_rerouted >= 1
        assert stats.n_errors == 0
        _wait_for_recovery(cluster, before=0)
        assert _bit_identical(ref, cluster.run(requests))


@pytest.mark.cluster
def test_no_survivor_parks_and_replays_instead_of_failing():
    """With supervision, losing the *last* worker parks requests until the
    respawn, instead of failing them (the pre-supervision behaviour)."""
    requests = _make_requests(7, 3)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(
        n_workers=1, config=CFG, supervisor=FAST
    ) as cluster:
        cluster.stall_worker(0, 0.3)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        cluster.flush()  # blocks across the respawn, then replays
        assert _bit_identical(ref, [f.result() for f in futures])
        stats = cluster.stats
        assert stats.n_respawns == 1
        assert stats.n_errors == 0


def _pump_until(cluster, done, check, timeout_s: float = 30.0) -> None:
    """Poll until ``done()`` holds, running ``check`` after every poll."""
    deadline = time.monotonic() + timeout_s
    while not done():
        assert time.monotonic() < deadline, "cluster never reached the state"
        cluster.poll(0.02)
        check()


@pytest.mark.cluster
def test_in_flight_counts_track_records_through_every_step():
    """Routing and autoscale drains read each worker's in-flight count, so
    after every step - submit, stall, crash and re-route, park and replay,
    a drain - a live worker's count must equal the records routed to it,
    and every count must be 0 once flushed (a count that drifts up would
    keep a drained worker forever, one that drifts down would stop a
    worker still holding requests)."""
    requests = _make_requests(15, 6)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    quiet_scaler = AutoscalerConfig(
        min_workers=1, max_workers=2, hold_up_s=3600.0, hold_down_s=3600.0
    )
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=FAST, autoscaler=quiet_scaler
    ) as cluster:

        def check() -> None:
            for handle in cluster._slots:
                if handle.alive:
                    routed = sum(
                        rec.worker == handle.worker_id
                        for rec in cluster._inflight.values()
                    )
                    assert handle.in_flight == routed, handle.worker_id

        def flush_to_zero(futures) -> None:
            _pump_until(cluster, lambda: all(f.done() for f in futures), check)
            cluster.flush()
            handles = [*cluster._slots, *cluster._workers.values()]
            assert [h.in_flight for h in handles] == [0] * len(handles)
            assert _bit_identical(ref, [f.result() for f in futures])

        # submit
        futures = cluster.submit_many(requests)
        check()
        assert [h.in_flight for h in cluster._slots] == [3, 3]
        flush_to_zero(futures)

        # stall, crash, re-route: worker 0's share is in flight when it dies
        cluster.stall_worker(0, 0.5)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        check()
        flush_to_zero(futures)
        assert cluster.stats.n_rerouted >= 1
        _wait_for_recovery(cluster, before=0)

        # park and replay: both workers die holding requests
        _pump_until(cluster, lambda: len(cluster.live_workers) == 2, check)
        for worker_id in cluster.live_workers:
            cluster.stall_worker(worker_id, 5.0)
        futures = cluster.submit_many(requests)
        check()
        for worker_id in cluster.live_workers:
            cluster.crash_worker(worker_id, hard=True)
        cluster.poll(0.0)
        check()
        assert all(rec.worker is None for rec in cluster._inflight.values())
        assert len(cluster._inflight) == len(requests)
        flush_to_zero(futures)

        # autoscale drain: the victim holds requests, so it only stops
        # once they have resolved
        _pump_until(cluster, lambda: len(cluster.live_workers) == 2, check)
        for worker_id in cluster.live_workers:
            cluster.stall_worker(worker_id, 0.3)
        futures = cluster.submit_many(requests)
        cluster._scale_down(cluster.live_workers)
        check()
        (victim,) = [h for h in cluster._slots if h.draining]
        assert victim.in_flight == 3 and not victim.retired
        flush_to_zero(futures)
        _pump_until(cluster, lambda: victim.retired, check)
        assert cluster.stats.n_errors == 0


@pytest.mark.cluster
def test_worker_dying_during_respawn_consumes_attempt_then_recovers():
    """The respawned worker itself dies before reporting ready: the
    supervisor burns one backoff attempt and the next one succeeds."""
    requests = _make_requests(8, 4)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=FAST
    ) as cluster:
        cluster._transport.spawn_fault_budget = 1  # next spawn dies pre-ready
        cluster.crash_worker(0, hard=True)
        _wait_for_recovery(cluster, before=0)
        stats = cluster.stats
        assert stats.n_respawns == 1  # only the *successful* respawn counts
        assert stats.n_worker_failures >= 2  # crash + died-during-respawn
        assert cluster._transport.spawn_fault_budget == 0  # fault consumed
        assert _bit_identical(ref, cluster.run(requests))
        assert cluster.stats.n_errors == 0


@pytest.mark.cluster
def test_wedged_recovery_incarnation_times_out_and_retries():
    """A recovery incarnation whose link stays open but that never reports
    ready (wedged engine build / hung remote) must fail its attempt after
    ready_timeout_s so the slot keeps retrying instead of blocking
    forever."""
    requests = _make_requests(14, 4)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    sup_cfg = SupervisorConfig(
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=5.0,
        backoff_initial_s=0.02,
        backoff_max_s=0.5,
        ready_timeout_s=0.2,
    )
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=sup_cfg
    ) as cluster:
        cluster.crash_worker(0, hard=True)
        _wait_for_recovery(cluster, before=0)
        respawns_before = cluster.stats.n_respawns
        # Forge the wedge: make slot 0's current incarnation look like a
        # recovery that connected long ago and never reported ready.
        handle = cluster._slots[0]
        handle.ready = False
        handle.recovered = "respawn"
        handle.started_at = time.monotonic() - 100.0
        sup = cluster._supervisor
        sup.note_down(0, time.monotonic() - 100.0)
        sup.note_recovery_started(0, time.monotonic() - 100.0)
        # Supervision must kill the wedged incarnation, consume the
        # attempt, and bring up a working replacement.
        _wait_for_recovery(cluster, before=respawns_before)
        assert _bit_identical(ref, cluster.run(requests))
        stats = cluster.stats
        assert stats.n_respawns == respawns_before + 1
        assert stats.live_workers == 2
        assert stats.n_errors == 0


@pytest.mark.cluster
def test_give_up_fails_futures_instead_of_hanging():
    requests = _make_requests(9, 2)
    sup = SupervisorConfig(
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=5.0,
        max_attempts=2,
        backoff_initial_s=0.02,
        backoff_max_s=0.1,
    )
    with EngineCluster(n_workers=1, config=CFG, supervisor=sup) as cluster:
        cluster._transport.spawn_fault_budget = 10  # every respawn fails
        cluster.stall_worker(0, 0.2)
        cluster.crash_worker(0, hard=False, wait=False)
        futures = cluster.submit_many(requests)
        cluster.flush()  # must terminate: parked requests fail on give-up
        for future in futures:
            with pytest.raises(WorkerUnavailableError, match="exhausted"):
                future.result()
        stats = cluster.stats
        assert stats.n_respawns == 0
        assert stats.n_errors == len(requests)
        with pytest.raises(WorkerUnavailableError):
            cluster.submit(requests[0])


@pytest.mark.cluster
def test_result_delivery_beats_forced_heartbeat_timeout():
    """A result already shipped when the timeout verdict lands must be
    delivered (and prove the worker alive), not thrown away - the
    race the supervisor drains for before killing anything."""
    requests = _make_requests(10, 2)
    sup = SupervisorConfig(heartbeat_interval_s=30.0, heartbeat_timeout_s=30.0)
    with EngineCluster(n_workers=1, config=CFG, supervisor=sup) as cluster:
        future = cluster.submit(requests[0])
        time.sleep(1.0)  # worker finishes; result sits undelivered
        # White-box: forge "a ping went unanswered past the timeout"
        state = cluster._supervisor._slots[0]
        state.ping_outstanding = True
        state.last_ping = time.monotonic() - 60.0
        state.last_seen = time.monotonic() - 60.0
        cluster.poll(0.0)  # drains the racing result BEFORE the verdict
        assert future.done()
        assert future.result() is not None
        stats = cluster.stats
        assert stats.n_heartbeat_timeouts == 0  # delivery cancelled the verdict
        assert stats.n_errors == 0
        assert stats.live_workers == 1


@pytest.mark.cluster
def test_genuine_heartbeat_timeout_kills_reroutes_and_respawns():
    """A worker that is alive-but-silent (stalled) past the timeout is
    declared dead: its traffic re-routes, the slot respawns."""
    requests = _make_requests(11, 6)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    sup = SupervisorConfig(
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=0.4,
        backoff_initial_s=0.02,
        backoff_max_s=0.5,
    )
    with EngineCluster(
        n_workers=2, config=CFG, supervisor=sup
    ) as cluster:
        # Let a first heartbeat round establish pings, then wedge worker 0
        # far past the timeout and submit traffic to both workers.
        cluster.poll(0.1)
        cluster.stall_worker(0, 8.0)
        futures = cluster.submit_many(requests)
        cluster.flush()  # survivor absorbs the wedged worker's share
        assert _bit_identical(ref, [f.result() for f in futures])
        stats = cluster.stats
        assert stats.n_heartbeat_timeouts == 1
        assert stats.n_errors == 0
        assert stats.n_rerouted >= 1
        _wait_for_recovery(cluster, before=0)
        assert _bit_identical(ref, cluster.run(requests))


# --------------------------------------------------- socket integration
@pytest.mark.socket
def test_remote_worker_reconnects_under_fresh_id():
    """Remote (externally started) worker: severing the link kills only
    the session; supervision reconnects to the surviving process and
    registers it under a fresh worker id."""
    requests = _make_requests(12, 6, cache_keys=True)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    procs = []
    addrs = []
    try:
        for _ in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cluster.worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
            )
            procs.append(proc)
            line = proc.stdout.readline().decode().strip()
            addrs.append(line.split(" ", 1)[1])
        with EngineCluster(
            config=CFG,
            transport="socket",
            worker_addresses=addrs,
            supervisor=FAST,
        ) as cluster:
            assert _bit_identical(ref, cluster.run(requests))
            cluster.crash_worker(0, hard=True, wait=False)  # severs the link
            _wait_for_recovery(cluster, before=0)
            assert _bit_identical(ref, cluster.run(requests))
            stats = cluster.stats
            assert stats.n_reconnects == 1
            assert stats.n_respawns == 0
            assert stats.n_errors == 0
            ids = {w.worker_id for w in stats.workers}
            assert ids == {0, 1, 2}  # fresh id 2 for the reconnected slot
            alive = {w.worker_id for w in stats.workers if w.alive}
            assert alive == {1, 2}
            # the remote *process* survived its severed session
            assert procs[0].poll() is None
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


@pytest.mark.socket
def test_spawned_socket_worker_respawns_as_new_process():
    requests = _make_requests(13, 4)
    with SofaEngine(CFG) as engine:
        ref = engine.run(requests)
    with EngineCluster(
        n_workers=2, config=CFG, transport="socket", supervisor=FAST
    ) as cluster:
        assert _bit_identical(ref, cluster.run(requests))
        cluster.crash_worker(1, hard=True)
        _wait_for_recovery(cluster, before=0)
        assert _bit_identical(ref, cluster.run(requests))
        stats = cluster.stats
        assert stats.n_respawns == 1  # we own spawned workers: a respawn
        assert stats.live_workers == 2
        assert stats.n_errors == 0
