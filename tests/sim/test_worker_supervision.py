"""Worker supervision: watchdogs, deterministic replay, incident records.

The contract under test (the robustness tentpole): a SIGKILLed or hung
shard/cloud worker is detected, replaced (respawn with journal replay, or
in-process after the retry budget), and the merged rows come out
**byte-identical** to an undisturbed run — worker chaos may only change
wall-clock and incident accounting. Every test that touches real worker
processes is guarded by a hard SIGALRM so a supervision bug can never
hang the suite.
"""

import re
import signal

import pytest

from repro.faults import WorkerFaultPlan
from repro.platforms import platform_config
from repro.serverless.gateway import CloudGateway
from repro.sim import shard, supervisor
from repro.sim.shard import run_sharded
from repro.sim.supervisor import (ProtocolError, SupervisedConnection,
                                  can_spawn_workers, resolve_worker_deadline,
                                  resolve_worker_retries)

from .test_shard_determinism import result_bytes, scenario_variant

N_DEVICES = 16
CELL_DEVICES = 4
WINDOW_S = 10.0  # 120 s mission -> ~13 pipe ops per worker
#: Chaos runs shrink the hang deadline so detection costs ~1 s, not 60.
DEADLINE_S = 1.0

needs_processes = pytest.mark.skipif(
    not can_spawn_workers(),
    reason="environment cannot spawn worker processes")


@pytest.fixture(autouse=True)
def hang_guard():
    """Hard 120 s wall-clock cap: a supervision regression must fail the
    test, never wedge the run (SIGALRM is process-wide; these tests do
    not run in parallel within one process)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError("supervision test exceeded 120s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(worker_faults, **overrides):
    options = dict(seed=0, shards=2, cell_devices=CELL_DEVICES,
                   window_s=WINDOW_S, worker_deadline_s=DEADLINE_S)
    options.update(overrides)
    return run_sharded(platform_config("hivemind"), scenario_variant("S1"),
                       N_DEVICES, worker_faults=worker_faults, **options)


@pytest.fixture(scope="module")
def undisturbed_bytes():
    """One fault-free twin shared by every recovery test (unarmed plan
    passed explicitly, so an inherited REPRO_CHAOS_WORKERS cannot arm
    it)."""
    return result_bytes(_run(WorkerFaultPlan()))


#: Two regions, so armed chaos runs two real cloud workers.
CLOUD_SHAPE = dict(cloud_shards=2, region_devices=8)

#: One worker of each kind: the shard runs use the default shape, the
#: cloud runs ``CLOUD_SHAPE``.
BOTH_KINDS = pytest.mark.parametrize("scope, worker",
                                     [("shard", 1), ("cloud", 0)])


def _shape(scope):
    return CLOUD_SHAPE if scope == "cloud" else {}


@pytest.fixture(scope="module")
def cloud_undisturbed_bytes():
    """The fault-free twin of the ``CLOUD_SHAPE`` runs."""
    return result_bytes(_run(WorkerFaultPlan(), **CLOUD_SHAPE))


@pytest.fixture
def twin_bytes(scope, undisturbed_bytes, cloud_undisturbed_bytes):
    return cloud_undisturbed_bytes if scope == "cloud" else undisturbed_bytes


@needs_processes
class TestKillRecovery:
    def test_sigkill_mid_advance_is_byte_identical(self, undisturbed_bytes):
        mark = supervisor.incident_count()
        result = _run(WorkerFaultPlan().kill("shard", 0, 2))
        assert result_bytes(result) == undisturbed_bytes
        incidents = supervisor.incidents_since(mark)
        assert len(incidents) == 1
        assert incidents[0].failure == "death"
        assert incidents[0].worker == "shard0"
        assert incidents[0].recovery in ("respawned", "in_process")

    def test_incidents_surface_in_extras(self):
        result = _run(WorkerFaultPlan().kill("shard", 1, 3))
        assert result.extras["worker_recoveries"] == 1
        [incident] = result.extras["worker_incidents"]
        assert incident["worker"] == "shard1"
        assert incident["failure"] == "death"

    def test_cloud_worker_kill_is_byte_identical(
            self, cloud_undisturbed_bytes):
        chaotic = _run(WorkerFaultPlan().kill("cloud", 0, 2), **CLOUD_SHAPE)
        assert result_bytes(chaotic) == cloud_undisturbed_bytes
        assert chaotic.extras["worker_recoveries"] == 1
        assert chaotic.extras["worker_incidents"][0]["worker"] == "cloud0"


@needs_processes
class TestHangRecovery:
    @BOTH_KINDS
    def test_hung_worker_is_detected_and_byte_identical(
            self, scope, worker, twin_bytes):
        mark = supervisor.incident_count()
        result = _run(WorkerFaultPlan().hang(scope, worker, 3),
                      **_shape(scope))
        assert result_bytes(result) == twin_bytes
        [incident] = supervisor.incidents_since(mark)
        assert incident.failure == "hang"
        assert incident.worker == f"{scope}{worker}"
        assert incident.recovery == "respawned"

    def test_slow_reply_within_deadline_is_not_an_incident(
            self, undisturbed_bytes):
        result = _run(WorkerFaultPlan().slow("shard", 0, 2, delay_s=0.2),
                      worker_deadline_s=5.0)
        assert result_bytes(result) == undisturbed_bytes
        assert "worker_incidents" not in result.extras


@needs_processes
class TestDegradationLadder:
    @BOTH_KINDS
    def test_zero_retries_degrades_to_in_process(self, scope, worker,
                                                 twin_bytes):
        result = _run(WorkerFaultPlan().kill(scope, worker, 2),
                      worker_retries=0, **_shape(scope))
        assert result_bytes(result) == twin_bytes
        [incident] = result.extras["worker_incidents"]
        assert incident["worker"] == f"{scope}{worker}"
        assert incident["failure"] == "death"
        assert incident["recovery"] == "in_process"
        assert incident["retries"] == 0


#: Pipelining tests run twelve windows of the 56 s mission.
PIPELINE_WINDOW_S = 5.0


@pytest.fixture
def command_log(monkeypatch):
    """Every supervised send as ``(worker, command, argument)`` and every
    monolithic cloud window as ``("cloud", "feed", n_calls)``, in the
    order the driver issued them."""
    log = []
    send, feed = SupervisedConnection.send, CloudGateway.feed

    def logged_send(self, command, argument):
        log.append((self.name, command, argument))
        return send(self, command, argument)

    def logged_feed(self, calls):
        log.append(("cloud", "feed", len(calls)))
        return feed(self, calls)

    monkeypatch.setattr(SupervisedConnection, "send", logged_send)
    monkeypatch.setattr(CloudGateway, "feed", logged_feed)
    return log


class TestPipelinedBarrier:
    """The driver sends advance(t + w) before it prices window t."""

    @needs_processes
    def test_kill_on_pipelined_advance_is_byte_identical(self,
                                                         command_log):
        twin = result_bytes(_run(WorkerFaultPlan(),
                                 window_s=PIPELINE_WINDOW_S))
        command_log.clear()
        result = _run(WorkerFaultPlan().kill("shard", 0, 2),
                      window_s=PIPELINE_WINDOW_S)
        assert result_bytes(result) == twin
        [incident] = result.extras["worker_incidents"]
        assert incident["worker"] == "shard0"
        assert incident["failure"] == "death"
        # The killed op is shard0's second advance, and it went out
        # before the cloud priced the first window.
        shard0 = [index for index, entry in enumerate(command_log)
                  if entry[0] == "shard0"]
        killed = shard0[1]
        assert command_log[killed] == ("shard0", "advance",
                                       2 * PIPELINE_WINDOW_S)
        first_feed = next(index for index, entry in enumerate(command_log)
                          if entry[:2] == ("cloud", "feed"))
        assert killed < first_feed

    @pytest.mark.parametrize("cloud_shards", [0, 1])
    def test_one_advance_per_barrier_window(self, command_log,
                                            monkeypatch, cloud_shards):
        # Unarmed shards collapse onto the usable cores; keep two.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        finished_by = []
        collect = shard._Shard.collect_advance

        def recording(handle, until):
            fresh, status = collect(handle, until)
            finished_by.append((until, set(status)))
            return fresh, status

        monkeypatch.setattr(shard._Shard, "collect_advance", recording)
        _run(WorkerFaultPlan(), window_s=PIPELINE_WINDOW_S,
             cloud_shards=cloud_shards)
        advances = {}
        for worker, command, argument in command_log:
            if command == "advance":
                advances.setdefault(worker, []).append(argument)
        assert sorted(advances) == ["shard0", "shard1"]
        barriers = advances["shard0"]
        assert advances["shard1"] == barriers
        assert barriers == [PIPELINE_WINDOW_S * k
                            for k in range(1, len(barriers) + 1)]
        # The last advance is the first barrier by which every cell has
        # finished: no advance is sent after it.
        done = {}
        for until, cells in finished_by:
            for cell in cells:
                done.setdefault(cell, until)
        assert len(done) == N_DEVICES // CELL_DEVICES
        assert max(done.values()) == barriers[-1]
        if cloud_shards == 0:
            feeds = [entry for entry in command_log if entry[0] == "cloud"]
            assert len(feeds) == len(barriers)


class TestEdgeHalfProtocol:
    def test_edge_half_count_mismatch_raises(self, monkeypatch):
        class DroppingCells(shard._LocalCells):
            """Ships one edge half too few for the first cell."""

            def request(self, command, argument):
                payload = super().request(command, argument)
                if command == "finish":
                    cell, result, halves = payload["results"][0]
                    payload["results"][0] = (cell, result, halves[:-1])
                return payload

        monkeypatch.setattr(shard, "_LocalCells", DroppingCells)
        with pytest.raises(ProtocolError) as info:
            _run(WorkerFaultPlan(), shards=1)
        found = re.search(r"cell 0: finish payload carries (\d+) edge "
                          r"halves for the (\d+) calls the driver was "
                          r"handed \(none for seq (\d+)\)", str(info.value))
        assert found, str(info.value)
        shipped, handed, seq = map(int, found.groups())
        assert handed == shipped + 1
        assert seq == shipped

    def test_call_lost_before_the_cloud_yields_no_row(self, monkeypatch):
        """A call the driver never received has an edge half but no
        driver copy: the run finishes without its row or completion."""
        baseline = _run(WorkerFaultPlan(), shards=1)
        collect = shard._Shard.collect_advance
        dropped = []

        def lossy(handle, until):
            fresh, status = collect(handle, until)
            if fresh and not dropped:
                dropped.append(fresh.pop())
            return fresh, status

        monkeypatch.setattr(shard._Shard, "collect_advance", lossy)
        result = _run(WorkerFaultPlan(), shards=1)
        assert dropped
        assert (result.extras["cloud_completions"]
                == baseline.extras["cloud_completions"] - 1)
        assert len(result.task_latencies) == len(baseline.task_latencies) - 1


class TestUnarmedPath:
    def test_unarmed_extras_carry_no_supervision_keys(self):
        result = _run(WorkerFaultPlan())
        assert "worker_incidents" not in result.extras
        assert "worker_recoveries" not in result.extras


class TestResolvers:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_DEADLINE", raising=False)
        monkeypatch.delenv("REPRO_WORKER_RETRIES", raising=False)

    def test_deadline_defaults_to_floor_over_window(self):
        assert resolve_worker_deadline(10.0) == 60.0
        assert resolve_worker_deadline(300.0) == 300.0

    def test_deadline_override_wins(self):
        assert resolve_worker_deadline(10.0, override=2.5) == 2.5

    def test_deadline_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_DEADLINE", "7.5")
        assert resolve_worker_deadline(300.0) == 7.5

    @pytest.mark.parametrize("configured", ["-1", "nan", "inf", "abc"])
    def test_bad_deadline_env_rejected(self, monkeypatch, configured):
        monkeypatch.setenv("REPRO_WORKER_DEADLINE", configured)
        with pytest.raises(ValueError, match="REPRO_WORKER_DEADLINE"):
            resolve_worker_deadline(10.0)

    @pytest.mark.parametrize("override", [0.0, -2.0, float("nan"),
                                          float("inf")])
    def test_bad_deadline_override_rejected(self, override):
        with pytest.raises(ValueError, match="worker deadline"):
            resolve_worker_deadline(10.0, override=override)

    def test_retries_env_var(self, monkeypatch):
        assert resolve_worker_retries() == 2
        assert resolve_worker_retries(override=5) == 5
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "1")
        assert resolve_worker_retries() == 1
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "0")
        assert resolve_worker_retries() == 0
        with pytest.raises(ValueError):
            resolve_worker_retries(override=-1)
        for configured in ("-1", "abc", "1.5"):
            monkeypatch.setenv("REPRO_WORKER_RETRIES", configured)
            with pytest.raises(ValueError, match="REPRO_WORKER_RETRIES"):
                resolve_worker_retries()


class _FakeProcess:
    """Just enough Process surface for SupervisedConnection teardown."""

    exitcode = None

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.alive = False

    def kill(self):
        self.alive = False


class _FakeConn:
    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def poll(self, timeout=None):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)

    def close(self):
        pass


def _supervised(replies):
    return SupervisedConnection(
        "fake0",
        spawn=lambda faults: (_FakeConn(replies), _FakeProcess()),
        commands=("advance",),
        fallback=lambda: None,
        deadline_s=1.0, retries=0)


class TestProtocolErrors:
    """The pipe protocol raises real exceptions, not ``assert``s — a
    wrong-kind reply must fail loudly even under ``python -O``."""

    def test_wrong_reply_kind_raises(self):
        sup = _supervised([("finish", None)])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="expected 'advance'"):
            sup.collect()

    def test_malformed_reply_raises(self):
        sup = _supervised(["not-a-tuple"])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="malformed"):
            sup.collect()

    def test_unknown_command_rejected(self):
        sup = _supervised([])
        with pytest.raises(ProtocolError, match="unknown command"):
            sup.send("explode", None)

    def test_send_while_outstanding_rejected(self):
        sup = _supervised([("advance", ([], {}))])
        sup.send("advance", 60.0)
        with pytest.raises(ProtocolError, match="outstanding"):
            sup.send("advance", 120.0)

    def test_collect_without_send_rejected(self):
        sup = _supervised([])
        with pytest.raises(ProtocolError, match="no outstanding"):
            sup.collect()


class TestBackendFaultParity:
    """Satellite: CouchDB/Kafka outage windows must arm *every* region,
    so rows stay identical at any (shards, cloud_shards) grouping."""

    def _plan(self):
        from repro.faults import FaultPlan
        return (FaultPlan(name="store-outage", seed=0)
                .couchdb_outage(10.0, 30.0)
                .kafka_outage(20.0, 30.0))

    def test_outage_rows_identical_across_groupings(self):
        shape = dict(region_devices=8, fault_plan=self._plan())
        one = _run(WorkerFaultPlan(), cloud_shards=1, **shape)
        two = _run(WorkerFaultPlan(), cloud_shards=2, **shape)
        assert result_bytes(one) == result_bytes(two)
        # Both regions armed: 2 regions x 2 outage kinds.
        assert one.extras["injected_backend_faults"] == 4
        assert two.extras["injected_backend_faults"] == 4

    def test_outages_actually_perturb_the_run(self):
        shape = dict(region_devices=8, cloud_shards=2)
        quiet = _run(WorkerFaultPlan(), **shape)
        stormy = _run(WorkerFaultPlan(), fault_plan=self._plan(), **shape)
        assert result_bytes(quiet) != result_bytes(stormy)
