"""Tests for the sharded local-queue campaign executor."""

import json
import os
import re
import signal
import threading
import time

import pytest

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.campaign.queue import (WorkQueue, WorkUnit, default_shard_size,
                                  shard_points)
from repro.campaign.store import RECORDS_FILE, SPEC_FILE
from repro.campaign.runner import register_point_kind
from repro.campaign.seeding import point_generator
from repro.errors import ConfigurationError


def _queue_draw_point(params, rng):
    return {"draw": float(rng.integers(0, 1 << 30))}


def _die_once_point(params, rng):
    """Kill the whole worker process on the first visit to ``die_at``.

    ``os._exit`` bypasses every finally/atexit, simulating an OOM kill
    mid-unit; the flag file makes the requeued retry succeed.
    """
    x = int(params["x"])
    if x == int(params.get("die_at", -1)):
        flag = os.path.join(params["flag_dir"], f"died-{x}")
        if not os.path.exists(flag):
            if os.path.isdir(params["flag_dir"]):
                open(flag, "w").close()
            # A missing flag dir means the flag can never be laid down,
            # so the point kills every worker that ever visits it.
            os._exit(13)
    return {"draw": float(rng.integers(0, 1 << 30))}


def _stream_or_kill_point(params, rng):
    """Stream quick records; SIGKILL the worker on the first visit to
    ``kill_at`` (the flag file holds the kill's wall time)."""
    x = int(params["x"])
    if x == int(params["kill_at"]):
        flag = os.path.join(params["flag_dir"], "killed")
        if not os.path.exists(flag):
            with open(flag, "w") as fh:
                fh.write(repr(time.time()))
            os.kill(os.getpid(), signal.SIGKILL)
    else:
        time.sleep(float(params["sleep_s"]))
    return {"t": time.time(), "pid": float(os.getpid())}


def _hang_point(params, rng):
    """Hang far past any test timeout when ``x`` is listed in ``hang``.

    With ``counter_dir`` set, a listed point raises on its first call
    (counted on disk) and hangs only on the retry.
    """
    x = int(params["x"])
    if x in params.get("hang", ()):
        if "counter_dir" in params:
            path = os.path.join(params["counter_dir"], f"{x}.count")
            if not os.path.exists(path):
                open(path, "w").close()
                raise RuntimeError(f"first attempt of x={x} fails fast")
        time.sleep(60.0)
    return {"draw": float(rng.integers(0, 1 << 30))}


def _pid_alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


register_point_kind("test-queue-draw", _queue_draw_point, code_version="1")
register_point_kind("test-queue-hang", _hang_point, code_version="1")
register_point_kind("test-die-once", _die_once_point, code_version="1")
register_point_kind("test-stream-kill", _stream_or_kill_point,
                    code_version="1")


def draw_spec(n=8, **overrides):
    fields = dict(name="qdraw", kind="test-queue-draw",
                  factors={"x": list(range(n))}, base_seed=17)
    fields.update(overrides)
    return CampaignSpec(**fields)


def jobs(n):
    return [(f"k{i}", i, {"x": i}) for i in range(n)]


class TestSharding:
    def test_default_shard_size_targets_four_units_per_worker(self):
        assert default_shard_size(64, 4) == 4  # 16 units for 4 workers
        assert default_shard_size(3, 8) == 1
        assert default_shard_size(100, 1) == 25
        assert default_shard_size(0, 2) == 1

    def test_shard_points_preserves_grid_order(self):
        units = shard_points(jobs(7), 3)
        assert [u.unit_id for u in units] == [0, 1, 2]
        assert [len(u.jobs) for u in units] == [3, 3, 1]
        flat = [job for u in units for job in u.jobs]
        assert flat == jobs(7)

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            shard_points(jobs(4), 0)


class TestWorkQueue:
    def test_lease_record_ack_lifecycle(self):
        wq = WorkQueue(shard_points(jobs(4), 2))
        assert wq.depth == 2 and not wq.done()
        wq.lease(0, pid=101)
        wq.lease(1, pid=102)
        assert wq.depth == 0
        for key, _, _ in jobs(4):
            wq.record(0 if key in ("k0", "k1") else 1, key)
        wq.ack(0, pid=101)
        wq.ack(1, pid=102)
        assert wq.done()
        assert (wq.n_leases, wq.n_acks, wq.n_requeued) == (2, 2, 0)

    def test_stale_ack_from_dead_pid_is_ignored(self):
        """A dead worker's last flushed ack must not release the lease
        the requeued unit's *new* owner holds."""
        wq = WorkQueue(shard_points(jobs(2), 2))
        wq.lease(0, pid=101)
        wq.requeue_for(101)  # 101 died; unit 0 is pending again
        wq.lease(0, pid=102)
        wq.ack(0, pid=101)  # stale: arrives after the requeue
        assert not wq.done()
        assert wq.held_by(102) == 1
        wq.record(0, "k0")
        wq.record(0, "k1")
        wq.ack(0, pid=102)
        assert wq.done()

    def test_requeue_keeps_id_and_unfinished_jobs_only(self):
        wq = WorkQueue(shard_points(jobs(4), 4))
        wq.lease(0, pid=101)
        wq.record(0, "k0")
        wq.record(0, "k2")
        reclaimed = wq.requeue_for(101)
        assert len(reclaimed) == 1
        assert reclaimed[0].unit_id == 0
        assert [job[0] for job in reclaimed[0].jobs] == ["k1", "k3"]
        assert wq.n_requeued == 1
        assert not wq.done()  # the reclaimed unit is pending again

    def test_fully_reported_unit_retires_on_death(self):
        """A worker that dies after its last record but before the ack
        loses nothing: the unit retires as acked, not requeued."""
        wq = WorkQueue(shard_points(jobs(2), 2))
        wq.lease(0, pid=101)
        wq.record(0, "k0")
        wq.record(0, "k1")
        assert wq.requeue_for(101) == []
        assert wq.n_acks == 1 and wq.n_requeued == 0

    def test_requeue_ignores_other_pids(self):
        wq = WorkQueue(shard_points(jobs(2), 1))
        wq.lease(0, pid=101)
        wq.lease(1, pid=102)
        assert wq.requeue_for(999) == []
        assert wq.n_requeued == 0


class TestLocalQueueBackend:
    def test_bit_identical_to_serial(self, tmp_path):
        spec = draw_spec()
        serial = run_campaign(spec, store=ResultsStore(tmp_path / "a"))
        queued = run_campaign(spec, workers=2,
                              store=ResultsStore(tmp_path / "b"))
        assert serial.metrics_by_index() == queued.metrics_by_index()
        # Queue points really ran out of process.
        assert os.getpid() not in {r["worker"] for r in queued.records}

    def test_queue_stats_surface_in_extras(self, tmp_path):
        result = run_campaign(draw_spec(), workers=2, shard_size=2,
                              store=ResultsStore(tmp_path))
        stats = result.extras["queue"]
        assert stats["n_units"] == 4  # 8 points / shard_size 2
        assert stats["shard_size"] == 2
        assert stats["n_leases"] == stats["n_acks"] == 4
        assert stats["n_requeued"] == 0
        assert stats["n_lost"] == 0

    def test_single_worker_queue_still_completes(self, tmp_path):
        # A timeout is what sends a one-worker run through the queue.
        result = run_campaign(draw_spec(n=3), workers=1, timeout_s=60.0,
                              store=ResultsStore(tmp_path))
        assert result.n_executed == 3
        assert all(r["outcome"] == "ok" for r in result.records)
        assert result.extras["queue"]["n_timeouts"] == 0


class TestWorkerDeath:
    def test_dead_worker_requeues_and_respawns(self, tmp_path):
        """A worker OOM-killed mid-unit forfeits its lease; the unit's
        unfinished points re-run on a replacement, and the finished
        grid is still bit-identical to an undisturbed run."""
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        spec = CampaignSpec(
            name="mortal", kind="test-die-once",
            factors={"x": list(range(8))},
            fixed={"die_at": 3, "flag_dir": str(flag_dir)},
            base_seed=23,
        )
        result = run_campaign(spec, workers=2, shard_size=2,
                              store=ResultsStore(tmp_path / "r"))
        assert all(r["outcome"] == "ok" for r in result.records)
        stats = result.extras["queue"]
        assert stats["n_requeued"] >= 1
        assert stats["n_respawns"] >= 1
        assert stats["n_lost"] == 0
        # The re-run point drew from its usual per-point substream.
        by_x = {r["params"]["x"]: r for r in result.records}
        expected = float(point_generator(23, by_x[3]["index"])
                         .integers(0, 1 << 30))
        assert by_x[3]["metrics"]["draw"] == expected

    def test_killed_worker_reaped_while_survivors_stream(self, tmp_path):
        """Liveness is checked on a clock: a survivor streaming records
        faster than the reap interval (and no heartbeat at all, as there
        is no store) must not delay the dead worker's requeue until the
        stream dries up."""
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        spec = CampaignSpec(
            name="streaming", kind="test-stream-kill",
            factors={"x": list(range(60))},
            fixed={"kill_at": 1, "flag_dir": str(flag_dir),
                   "sleep_s": 0.05},
            base_seed=31,
        )
        result = run_campaign(spec, workers=2, shard_size=2)
        assert all(r["outcome"] == "ok" for r in result.records)
        stats = result.extras["queue"]
        assert stats["n_requeued"] >= 1 and stats["n_respawns"] >= 1
        t_kill = float((flag_dir / "killed").read_text())
        # The replacement is the worker whose first record came last.
        first_by_pid = {}
        for r in sorted(result.records, key=lambda r: r["metrics"]["t"]):
            first_by_pid.setdefault(r["metrics"]["pid"], r["metrics"]["t"])
        replacement = max(first_by_pid, key=first_by_pid.get)
        t_replacement = first_by_pid[replacement]
        survivor_last = max(r["metrics"]["t"] for r in result.records
                            if r["metrics"]["pid"] != replacement)
        assert t_replacement - t_kill < 5.0
        assert t_replacement < survivor_last

    def test_all_workers_dead_synthesizes_failures(self, tmp_path):
        """When every worker (and replacement) dies on the same point,
        the sweep still returns a complete record set: the undeliverable
        points come back as structured failures, not holes."""
        flag_dir = tmp_path / "flags"  # never created: dies every time
        spec = CampaignSpec(
            name="doomed", kind="test-die-once",
            factors={"x": [0, 1]},
            fixed={"die_at": 1, "flag_dir": str(flag_dir)},
            base_seed=29,
        )
        result = run_campaign(spec, workers=2, shard_size=1,
                              store=ResultsStore(tmp_path / "r"))
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "ok"
        assert by_x[1]["outcome"] == "error"
        assert "work unit lost" in by_x[1]["error"]
        assert result.extras["queue"]["n_lost"] == 1


def hang_spec(n, hang, **overrides):
    fields = dict(name="hangs", kind="test-queue-hang",
                  factors={"x": list(range(n))}, fixed={"hang": list(hang)},
                  base_seed=19, timeout_s=0.3)
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestTimeoutKill:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_nothing_runs_a_timed_out_point(self, workers):
        """Once a ``timeout`` record lands, the worker that ran the
        point is dead and the coordinator holds no thread still
        executing it."""
        landed = []

        def echo(msg):
            match = re.search(r"\] timeout in .*\(worker (\d+)\)", msg)
            if match:
                pid = int(match.group(1))
                landed.append((pid, _pid_alive(pid),
                               {t.name for t in threading.enumerate()}))

        result = run_campaign(hang_spec(4, [1]), workers=workers,
                              echo=echo)
        assert [r["outcome"] for r in result.records] == [
            "ok", "timeout", "ok", "ok"]
        assert len(landed) == 1
        pid, alive, threads = landed[0]
        assert pid == result.records[1]["worker"] != os.getpid()
        assert not alive, "the timed-out point's worker is still running"
        assert "campaign-point" not in threads

    def test_timeout_kills_do_not_spend_the_respawn_budget(self):
        """Three hung points at workers=1: each kill is replaced even
        though the crash budget (one respawn per worker) is smaller."""
        result = run_campaign(hang_spec(6, [0, 2, 5]), workers=1)
        by_x = {r["params"]["x"]: r for r in result.records}
        assert {x: r["outcome"] for x, r in by_x.items()} == {
            0: "timeout", 1: "ok", 2: "timeout", 3: "ok", 4: "ok",
            5: "timeout"}
        for x in (0, 2, 5):
            assert by_x[x]["error_type"] == "TimeoutError"
            assert by_x[x]["attempts"] == 1
        assert not [r for r in result.records
                    if "work unit lost" in (r["error"] or "")]
        stats = result.extras["queue"]
        assert stats["n_timeouts"] == 3
        assert stats["n_respawns"] == 0
        assert stats["n_lost"] == 0
        # Points after a kill drew from their usual substreams.
        for x in (1, 3, 4):
            expected = float(point_generator(19, by_x[x]["index"])
                             .integers(0, 1 << 30))
            assert by_x[x]["metrics"]["draw"] == expected

    def test_attempts_count_the_attempt_that_hung(self, tmp_path):
        spec = hang_spec(2, [1], retries=2,
                         fixed={"hang": [1], "counter_dir": str(tmp_path)})
        result = run_campaign(spec, workers=1)
        hung = result.records[1]
        assert hung["outcome"] == "timeout"
        assert hung["attempts"] == 2  # one fast failure, then the hang
        assert hung["wall_time_s"] >= 0.3


class TestLegacyBackendField:
    """``CampaignSpec.backend`` selects nothing but still loads."""

    def test_stored_pool_spec_resumes(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        store = ResultsStore(tmp_path)
        run_campaign(draw_spec(n=6, name="legacy", backend="pool"),
                     store=store)
        cdir = store.campaign_dir("legacy")
        with open(os.path.join(cdir, SPEC_FILE)) as fh:
            assert json.load(fh)["backend"] == "pool"
        path = os.path.join(cdir, RECORDS_FILE)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.writelines(lines[:3])

        assert main(["campaign", "resume", "legacy", "--workers", "2",
                     "--results", str(tmp_path)]) == 0
        assert store.count("legacy") == 6
        assert store.load_spec("legacy").backend == "pool"

    def test_local_queue_value_still_constructs(self):
        assert draw_spec(backend="local-queue").backend == "local-queue"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_spec(backend="slurm")
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(dict(draw_spec().to_dict(),
                                        backend="slurm"))
