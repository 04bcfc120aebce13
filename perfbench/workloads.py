"""The four benchmark workloads: inputs, timed operations and checks.

Every workload is deterministic in its seed. ``setup(seeds)`` does what
a user pays for once (imports, construction, cache warm-up, the PER
surface build) and ``op(state, seed)`` runs one timed operation on the
inputs of one seed, returning an :class:`OpResult`. ``child.py`` runs
both in a child process of ``run.py``, so that a wedged campaign queue
can be killed.
"""

import hashlib
import json
import re
import resource
import shutil
import time
from dataclasses import dataclass, field

#: Payload size of every waveform packet, as in the paper's headline
#: rate claims (C4, C5/C7) and their extension in E25.
PAYLOAD_BYTES = 1000


@dataclass
class OpResult:
    """What one timed operation did and whether its outputs held up."""

    seed: int
    units: int  # workload units completed: packets, grid points, samples
    wall_s: float
    digest: str
    cpu_s: float  # CPU time of the process and its reaped workers
    attempted: int
    failed: int = 0
    packets: int = 0  # Monte-Carlo link packets simulated
    analytic: int = 0  # cells settled by the union bound, no packets sent
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    traced: bool = False  # None: lost when an overrunning run was killed
    layers: dict = None  # LayerTimer stats of a traced operation


def cpu_seconds():
    """CPU seconds used so far by this process and its reaped children.

    The guest kernel leaves out time the host took the vCPU away (steal
    time), so this counts the program's work, not the host's load.
    """
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def digest(obj):
    """Stable hash of a JSON-serialisable result summary."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_link_counts(where, per, ber, n_packets, n_packet_errors,
                      n_bit_errors, bits_per_packet):
    """Problems with one link measurement's rates and counts."""
    problems = []
    if not (0.0 <= per <= 1.0 and 0.0 <= ber <= 1.0):
        problems.append(f"{where}: PER {per} or BER {ber} outside [0, 1]")
    if not 0 <= n_packet_errors <= n_packets:
        problems.append(f"{where}: {n_packet_errors} packet errors in "
                        f"{n_packets} packets")
    # Every lost packet has at least one bit error and at most all of
    # its bits wrong; a packet with no bit errors is not lost.
    if not (n_packet_errors <= n_bit_errors
            <= n_packet_errors * bits_per_packet):
        problems.append(f"{where}: {n_bit_errors} bit errors do not fit "
                        f"{n_packet_errors} lost packets")
    if n_packets and abs(per - n_packet_errors / n_packets) > 1e-12:
        problems.append(f"{where}: PER {per} != errors / packets")
    return problems


# -- waveform waterfalls -------------------------------------------------

#: Two SNRs (dB) per legacy OFDM rate and channel, below and on the
#: knee of its 1000-byte PER curve: (awgn, flat rayleigh).
OFDM_KNEES = {
    6: ([2.0, 3.0], [9.0, 13.0]),
    9: ([3.5, 4.5], [11.0, 15.0]),
    12: ([5.0, 6.0], [12.0, 16.0]),
    18: ([7.0, 8.0], [15.0, 19.0]),
    24: ([10.0, 11.0], [18.0, 22.0]),
    36: ([13.0, 14.0], [21.0, 25.0]),
    48: ([17.0, 18.0], [25.0, 29.0]),
    54: ([19.0, 20.0], [27.0, 31.0]),
}


class Waterfall:
    """``LinkSimulator.waterfall`` over a list of (phy, channel, SNRs).

    One operation sweeps every configuration with a fixed packet budget
    per cell and no analytic floor, so each cell is pure Monte Carlo.
    """

    def __init__(self, configs, n_packets):
        self.configs = configs
        self.n_packets = n_packets
        self.attempts_per_op = sum(len(snrs) for _, _, snrs in configs)

    def setup(self, seeds):
        """Construct every simulator; warm each PHY on one packet."""
        from repro.core.link import LinkSimulator

        warmed = set()
        for phy, channel, snrs in self.configs:
            sim = LinkSimulator(phy, channel, rng=seeds[0])
            if phy not in warmed:
                sim.run(snrs[0], 1, PAYLOAD_BYTES)
                warmed.add(phy)
        return None

    def op(self, state, seed):
        """One sweep over every configuration at ``seed``."""
        import numpy as np

        from repro.core.link import LinkSimulator

        cells, problems = [], []
        failed = 0
        bits = 8 * PAYLOAD_BYTES
        c0, t0 = cpu_seconds(), time.perf_counter()
        for i, (phy, channel, snrs) in enumerate(self.configs):
            sim = LinkSimulator(phy, channel,
                                rng=np.random.default_rng([seed, i]))
            try:
                results = sim.waterfall(snrs, self.n_packets, PAYLOAD_BYTES)
            except Exception as exc:  # counted as failed cells, run goes on
                failed += len(snrs)
                problems.append(f"{phy}/{channel}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            cells.extend(results)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0

        summary = []
        for r in cells:
            where = f"{r.phy}/{r.channel}@{r.snr_db:g}dB"
            if r.analytic or r.n_packets != self.n_packets:
                problems.append(f"{where}: sent {r.n_packets} packets, "
                                f"budget {self.n_packets}")
            if r.n_bits != bits * r.n_packets:
                problems.append(f"{where}: {r.n_bits} bits for "
                                f"{r.n_packets} packets")
            problems += check_link_counts(where, r.per, r.ber, r.n_packets,
                                          r.n_packet_errors, r.n_bit_errors,
                                          bits)
            summary.append([r.phy, r.channel, r.snr_db, r.n_packets,
                            r.n_packet_errors, r.n_bit_errors])
        packets = sum(r.n_packets for r in cells)
        return OpResult(seed=seed, units=packets, wall_s=wall, cpu_s=cpu,
                        digest=digest(summary),
                        attempted=self.attempts_per_op,
                        failed=failed, packets=packets, problems=problems)


OFDM_WATERFALL = Waterfall(
    [(f"ofdm-{rate}", channel, snrs)
     for rate, knees in OFDM_KNEES.items()
     for channel, snrs in zip(("awgn", "rayleigh"), knees)],
    n_packets=4)

MIMO_WATERFALL = Waterfall(
    [("ht-7", "awgn", [20.0]),
     ("ht-15", "tgn-C", [28.0]),  # 2x2, MMSE detector (the default)
     ("vht80-9", "awgn", [28.0])],
    n_packets=4)


# -- surrogate mesh (E24) ------------------------------------------------

MESH_STATIONS = 1000
MESH_AREA_M = 1500.0
MESH_SAMPLES = 40000
SURFACE_SNRS = [-2.0, 0.0, 2.0, 4.0, 6.0, 10.0]
SURFACE_PAYLOAD = 1500  # MTU-sized mesh data frames, as in E24
SURFACE_PACKETS = 6
#: E24's station layout. The seed drives the surface build and the
#: coverage samples; a fixed layout keeps the work of one operation
#: (samples x stations reachable from the portal) the same for every
#: seed, where random layouts leave 1 to 977 stations reachable.
MESH_LAYOUT_SEED = 18


class SurrogateMesh:
    """E24: coverage of a 1000-station mesh through an ``AbstractLink``."""

    attempts_per_op = 1

    def setup(self, seeds):
        """Build the ofdm-6 PER surface and the station layout."""
        from repro.mesh.topology import random_positions
        from repro.surrogate import build_surface

        surface = build_surface(
            "perfbench-e24", ["ofdm-6"], snr_db=SURFACE_SNRS,
            payload_bytes=[SURFACE_PAYLOAD], n_packets=SURFACE_PACKETS,
            base_seed=seeds[0])
        positions = random_positions(MESH_STATIONS, MESH_AREA_M,
                                     rng=MESH_LAYOUT_SEED)
        return surface, positions

    def op(self, state, seed):
        """One ``coverage_result`` call, sampling with ``seed``."""
        from repro.mesh import coverage
        from repro.surrogate import AbstractLink

        surface, positions = state
        c0, t0 = cpu_seconds(), time.perf_counter()
        result = coverage.coverage_result(
            positions, MESH_AREA_M, link=AbstractLink(surface, rng=seed),
            max_per=0.1, n_samples=MESH_SAMPLES, rng=seed)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0

        frac = result.n_events / result.n_trials
        problems = []
        if result.n_trials != MESH_SAMPLES:
            problems.append(f"coverage drew {result.n_trials} samples, "
                            f"asked for {MESH_SAMPLES}")
        if not 0.0 < frac < 1.0:
            problems.append(f"coverage {frac} not strictly inside (0, 1)")
        if not result.ci_low <= frac <= result.ci_high:
            problems.append(f"coverage {frac} outside its CI "
                            f"[{result.ci_low}, {result.ci_high}]")
        return OpResult(seed=seed, units=result.n_trials, wall_s=wall,
                        cpu_s=cpu,
                        digest=digest([result.n_events, result.n_trials]),
                        attempted=self.attempts_per_op, problems=problems)


# -- local-queue campaign sweep --------------------------------------------

SWEEP_NAME = "perfbench-sweep"
SWEEP_PHYS = ["dsss-1", "dsss-2", "cck-5.5", "cck-11", "ofdm-6", "ofdm-24"]
#: PHYs the second pass appends to the first factor. The last factor
#: varies fastest, so every first-pass point keeps its index and cache key.
SWEEP_EXTRA_PHYS = ["ofdm-36", "ofdm-54"]
SWEEP_SNRS = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]
SWEEP_PACKETS = 10
SWEEP_PAYLOAD = 100
SWEEP_FLOOR = 1e-6
_RECORD_ECHO = re.compile(re.escape(SWEEP_NAME) + r"\[\d+\] ")


class CampaignSweep:
    """A ``link`` campaign on the local queue, then an extension of it.

    One operation runs the grid into a fresh store (pass 1), then runs
    the grid with more PHYs against the same store (pass 2), which
    serves the pass-1 points from the cache and runs only the new ones.
    """

    def specs(self, seed):
        """(pass-1, pass-2) specs for ``seed``."""
        from repro.campaign import CampaignSpec

        fixed = {"channel": "awgn", "n_packets": SWEEP_PACKETS,
                 "payload_bytes": SWEEP_PAYLOAD,
                 "analytic_floor": SWEEP_FLOOR}
        return tuple(
            CampaignSpec(name=SWEEP_NAME, kind="link",
                         factors={"phy": phys, "snr_db": SWEEP_SNRS},
                         fixed=fixed, base_seed=seed, backend="local-queue")
            for phys in (SWEEP_PHYS, SWEEP_PHYS + SWEEP_EXTRA_PHYS))

    def setup(self, seeds):
        """Import the campaign layer and build every seed's specs."""
        return {s: self.specs(s) for s in seeds}

    #: Grid points one operation settles (pass 1 + new in pass 2).
    attempts_per_op = len(SWEEP_PHYS + SWEEP_EXTRA_PHYS) * len(SWEEP_SNRS)

    def op(self, state, seed, store_root, workers):
        """Pass 1 into a fresh store under ``store_root``, then pass 2."""
        from repro.campaign import ResultsStore, run_campaign

        spec1, spec2 = state[seed]
        store = ResultsStore(store_root)
        first = []
        c0, t0 = cpu_seconds(), time.perf_counter()

        def echo(msg):
            if not first and _RECORD_ECHO.match(msg):
                first.append(time.perf_counter() - t0)

        try:
            r1 = run_campaign(spec1, workers=workers, store=store, echo=echo)
            wall1 = time.perf_counter() - t0
            t1 = time.perf_counter()
            r2 = run_campaign(spec2, workers=workers, store=store)
            wall2 = time.perf_counter() - t1
            cpu = cpu_seconds() - c0
        finally:
            shutil.rmtree(store_root, ignore_errors=True)

        n1, n2 = spec1.n_points, spec2.n_points
        problems = []
        for label, r, n in (("pass 1", r1, n1), ("pass 2", r2, n2)):
            indices = [rec.get("index") for rec in r.records]
            if indices != list(range(n)):
                problems.append(f"{label}: records do not cover the "
                                f"{n}-point grid")
            problems += [f"{label}: point {rec.get('index')} "
                         f"{rec.get('outcome')}: {rec.get('error')}"
                         for rec in r.failed_records]
        cached = {rec["index"] for rec in r2.records if rec.get("cached")}
        if cached != set(range(n1)):
            problems.append(f"pass 2 served {len(cached)} points from the "
                            f"cache, expected exactly the {n1} of pass 1")
        m1, m2 = r1.metrics_by_index(), r2.metrics_by_index()
        if any(m2.get(i) != m1[i] for i in m1):
            problems.append("pass 2 cached metrics differ from pass 1")

        fresh = r1.records + [rec for rec in r2.records
                              if not rec.get("cached")]
        packets = analytic = 0
        for rec in fresh:
            m = rec.get("metrics") or {}
            if rec.get("outcome") != "ok":
                continue
            where = f"{rec['params']['phy']}@{rec['params']['snr_db']:g}dB"
            if m.get("stop_reason") == "analytic":
                analytic += 1
                if m["n_packets"] != 0 or not (
                        m["per"] <= m["per_ci_high"] <= SWEEP_FLOOR):
                    problems.append(f"{where}: analytic cell sent "
                                    f"{m['n_packets']} packets, bound "
                                    f"{m['per_ci_high']}")
                continue
            packets += m["n_packets"]
            if m["n_packets"] != SWEEP_PACKETS:
                problems.append(f"{where}: sent {m['n_packets']} packets")
            problems += check_link_counts(where, m["per"], m["ber"],
                                          m["n_packets"],
                                          m["n_packet_errors"],
                                          m["n_bit_errors"],
                                          8 * SWEEP_PAYLOAD)
        failed = len({rec["index"] for r in (r1, r2)
                      for rec in r.failed_records})
        busy = sum(rec.get("wall_time_s") or 0.0 for rec in fresh)
        return OpResult(
            seed=seed, units=n2, wall_s=wall1 + wall2, cpu_s=cpu,
            digest=digest([[i, m2[i]] for i in sorted(m2)]),
            attempted=self.attempts_per_op, failed=failed, packets=packets,
            analytic=analytic,
            problems=problems,
            extra={"points1": n1, "wall1_s": wall1, "wall2_s": wall2,
                   "first_record_s": first[0] if first else wall1,
                   "new_points": n2 - len(cached),
                   "cache_hit_ratio": len(cached) / n2,
                   "busy_s": busy, "workers": workers})


def measure(run_op, seeds, seconds, trace, emit=None):
    """Run operations for ``seconds``, cycling through ``seeds``.

    ``run_op(seed, index)`` returns an :class:`OpResult`. Operations
    stop only after whole cycles, so every seed is measured equally
    often. With ``trace`` each operation runs twice at the same seed,
    untraced and then with every layer wrapped, so the two digests can
    be compared and the tracing overhead measured. ``emit`` is called
    with each result as it completes.
    """
    from layers import LayerTimer

    ops = []

    def record(result):
        ops.append(result)
        if emit is not None:
            emit(result)

    start = time.perf_counter()
    k = 0
    while True:
        seed = seeds[k % len(seeds)]
        record(run_op(seed, len(ops)))
        if trace:
            timer = LayerTimer()
            with timer.installed():
                result = run_op(seed, len(ops))
            result.traced = True
            result.layers = timer.stats
            record(result)
        k += 1
        if k % len(seeds) == 0 and time.perf_counter() - start >= seconds:
            return ops


WORKLOADS = {
    "ofdm-waterfall": OFDM_WATERFALL,
    "mimo-waterfall": MIMO_WATERFALL,
    "campaign-sweep": CampaignSweep(),
    "surrogate-mesh": SurrogateMesh(),
}
