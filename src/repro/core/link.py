"""End-to-end link simulation for every 802.11 generation.

A :class:`LinkSimulator` wires one PHY configuration to one channel model
and measures bit/packet error rates and goodput at given SNRs. PHY
configurations are named strings:

====================  =====================================================
name                  meaning
====================  =====================================================
``dsss-1, dsss-2``    802.11 Barker DSSS at 1 / 2 Mbps
``cck-5.5, cck-11``   802.11b CCK
``fhss-1, fhss-2``    802.11 FHSS (GFSK)
``ofdm-R``            802.11a/g OFDM, R in {6,9,12,18,24,36,48,54}
``ht-M``              802.11n HT MCS M (0-31), 20 MHz
``ht40-M``            802.11n HT MCS M, 40 MHz
``vht-M[-xS]``        802.11ac VHT MCS M (0-9), S streams (default 1), 20 MHz
``vht80-M-xS``        802.11ac VHT at 80 MHz (also vht40-, vht160-)
====================  =====================================================

Channels: ``awgn``, ``rayleigh`` (flat, per-packet) or ``tgn-X`` with X in
A-F (frequency-selective tapped delay line). SNR convention: average
received signal power per RX antenna over complex noise variance.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.union_bound import (
    WEIGHT_SPECTRUM,
    union_bound_ber,
    union_bound_per,
)
from repro.channel.awgn import awgn_noise
from repro.channel.models import TGN_PROFILES, tgn_channel
from repro.core.mc import analytic_result, run_grid_trials, run_trials
from repro.core.mc.stats import rate_interval
from repro.errors import ConfigurationError, ReproError
from repro.phy import kernels as phy_kernels
from repro.phy.cck import CckPhy
from repro.phy.dsss import DsssPhy
from repro.phy.fhss import GfskModem
from repro.phy.mimo.ht import HtPhy, VhtPhy
from repro.phy.ofdm import OfdmPhy
from repro.utils.bits import bits_from_bytes, count_bit_errors
from repro.utils.rng import as_generator
from repro.utils.validation import require_snr_array, validate_link_run_args


@dataclass
class LinkResult:
    """Outcome of a batch of packet transmissions at one operating point.

    When produced by :meth:`LinkSimulator.run` the ``mc`` field carries
    the engine's :class:`~repro.core.mc.McResult` (CI on the PER, trial
    count, stop reason); :meth:`per_ci`/:meth:`ber_ci` recompute
    intervals from the stored counts at any confidence.
    """

    phy: str
    channel: str
    snr_db: float
    n_packets: int
    n_packet_errors: int
    n_bits: int
    n_bit_errors: int
    payload_bytes: int
    rate_mbps: float
    extras: dict = field(default_factory=dict)
    mc: object = None

    @property
    def analytic(self):
        """True when this point was resolved by a closed-form bound.

        Analytic points send zero packets: ``mc`` carries an
        :func:`~repro.core.mc.analytic_result` record
        (``stop_reason="analytic"``) and ``per``/``ber`` report the
        union-bound values instead of measurements.
        """
        return (self.mc is not None
                and getattr(self.mc, "stop_reason", None) == "analytic")

    @property
    def per(self):
        """Packet error rate (``nan`` when no packets were sent).

        A zero-trial result used to report 0.0 — indistinguishable from
        a genuinely error-free measurement; ``nan`` makes "no data"
        loud instead of flattering. Analytic points report the
        union-bound PER.
        """
        if self.analytic:
            return float(self.mc.estimate)
        if not self.n_packets:
            return float("nan")
        return self.n_packet_errors / self.n_packets

    @property
    def ber(self):
        """Raw payload bit error rate (``nan`` when no bits were sent).

        Analytic points report the union-bound BER.
        """
        if self.analytic:
            return float(self.extras["analytic"]["ber"])
        if not self.n_bits:
            return float("nan")
        return self.n_bit_errors / self.n_bits

    @property
    def goodput_mbps(self):
        """PHY rate discounted by packet loss."""
        return self.rate_mbps * (1.0 - self.per)

    def per_ci(self, confidence=0.95, method="wilson"):
        """``(lo, hi)`` interval on the packet error rate.

        Analytic points report ``(0, bound)`` — the union bound is
        one-sided, so the upper edge is the bound itself.
        """
        if self.analytic:
            return 0.0, float(self.mc.ci_high)
        return rate_interval(self.n_packet_errors, self.n_packets,
                             confidence, method)

    def ber_ci(self, confidence=0.95, method="wilson"):
        """``(lo, hi)`` interval on the bit error rate.

        Treats payload bits as independent Bernoulli trials — optimistic
        under bursty decoders, but a usable yardstick. Analytic points
        report ``(0, bound)``.
        """
        if self.analytic:
            return 0.0, self.ber
        return rate_interval(self.n_bit_errors, self.n_bits,
                             confidence, method)


class LinkSimulator:
    """Monte-Carlo link-level simulator.

    Parameters
    ----------
    phy : str
        PHY configuration name (see module docstring).
    channel : str
        "awgn", "rayleigh", or "tgn-A".."tgn-F".
    n_rx : int or None
        Receive antennas (defaults to the stream count; >1 enables receive
        diversity for HT PHYs).
    detector : str
        HT detector ("mmse", "zf", "ml").
    rng : seed or Generator
    kernels : str or None
        Decoder kernel backend for this simulator's runs ("numpy",
        "numba" or "auto"); ``None`` defers to ``REPRO_KERNELS`` / the
        process-wide setting. Requesting "numba" without numba
        installed fails here, up front, with a
        :class:`~repro.errors.ConfigurationError`.

    Examples
    --------
    >>> sim = LinkSimulator("ofdm-24", "awgn", rng=1)
    >>> result = sim.run(snr_db=20.0, n_packets=50, payload_bytes=100)
    >>> result.per <= 1.0
    True
    """

    def __init__(self, phy, channel="awgn", n_rx=None, detector="mmse",
                 rng=None, kernels=None):
        self.phy_name = phy
        self.channel_name = channel
        self.rng = as_generator(rng)
        self._detector = detector
        self._make_phy(phy, n_rx, detector)
        self._validate_channel(channel)
        if kernels is not None:
            phy_kernels.require_backend(kernels)
        self.kernels = kernels

    def _kernel_ctx(self):
        if self.kernels is None:
            return contextlib.nullcontext()
        return phy_kernels.use_backend(self.kernels)

    # -- construction -------------------------------------------------------

    def _make_phy(self, name, n_rx, detector):
        parts = name.split("-")
        kind = parts[0]
        if kind == "dsss":
            self._phy = DsssPhy(int(parts[1]))
            self._kind = "chips"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = self._phy.chip_rate_hz
        elif kind == "cck":
            self._phy = CckPhy(float(parts[1]))
            self._kind = "chips"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = 11e6
        elif kind == "fhss":
            rate = int(parts[1])
            self._phy = GfskModem(levels=2 if rate == 1 else 4,
                                  modulation_index=0.32 if rate == 1 else 0.45)
            self._kind = "fhss"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(rate)
            self.sample_rate = 1e6 * self._phy.sps
        elif kind == "ofdm":
            self._phy = OfdmPhy(int(parts[1]))
            self._kind = "ofdm"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = 20e6
        elif kind in ("ht", "ht40"):
            bw = 40 if kind == "ht40" else 20
            mcs = int(parts[1])
            streams = mcs // 8 + 1
            self._phy = HtPhy(mcs=mcs, bandwidth_mhz=bw,
                              n_rx=n_rx or streams, detector=detector)
            self._kind = "ht"
            self.n_tx = streams
            self.n_rx = n_rx or streams
            self.rate_mbps = self._phy.data_rate_mbps()
            self.sample_rate = self._phy.sample_rate
        elif kind in ("vht", "vht40", "vht80", "vht160"):
            bw = int(kind[3:]) if len(kind) > 3 else 20
            mcs = int(parts[1])
            streams = int(parts[2].lstrip("x")) if len(parts) > 2 else 1
            self._phy = VhtPhy(mcs=mcs, spatial_streams=streams,
                               bandwidth_mhz=bw, n_rx=n_rx or streams,
                               detector=detector)
            self._kind = "ht"
            self.n_tx = streams
            self.n_rx = n_rx or streams
            self.rate_mbps = self._phy.data_rate_mbps()
            self.sample_rate = self._phy.sample_rate
        else:
            raise ConfigurationError(f"unknown PHY configuration {name!r}")

    def _validate_channel(self, channel):
        if channel in ("awgn", "rayleigh"):
            return
        if channel.startswith("tgn-") and channel[4:].upper() in TGN_PROFILES:
            return
        raise ConfigurationError(
            f"unknown channel {channel!r}; use 'awgn', 'rayleigh' or 'tgn-A'..'tgn-F'"
        )

    # -- channel application --------------------------------------------------

    def _apply_channel(self, tx):
        """Propagate an (n_tx, N) waveform; returns (n_rx, N)."""
        tx = np.atleast_2d(tx)
        if self.channel_name == "awgn":
            if self.n_rx == self.n_tx:
                return tx.copy()
            # Receive diversity in AWGN: repeat the signal on each antenna.
            return np.tile(tx.sum(axis=0), (self.n_rx, 1))
        if self.channel_name == "rayleigh":
            h = (self.rng.normal(size=(self.n_rx, self.n_tx))
                 + 1j * self.rng.normal(size=(self.n_rx, self.n_tx))) / np.sqrt(2)
            return h @ tx
        model = self.channel_name[4:].upper()
        tdl = tgn_channel(model, self.n_rx, self.n_tx,
                          sample_rate_hz=self.sample_rate, rng=self.rng)
        return tdl.apply(tx)

    # -- one packet -------------------------------------------------------------

    def _send_packet(self, payload, snr_db):
        """Returns (bit_errors, packet_error) for one payload transmission."""
        sent_bits = bits_from_bytes(payload)
        if self._kind in ("chips", "fhss"):
            tx = self._phy.modulate(sent_bits)
        else:
            tx = self._phy.transmit(payload)
        rx = self._apply_channel(tx)
        # SNR convention: *average* received SNR. Channels have unit mean
        # gain per antenna pair, so the expected receive power per antenna
        # equals the total transmit power; scaling noise to that average
        # (not to the instantaneous packet power) preserves per-packet
        # fades — the whole point of diversity experiments.
        tx2d = np.atleast_2d(tx)
        total_tx_power = float(np.mean(np.abs(tx2d) ** 2)) * tx2d.shape[0]
        noise_var = total_tx_power / 10.0 ** (snr_db / 10.0)
        rx = rx + awgn_noise(rx.shape, noise_var, self.rng)

        try:
            if self._kind == "chips":
                got_bits = self._phy.demodulate(rx.ravel())
                bit_errs = count_bit_errors(sent_bits, got_bits)
            elif self._kind == "fhss":
                got_bits = self._phy.demodulate(rx.ravel(), sent_bits.size)
                bit_errs = count_bit_errors(sent_bits, got_bits)
            elif self._kind == "ofdm":
                got = self._phy.receive(rx.ravel(), noise_var)
                bit_errs = self._byte_errors(payload, got)
            else:
                got = self._phy.receive(rx, noise_var,
                                        psdu_bytes=len(payload))
                bit_errs = self._byte_errors(payload, got)
        except ReproError:
            # Undecodable frame: all payload bits counted in error.
            return sent_bits.size, True
        return bit_errs, bit_errs > 0

    @staticmethod
    def _byte_errors(sent, got):
        if len(got) != len(sent):
            return 8 * len(sent)
        return count_bit_errors(bits_from_bytes(sent), bits_from_bytes(got))

    # -- batched packets ----------------------------------------------------

    def _send_packet_batch(self, rng, m, payload_bytes, snr_db):
        """One vectorized PHY invocation covering ``m`` OFDM or HT packets.

        Per packet the generator is consumed in exactly the scalar trial's
        order — payload bytes, then the channel realisation, then the
        noise normals (``awgn_noise`` scales *after* drawing, so the
        normals can be drawn before the TX power is known). Fixed-budget
        runs therefore stay bit-identical to the per-packet loop.
        """
        n = self._phy.n_samples(payload_bytes)
        snr_lin = 10.0 ** (snr_db / 10.0)
        tgn = self.channel_name.startswith("tgn-")
        payloads = []
        channels = []
        noise_raw = np.empty((m, self.n_rx, n), dtype=np.complex128)
        for i in range(m):
            payloads.append(bytes(rng.integers(0, 256, payload_bytes,
                                               dtype=np.uint8).tolist()))
            if self.channel_name == "rayleigh":
                channels.append(
                    (rng.normal(size=(self.n_rx, self.n_tx))
                     + 1j * rng.normal(size=(self.n_rx, self.n_tx)))
                    / np.sqrt(2)
                )
            elif tgn:
                tdl = tgn_channel(self.channel_name[4:].upper(), self.n_rx,
                                  self.n_tx, sample_rate_hz=self.sample_rate,
                                  rng=rng)
                channels.append((tdl, tdl.draw()))
            noise_raw[i] = (rng.normal(size=(self.n_rx, n))
                            + 1j * rng.normal(size=(self.n_rx, n)))

        # (m, n_tx, n): OFDM rows gain a unit antenna axis.
        tx = self._phy.transmit_batch(payloads).reshape(m, self.n_tx, n)
        noise_var = np.empty(m)
        rx = np.empty((m, self.n_rx, n), dtype=np.complex128)
        for i in range(m):
            if self.channel_name == "awgn":
                if self.n_rx == self.n_tx:
                    rx[i] = tx[i]
                else:
                    # Receive diversity: the stream sum on each antenna.
                    rx[i] = np.tile(tx[i].sum(axis=0), (self.n_rx, 1))
            elif tgn:
                tdl, taps = channels[i]
                rx[i] = tdl.apply(tx[i], taps)
            else:
                rx[i] = channels[i] @ tx[i]
            # Same power convention and operation order as the scalar path.
            noise_var[i] = float(np.mean(np.abs(tx[i]) ** 2)) * self.n_tx
            noise_var[i] = noise_var[i] / snr_lin
        rx += np.sqrt(noise_var / 2.0)[:, None, None] * noise_raw

        if self._kind == "ofdm":
            psdus = self._phy.receive_batch(rx[:, 0, :], noise_var)
        else:
            psdus = self._phy.receive_batch(rx, noise_var,
                                            psdu_bytes=payload_bytes)
        obs.counter("link.packets", m)
        bit_sum = 0
        pkt_sum = 0
        for payload, got in zip(payloads, psdus):
            if got is None:
                errs = 8 * len(payload)
            else:
                errs = self._byte_errors(payload, got)
            bit_sum += errs
            pkt_sum += int(errs > 0)
        return {"packet_error": pkt_sum, "bit_errors": bit_sum}

    # -- analytic fast path -------------------------------------------------

    def analytic_bounds(self, snr_db, payload_bytes=100):
        """Closed-form PER/BER bounds at one operating point, or None.

        Only OFDM PHYs on AWGN have a usable closed form: the union
        bound over the (133, 171) distance spectrum at the point's
        Eb/N0 (20 MHz channel, so ``Eb/N0 = SNR + 10 log10(20/rate)``).
        The bound ignores channel-estimation noise and SIGNAL-field
        decode failures, so it is trustworthy only where it is already
        tiny — callers gate on a floor (see ``analytic_floor``) rather
        than using it as a general-purpose PER model.
        """
        if self._kind != "ofdm" or self.channel_name != "awgn":
            return None
        code_rate = self._phy.rate.code_rate
        if code_rate not in WEIGHT_SPECTRUM:
            return None
        ebn0_db = float(snr_db) + 10.0 * np.log10(20.0 / self.rate_mbps)
        ber = float(min(union_bound_ber(ebn0_db, code_rate), 1.0))
        per = float(union_bound_per(ebn0_db, 8 * int(payload_bytes),
                                    code_rate))
        return {"per": per, "ber": ber, "ebn0_db": ebn0_db,
                "code_rate": code_rate, "method": "union-bound"}

    def _analytic_short_circuit(self, snr_db, payload_bytes, floor,
                                confidence):
        """Analytic LinkResult when the bound clears the floor, else None."""
        if floor is None:
            return None
        floor = float(floor)
        if not 0.0 < floor < 1.0:
            raise ConfigurationError(
                f"analytic_floor must lie in (0, 1), got {floor}")
        bounds = self.analytic_bounds(snr_db, payload_bytes)
        if bounds is None or bounds["per"] > floor:
            return None
        mc = analytic_result(bounds["per"], target="packet_error",
                             confidence=confidence)
        obs.counter("link.analytic_points")
        return LinkResult(
            phy=self.phy_name,
            channel=self.channel_name,
            snr_db=float(snr_db),
            n_packets=0,
            n_packet_errors=0,
            n_bits=0,
            n_bit_errors=0,
            payload_bytes=int(payload_bytes),
            rate_mbps=self.rate_mbps,
            extras={"analytic": dict(bounds, floor=floor)},
            mc=mc,
        )

    # -- batches ------------------------------------------------------------------

    def run(self, snr_db, n_packets=100, payload_bytes=100, *,
            precision=None, max_trials=None, confidence=0.95,
            batch_size=50, vectorized=None, analytic_floor=None):
        """Send random payloads at one SNR through the MC engine.

        With ``precision=None`` (the default) exactly ``n_packets`` are
        sent, bit-identical to the seed-era serial loop at the same
        seed. With a precision target the engine keeps sending batches
        until the Wilson interval on the PER has relative half-width
        ``<= precision`` or ``max_trials`` packets have been spent;
        ``result.mc`` records which.

        ``vectorized`` selects the batched PHY path, which runs each MC
        batch of packets as one vectorized transmit/receive invocation
        with a single Viterbi sweep (default: on for the OFDM and HT/VHT
        PHYs, which support it; the per-packet RNG draw order is
        preserved, so results are bit-identical either way). Pass
        ``False`` to force the per-packet loop.

        ``analytic_floor`` enables the analytic fast path: when the
        union-bound PER at this point is at or below the floor, no
        packets are sent at all — the result carries the bound with
        ``stop_reason="analytic"`` and consumes no RNG draws. Points
        the bound cannot cover (non-OFDM PHYs, fading channels, or
        bound above the floor) fall through to Monte-Carlo unchanged.
        """
        snr_db, n_packets, payload_bytes = validate_link_run_args(
            snr_db, n_packets, payload_bytes)
        shortcut = self._analytic_short_circuit(
            snr_db, payload_bytes, analytic_floor, confidence)
        if shortcut is not None:
            return shortcut
        vectorized = self._kind in ("ofdm", "ht") and (
            vectorized is None or bool(vectorized))

        def trial(rng):
            payload = bytes(rng.integers(0, 256, payload_bytes,
                                         dtype=np.uint8).tolist())
            errs, bad = self._send_packet(payload, snr_db)
            obs.counter("link.packets")
            return {"packet_error": int(bad), "bit_errors": int(errs)}

        def trial_batch(rng, m):
            return self._send_packet_batch(rng, m, payload_bytes, snr_db)

        with obs.span("link.run", phy=self.phy_name,
                      channel=self.channel_name,
                      snr_db=float(snr_db)) as span, obs.timed() as clock, \
                self._kernel_ctx():
            mc = run_trials(trial_batch if vectorized else trial,
                            n_trials=int(n_packets),
                            target="packet_error", rng=self.rng,
                            precision=precision, max_trials=max_trials,
                            confidence=confidence, batch_size=batch_size,
                            vectorized=vectorized)
            span.set(n_trials=mc.n_trials, stop_reason=mc.stop_reason,
                     vectorized=vectorized,
                     packets_per_s=(mc.n_trials / clock.elapsed
                                    if clock.elapsed > 0 else 0.0))
        return LinkResult(
            phy=self.phy_name,
            channel=self.channel_name,
            snr_db=float(snr_db),
            n_packets=mc.n_trials,
            n_packet_errors=mc.n_events,
            n_bits=8 * payload_bytes * mc.n_trials,
            n_bit_errors=int(mc.totals.get("bit_errors", 0)),
            payload_bytes=payload_bytes,
            rate_mbps=self.rate_mbps,
            mc=mc,
        )

    def waterfall(self, snr_values_db, n_packets=100, payload_bytes=100,
                  **mc_kwargs):
        """Run a PER/BER sweep across SNR values; returns list of results.

        ``mc_kwargs`` (``precision``, ``max_trials``, ``confidence``,
        ``batch_size``) pass through to :meth:`run`, so an adaptive
        sweep spends few packets on saturated points and many on the
        waterfall knee. Empty or non-finite SNR arrays are rejected up
        front — the same contract the surrogate path enforces.
        """
        snrs = require_snr_array("snr_values_db", snr_values_db)
        with obs.span("link.waterfall", phy=self.phy_name,
                      channel=self.channel_name, n_points=len(snrs)):
            return [self.run(snr, n_packets, payload_bytes, **mc_kwargs)
                    for snr in snrs]

    def run_grid(self, snr_values_db, n_packets=100, payload_bytes=100, *,
                 cross_point=True, analytic_floor=None, confidence=0.95,
                 batch_size=50):
        """Cross-point sweep: all SNRs of this PHY in one kernel pass.

        Unlike :meth:`waterfall` (which runs the points one after the
        other, each with its own draws), a grid shares one payload /
        channel / noise realisation per trial index across every SNR
        (common random numbers) and amortises each transmit over all of
        them. Consumes exactly one draw from ``self.rng`` regardless of
        grid shape, so ``cross_point=True`` and the per-point reference
        ``cross_point=False`` are bit-identical. OFDM PHYs on
        awgn/rayleigh channels only; returns one result per SNR.
        """
        return run_link_grid(
            [self.phy_name], snr_values_db, n_packets, payload_bytes,
            channel=self.channel_name, cross_point=cross_point,
            analytic_floor=analytic_floor, confidence=confidence,
            batch_size=batch_size, rng=self.rng, kernels=self.kernels)[0]

    def snr_for_per(self, target_per=0.1, lo_db=-5.0, hi_db=45.0,
                    n_packets=100, payload_bytes=100, tolerance_db=0.5,
                    **mc_kwargs):
        """Bisect the SNR at which PER crosses ``target_per``.

        Monte-Carlo noise makes this approximate; increase ``n_packets``
        (or pass ``precision=``) for tighter answers. The low edge is
        probed first: when the target PER already holds at ``lo_db``
        the answer is ``lo_db`` and no bisection iterations are spent.
        """
        if not 0 < target_per < 1:
            raise ConfigurationError("target PER must be in (0, 1)")
        lo, hi = float(lo_db), float(hi_db)
        with obs.span("link.snr_for_per", phy=self.phy_name,
                      channel=self.channel_name,
                      target_per=float(target_per)) as span:
            if self.run(lo, n_packets, payload_bytes,
                        **mc_kwargs).per <= target_per:
                span.set(snr_db=lo, low_edge=True)
                return lo
            if self.run(hi, n_packets, payload_bytes,
                        **mc_kwargs).per > target_per:
                raise ConfigurationError(
                    f"PER target {target_per} not met even at {hi} dB"
                )
            while hi - lo > tolerance_db:
                mid = 0.5 * (lo + hi)
                if self.run(mid, n_packets, payload_bytes,
                            **mc_kwargs).per > target_per:
                    lo = mid
                else:
                    hi = mid
            span.set(snr_db=0.5 * (lo + hi))
        return 0.5 * (lo + hi)


# -- cross-point grids -------------------------------------------------------

def grid_trial_draws(entropy, t, payload_bytes, n_max, channel):
    """Base draws for grid trial ``t``: (payload, h, noise).

    One substream per trial index, derived only from ``entropy`` — the
    property every grid execution mode (cross-point, per-point,
    shared-memory pool) relies on for bit-identity. The noise normals
    are drawn interleaved (re, im) per sample so that a shorter PHY's
    noise vector is an exact prefix of a longer draw from the same
    substream: a pool materialised at the campaign's maximum sample
    count serves every rate in it.
    """
    g = np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(int(t),)))
    payload = bytes(g.integers(0, 256, payload_bytes,
                               dtype=np.uint8).tolist())
    h = 1.0 + 0.0j
    if channel == "rayleigh":
        h = complex((g.normal() + 1j * g.normal()) / np.sqrt(2))
    raw = g.normal(size=(int(n_max), 2))
    return payload, h, raw[:, 0] + 1j * raw[:, 1]


def run_link_grid(phys, snr_values_db, n_packets=100, payload_bytes=100, *,
                  channel="awgn", cross_point=True, analytic_floor=None,
                  confidence=0.95, batch_size=50, rng=None, kernels=None,
                  draw_pool=None):
    """Run a whole (rate, SNR) grid through shared kernel invocations.

    The cross-point batcher behind :meth:`LinkSimulator.run_grid`. Trial
    ``i`` draws one payload, one channel realisation and one (maximum
    length) noise vector from a per-trial substream and reuses them at
    **every** grid point — payload bit generation and scrambling /
    coding / modulation happen once per rate (not once per SNR), and
    noise scaling is the only per-SNR work. Because draws hang off the
    trial index rather than a generator threaded through the points,
    ``cross_point=False`` (the per-point reference execution, one
    engine run per grid point) is bit-identical to the batched path —
    the property the grid tests pin down.

    Parameters
    ----------
    phys : str or list of str
        OFDM PHY names (e.g. ``["ofdm-6", "ofdm-54"]``).
    snr_values_db : array-like
        SNR points shared by every PHY.
    channel : str
        "awgn" or "rayleigh" (flat per-packet). TGN channels consume
        RNG inside the tap generator and cannot share draws; use
        :meth:`LinkSimulator.waterfall` for those.
    analytic_floor : float or None
        Union-bound fast path: grid points whose bound is at or below
        the floor send no packets and come back flagged
        ``stop_reason="analytic"``.
    kernels : str or None
        Decoder backend for the whole grid ("numpy"/"numba"/"auto").
    rng : seed or Generator
        Consumed exactly once (for the per-trial substream entropy).
    draw_pool : SharedDrawPool or None
        Pre-materialised base draws (see :mod:`repro.campaign.shm`).
        Used only when its entropy/shape match this grid — otherwise
        the draws are regenerated locally from the same substreams, so
        results are bit-identical with or without a pool.

    Returns
    -------
    list of lists of :class:`LinkResult`: ``results[p][s]`` for PHY
    ``p`` at SNR ``s``.
    """
    if isinstance(phys, str):
        phys = [phys]
    if not phys:
        raise ConfigurationError("phys must name at least one PHY")
    snrs = require_snr_array("snr_values_db", snr_values_db)
    _, n_packets, payload_bytes = validate_link_run_args(
        0.0, n_packets, payload_bytes)
    if channel not in ("awgn", "rayleigh"):
        raise ConfigurationError(
            f"cross-point grids support 'awgn' or 'rayleigh' channels, "
            f"got {channel!r}; run TGN sweeps through waterfall()")
    if kernels is not None:
        phy_kernels.require_backend(kernels)
    sims = [LinkSimulator(p, channel, kernels=kernels) for p in phys]
    for sim in sims:
        if sim._kind != "ofdm":
            raise ConfigurationError(
                f"cross-point grids support OFDM PHYs only, got "
                f"{sim.phy_name!r}; run it through waterfall()")
    if analytic_floor is not None:
        analytic_floor = float(analytic_floor)
        if not 0.0 < analytic_floor < 1.0:
            raise ConfigurationError(
                f"analytic_floor must lie in (0, 1), got {analytic_floor}")

    n_snr = len(snrs)
    n_points = len(sims) * n_snr
    snr_lin = 10.0 ** (snrs / 10.0)
    lengths = [sim._phy.n_samples(payload_bytes) for sim in sims]
    n_max = max(lengths)
    # One draw regardless of grid shape or execution mode: the entropy
    # seeds per-trial substreams, so draws depend only on the trial index.
    entropy = int(as_generator(rng).integers(0, 2 ** 63))
    if draw_pool is not None and not draw_pool.covers(
            entropy, n_packets, payload_bytes, n_max, channel):
        obs.counter("link.grid.pool_miss")
        draw_pool = None

    def batch_draws(lo, hi):
        m = hi - lo
        if draw_pool is not None:
            pay, hs_all, nz_all = draw_pool.arrays()
            payloads = [pay[t].tobytes() for t in range(lo, hi)]
            return payloads, hs_all[lo:hi], nz_all[lo:hi, :n_max]
        payloads = []
        hs = np.empty(m, dtype=np.complex128)
        noise = np.empty((m, n_max), dtype=np.complex128)
        for j, t in enumerate(range(lo, hi)):
            payload, h, nz = grid_trial_draws(entropy, t, payload_bytes,
                                              n_max, channel)
            payloads.append(payload)
            hs[j] = h
            noise[j] = nz
        return payloads, hs, noise

    def grid_fn(lo, hi, points):
        m = hi - lo
        payloads, hs, noise = batch_draws(lo, hi)
        pkt = np.zeros(points.size, dtype=np.int64)
        bits = np.zeros(points.size, dtype=np.int64)
        by_phy = {}
        for k, idx in enumerate(points):
            p, s = divmod(int(idx), n_snr)
            by_phy.setdefault(p, []).append((k, s))
        for p, cols in sorted(by_phy.items()):
            phy = sims[p]._phy
            n = lengths[p]
            tx = phy.transmit_batch(payloads)  # (m, n), shared by SNRs
            power = np.mean(np.abs(tx) ** 2, axis=1)
            rx_clean = hs[:, None] * tx if channel == "rayleigh" else tx
            for k, s in cols:
                noise_var = power / snr_lin[s]
                rx = (rx_clean
                      + np.sqrt(noise_var / 2.0)[:, None] * noise[:, :n])
                psdus = phy.receive_batch(rx, noise_var)
                for payload, got in zip(payloads, psdus):
                    if got is None:
                        errs = 8 * len(payload)
                    else:
                        errs = LinkSimulator._byte_errors(payload, got)
                    bits[k] += errs
                    pkt[k] += int(errs > 0)
            obs.counter("link.packets", m * len(cols))
        return {"packet_error": pkt, "bit_errors": bits}

    analytic = {}
    bounds_by_point = {}
    if analytic_floor is not None:
        for p, sim in enumerate(sims):
            for s, snr in enumerate(snrs):
                bounds = sim.analytic_bounds(snr, payload_bytes)
                if bounds is not None and bounds["per"] <= analytic_floor:
                    idx = p * n_snr + s
                    analytic[idx] = bounds["per"]
                    bounds_by_point[idx] = bounds

    with obs.span("link.grid", n_phys=len(sims), n_snrs=n_snr,
                  cross_point=bool(cross_point),
                  n_analytic=len(analytic)) as span, obs.timed() as clock, \
            (phy_kernels.use_backend(kernels) if kernels is not None
             else contextlib.nullcontext()):
        if cross_point:
            mcs = run_grid_trials(
                grid_fn, n_packets, n_points, target="packet_error",
                batch_size=batch_size, analytic=analytic,
                confidence=confidence)
        else:
            # Per-point reference execution: same draws, one engine run
            # per grid point. Exists to *prove* the batched path right.
            mcs = []
            for idx in range(n_points):
                def one_point(lo, hi, points, _idx=idx):
                    out = grid_fn(lo, hi,
                                  np.array([_idx], dtype=np.int64))
                    return out
                mcs.extend(run_grid_trials(
                    one_point, n_packets, 1, target="packet_error",
                    batch_size=batch_size,
                    analytic=({0: analytic[idx]} if idx in analytic
                              else None),
                    confidence=confidence))
        sent = sum(mc.n_trials for mc in mcs)
        span.set(n_packets=sent,
                 packets_per_s=(sent / clock.elapsed
                                if clock.elapsed > 0 else 0.0))
        if analytic:
            obs.counter("link.analytic_points", len(analytic))

    results = []
    for p, sim in enumerate(sims):
        row = []
        for s, snr in enumerate(snrs):
            idx = p * n_snr + s
            mc = mcs[idx]
            if mc.stop_reason == "analytic":
                row.append(LinkResult(
                    phy=sim.phy_name, channel=channel, snr_db=float(snr),
                    n_packets=0, n_packet_errors=0, n_bits=0,
                    n_bit_errors=0, payload_bytes=payload_bytes,
                    rate_mbps=sim.rate_mbps,
                    extras={"analytic": dict(bounds_by_point[idx],
                                             floor=analytic_floor)},
                    mc=mc))
            else:
                row.append(LinkResult(
                    phy=sim.phy_name, channel=channel, snr_db=float(snr),
                    n_packets=mc.n_trials, n_packet_errors=mc.n_events,
                    n_bits=8 * payload_bytes * mc.n_trials,
                    n_bit_errors=int(mc.totals.get("bit_errors", 0)),
                    payload_bytes=payload_bytes, rate_mbps=sim.rate_mbps,
                    mc=mc))
        results.append(row)
    return results
