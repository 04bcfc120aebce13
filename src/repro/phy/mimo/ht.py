"""HT (802.11n-class) and VHT (802.11ac-class) MIMO-OFDM transceivers.

Implements the High-Throughput PHY as the paper anticipated it: 1-4
spatial streams, 20 or 40 MHz channels, the HT MCS table, per-stream
orthogonal training (the P-matrix HT-LTFs), and linear MMSE/ZF or exact ML
detection — and, through the same generation-parameterized chain,
:class:`VhtPhy`: up to 8 streams, 80/160 MHz tone plans, 256-QAM, and
the 8-column LTF matrix. Closed-loop SVD eigen-beamforming is supported by supplying
per-subcarrier precoders; channel estimation transparently learns the
*effective* precoded channel, exactly as real closed-loop 11n does.
(Alamouti transmit diversity lives in :mod:`repro.phy.mimo.stbc` and is
exercised at symbol level by the link engine.)

Simplifications vs the full standard (see DESIGN.md): the legacy and
HT-SIG header symbols are omitted (both ends are configured with the MCS),
pilots are transmitted but not used for phase tracking (the simulation has
no oscillator impairments), and the short guard interval is handled
analytically in the rate table rather than at waveform level.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.phy import convolutional as cc
from repro.phy.interleaver import ht_deinterleave, ht_interleave
from repro.phy.mimo.detection import detect_ml, detect_mmse, detect_zero_forcing
from repro.phy.modulation import Modulator
from repro.phy.scrambler import scramble
from repro.standards.mcs import HT_MCS_TABLE, get_family
from repro.standards.plans import tone_plan
from repro.utils.bits import bits_from_bytes, bytes_from_bits

#: Number of LTF training symbols per spatial-stream count. 1-4 streams
#: follow 802.11n; 5-8 streams use the full 8-column VHT matrix (see
#: DESIGN.md — the real standard's 6-LTF option for 5-6 streams trades
#: orthogonality bookkeeping for air time we don't model).
N_LTF = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}

#: The HT-LTF mapping matrix (rows = streams, columns = LTF symbols).
P_HTLTF = np.array(
    [
        [1, -1, 1, 1],
        [1, 1, -1, 1],
        [1, 1, 1, -1],
        [-1, 1, 1, 1],
    ],
    dtype=float,
)

#: The 8-stream VHT-LTF mapping matrix: the standard's block extension
#: [[P4, P4], [P4, -P4]], orthogonal (P8 P8^T = 8 I).
P_VHTLTF = np.block([[P_HTLTF, P_HTLTF], [P_HTLTF, -P_HTLTF]])


class HtPhy:
    """802.11n HT MIMO-OFDM transceiver.

    Parameters
    ----------
    mcs : int
        HT MCS index 0-31 (index // 8 + 1 spatial streams).
    bandwidth_mhz : int
        20 or 40.
    n_rx : int
        Receive antennas (>= spatial streams for linear detection).
    detector : str
        "mmse" (default), "zf" or "ml".
    scrambler_seed : int

    Examples
    --------
    >>> phy = HtPhy(mcs=8, n_rx=2)         # 2-stream QPSK 1/2
    >>> tx = phy.transmit(b"data")          # (2, n_samples)
    >>> h = np.eye(2)[:, :, None] * np.ones(phy.n_data_sc)  # flat channel
    >>> # apply channel externally, then:   phy.receive(rx, noise_var)
    """

    #: MCS family whose tables and timing this chain uses.
    FAMILY = "HT"
    #: Preamble air time before the per-stream LTFs (L-STF + L-LTF +
    #: L-SIG + HT-SIG + HT-STF = 8+8+4+8+4 us).
    PREAMBLE_US = 32.0

    def __init__(self, mcs=0, bandwidth_mhz=20, n_rx=None, detector="mmse",
                 scrambler_seed=0x5D):
        if mcs not in HT_MCS_TABLE:
            raise ConfigurationError(f"MCS index must be 0-31, got {mcs}")
        self._init_chain(
            HT_MCS_TABLE[mcs], bandwidth_mhz, n_rx, detector, scrambler_seed
        )

    def _init_chain(self, entry, bandwidth_mhz, n_rx, detector,
                    scrambler_seed):
        """Shared constructor: geometry, MCS, and training parameters all
        derive from the family's generation data plus the tone plan."""
        family = get_family(self.FAMILY)
        if bandwidth_mhz not in family.data_subcarriers:
            raise ConfigurationError(
                f"{self.FAMILY} bandwidth must be one of "
                f"{sorted(family.data_subcarriers)} MHz, got {bandwidth_mhz}"
            )
        if detector not in ("mmse", "zf", "ml"):
            raise ConfigurationError(f"unknown detector {detector!r}")
        num, den = (int(p) for p in entry.code_rate.split("/"))
        if entry.n_cbps(bandwidth_mhz) * num % den:
            # Mirrors the standard's excluded combinations (e.g. VHT
            # MCS 9 at 20 MHz): the coded bits of one OFDM symbol must
            # carry a whole number of data bits.
            raise ConfigurationError(
                f"{self.FAMILY} {entry.modulation} {entry.code_rate} x"
                f"{entry.spatial_streams} is not valid at {bandwidth_mhz} "
                f"MHz (non-integral data bits per symbol)"
            )
        self.mcs = entry
        self.n_ss = entry.spatial_streams
        self.n_tx = self.n_ss
        self.n_rx = self.n_ss if n_rx is None else int(n_rx)
        if detector in ("mmse", "zf") and self.n_rx < self.n_ss:
            raise ConfigurationError(
                f"linear detection of {self.n_ss} streams needs >= {self.n_ss}"
                f" RX antennas, got {self.n_rx}"
            )
        self.detector = detector
        self.bandwidth_mhz = bandwidth_mhz
        self._family = family
        plan = tone_plan(bandwidth_mhz)
        self.fft_size = plan.fft_size
        self.cp = plan.cp
        self.sample_rate = plan.sample_rate
        self.symbol_samples = self.fft_size + self.cp
        used = plan.used
        self.data_indices = np.array(plan.data)
        self.pilot_indices = np.array(plan.pilots)
        self.n_data_sc = len(self.data_indices)
        self.n_used = len(used)
        self._data_bins = np.array([k % self.fft_size for k in self.data_indices])
        self._pilot_bins = np.array([k % self.fft_size for k in self.pilot_indices])
        self._used_bins = np.array([k % self.fft_size for k in used])
        # LTF values: reuse the legacy +/-1 pattern extended cyclically.
        rng = np.random.default_rng(0x11AC)
        self._ltf_freq = 1.0 - 2.0 * rng.integers(0, 2, self.n_used).astype(float)
        self.modulator = Modulator(entry.bits_per_subcarrier)
        self.scrambler_seed = scrambler_seed
        self.n_cbpss = self.n_data_sc * entry.bits_per_subcarrier  # per stream
        self.n_cbps = self.n_cbpss * self.n_ss
        self.n_dbps = entry.n_dbps(bandwidth_mhz)
        self._n_ltf = N_LTF[self.n_ss]
        p_full = P_HTLTF if self._n_ltf <= 4 else P_VHTLTF
        self._p = p_full[: self.n_ss, : self._n_ltf]

    # -- sizing ------------------------------------------------------------

    def n_symbols(self, psdu_bytes):
        """DATA OFDM symbols for a PSDU of ``psdu_bytes`` bytes."""
        n_bits = 16 + 8 * psdu_bytes + 6
        return int(np.ceil(n_bits / self.n_dbps))

    def n_samples(self, psdu_bytes):
        """Per-antenna waveform length for a PSDU."""
        return (self._n_ltf + self.n_symbols(psdu_bytes)) * self.symbol_samples

    def frame_duration_s(self, psdu_bytes, guard_interval="long"):
        """Air time including the standard's full preamble overhead."""
        preamble_us = self.PREAMBLE_US + 4.0 * self._n_ltf
        sym_us = self._family.symbol_time(guard_interval)
        return (preamble_us + sym_us * self.n_symbols(psdu_bytes)) * 1e-6

    # -- waveform building ---------------------------------------------------

    def _freq_to_time(self, bins):
        return np.fft.ifft(bins, axis=-1) * (self.fft_size / np.sqrt(self.n_used))

    def _time_to_freq(self, samples):
        return np.fft.fft(samples, axis=-1) * (np.sqrt(self.n_used) / self.fft_size)

    def _ofdm_symbol(self, data_carriers):
        """One stream's OFDM symbol (data carriers already scaled)."""
        return self._ofdm_symbols(np.asarray(data_carriers)[None, :])[0]

    def _ofdm_symbols(self, data_carriers):
        """CP-prefixed OFDM symbols for a (n_sym, n_data_sc) carrier block."""
        n_sym = data_carriers.shape[0]
        bins = np.zeros((n_sym, self.fft_size), dtype=np.complex128)
        bins[:, self._data_bins] = data_carriers
        bins[:, self._pilot_bins] = 1.0 / np.sqrt(self.n_ss)
        symbols = self._freq_to_time(bins)
        return np.concatenate([symbols[:, -self.cp :], symbols], axis=1)

    def _ltf_symbols(self, precoders=None):
        """(n_tx, n_ltf * symbol_samples) per-antenna training waveforms.

        When ``precoders`` are supplied (data-subcarrier spatial maps),
        they are applied to the training tones on those subcarriers too,
        so the receiver estimates the *effective* channel H V — exactly
        how closed-loop 11n sounding behaves. Pilot subcarriers keep the
        direct (identity) mapping.

        A precoder may map onto more antennas than the chain's own
        ``n_tx`` (an AP transmitting several users' streams from one
        array); the waveform then has ``precoders.shape[1]`` rows.
        """
        n_out = self.n_tx if precoders is None else int(precoders.shape[1])
        out = np.zeros(
            (n_out, self._n_ltf * self.symbol_samples), dtype=np.complex128
        )
        # Per-used-subcarrier spatial map: identity except on data bins.
        maps = np.tile(np.eye(n_out, self.n_ss, dtype=np.complex128),
                       (self.n_used, 1, 1))
        if precoders is not None:
            used_pos = {b: i for i, b in enumerate(self._used_bins)}
            for c, b in enumerate(self._data_bins):
                maps[used_pos[b]] = precoders[c]
        for n in range(self._n_ltf):
            # Per-subcarrier TX vector: map @ (P column), scaled by LTF tone.
            tx_vec = np.einsum("uts,s->ut", maps, self._p[:, n])
            tx_vec = tx_vec * (self._ltf_freq / np.sqrt(self.n_ss))[:, None]
            bins = np.zeros((n_out, self.fft_size), dtype=np.complex128)
            bins[:, self._used_bins] = tx_vec.T
            sym = self._freq_to_time(bins)
            start = n * self.symbol_samples
            out[:, start + self.cp : start + self.symbol_samples] = sym
            out[:, start : start + self.cp] = sym[:, -self.cp :]
        return out

    # -- stream parser -------------------------------------------------------

    def _parse_streams(self, coded_bits):
        """Round-robin s-bit groups across streams (802.11n stream parser).

        Works along the last axis: ``(..., n_coded)`` coded bits become
        ``(..., n_ss, n_coded / n_ss)`` per-stream bits.
        """
        s = max(self.mcs.bits_per_subcarrier // 2, 1)
        lead = coded_bits.shape[:-1]
        groups = coded_bits.reshape(*lead, -1, self.n_ss, s)
        return np.swapaxes(groups, -3, -2).reshape(*lead, self.n_ss, -1)

    def _deparse_streams(self, streams):
        """Inverse of :meth:`_parse_streams` (operates on soft values too)."""
        s = max(self.mcs.bits_per_subcarrier // 2, 1)
        lead = streams.shape[:-2]
        groups = streams.reshape(*lead, self.n_ss, -1, s)
        return np.swapaxes(groups, -3, -2).reshape(*lead, -1)

    # -- TX -------------------------------------------------------------------

    def transmit(self, psdu, precoders=None):
        """Build the (n_tx, n_samples) HT waveform for a PSDU.

        Parameters
        ----------
        psdu : bytes-like
        precoders : array (n_data_sc, n_tx, n_ss), optional
            Per-data-subcarrier spatial mapping (e.g. SVD beamformers).
            Training symbols are precoded identically so the receiver's
            channel estimate covers the effective channel. Identity
            (direct mapping) when omitted.
        """
        return self._transmit_rows([bytes(psdu)], precoders)[0]

    def transmit_batch(self, psdus):
        """Build the waveforms for a batch of equal-length PSDUs.

        Returns a ``(batch, n_tx, n_samples)`` complex array whose row
        ``i`` is exactly ``transmit(psdus[i])``.
        """
        psdus = [bytes(p) for p in psdus]
        if not psdus:
            raise ConfigurationError("transmit_batch needs at least one PSDU")
        if len({len(p) for p in psdus}) != 1:
            raise ConfigurationError(
                "transmit_batch requires equal-length PSDUs"
            )
        return self._transmit_rows(psdus, None)

    def _transmit_rows(self, psdus, precoders):
        """Encode + parse + modulate + IFFT a batch of same-length PSDUs."""
        batch = len(psdus)
        n_payload_bits = 8 * len(psdus[0])
        n_sym = self.n_symbols(len(psdus[0]))
        # SERVICE (16 zero bits) | payload | six tail zeros | pad zeros.
        data = np.zeros((batch, n_sym * self.n_dbps), dtype=np.int8)
        for row, psdu in enumerate(psdus):
            data[row, 16 : 16 + n_payload_bits] = bits_from_bytes(psdu)
        scrambled = scramble(data, seed=self.scrambler_seed)
        scrambled[:, 16 + n_payload_bits : 22 + n_payload_bits] = 0
        coded = cc.puncture(
            cc.encode(scrambled, terminate=False), rate=self.mcs.code_rate
        )
        streams = self._parse_streams(coded)
        amp = 1.0 / np.sqrt(self.n_ss)
        # Interleave and map every stream and symbol in one shot: the block
        # interleaver permutes each n_cbpss-bit segment independently.
        inter = ht_interleave(
            streams, self.mcs.bits_per_subcarrier, self.bandwidth_mhz
        )
        carriers = self.modulator.modulate(inter).reshape(
            batch, self.n_ss, n_sym, self.n_data_sc
        ) * amp
        if precoders is not None:
            carriers = np.stack([
                np.einsum("cts,sic->tic", precoders, row) for row in carriers
            ])
        n_out = carriers.shape[1]
        data = self._ofdm_symbols(
            carriers.reshape(batch * n_out * n_sym, self.n_data_sc)
        ).reshape(batch, n_out, n_sym * self.symbol_samples)
        ltf = self._ltf_symbols(precoders)
        out = np.empty((batch, n_out, ltf.shape[1] + data.shape[2]),
                       dtype=np.complex128)
        out[:, :, : ltf.shape[1]] = ltf
        out[:, :, ltf.shape[1] :] = data
        return out

    # -- RX -------------------------------------------------------------------

    def estimate_channel(self, ltf_block):
        """Per-used-subcarrier MIMO channel from the HT-LTFs.

        Parameters
        ----------
        ltf_block : array (n_rx, n_ltf * symbol_samples)

        Returns
        -------
        numpy.ndarray of shape (n_used, n_rx, n_ss)
        """
        ltf_block = np.atleast_2d(ltf_block)
        # FFT all (rx, ltf) symbols at once: (n_rx, n_ltf, fft_size).
        body = ltf_block[:, : self._n_ltf * self.symbol_samples].reshape(
            self.n_rx, self._n_ltf, self.symbol_samples
        )[:, :, self.cp :]
        freq = self._time_to_freq(body)
        obs = np.transpose(
            freq[:, :, self._used_bins] / self._ltf_freq, (2, 0, 1)
        )  # (n_used, n_rx, n_ltf)
        # obs = H_eff * P  (per subcarrier);  P P^H = n_ltf I
        h = obs @ self._p.T.conj() / self._n_ltf  # (n_used, n_rx, n_ss)
        return h * np.sqrt(self.n_ss)  # undo the LTF amplitude split

    def receive(self, samples, noise_var, psdu_bytes=None,
                return_details=False):
        """Demodulate an (n_rx, n_samples) waveform back into PSDU bytes.

        Without an HT-SIG header the payload length is inferred from the
        waveform length, which includes the pad region; pass ``psdu_bytes``
        (carried by HT-SIG in the real standard) to truncate exactly.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
        psdus, details, errors = self._receive_rows(
            samples[None], np.array([noise_var], dtype=float), psdu_bytes
        )
        if errors[0] is not None:
            raise errors[0]
        if return_details:
            return psdus[0], details[0]
        return psdus[0]

    def receive_batch(self, samples, noise_vars, psdu_bytes=None):
        """Demodulate a batch of waveforms with one Viterbi sweep.

        Parameters
        ----------
        samples : (batch, n_rx, n_samples) complex array
            One received waveform per row.
        noise_vars : array of float
            Per-row complex noise variance per sample.
        psdu_bytes : int or None
            As for :meth:`receive`.

        Returns
        -------
        list
            Per row, the decoded PSDU ``bytes``, or ``None`` where
            detection failed (the per-packet analogue of the
            :class:`DemodulationError` :meth:`receive` raises). Shape
            errors common to the whole batch still raise.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 3:
            raise ConfigurationError(
                f"receive_batch expects a 3-D batch, got shape {samples.shape}"
            )
        noise_vars = np.broadcast_to(
            np.asarray(noise_vars, dtype=float), (samples.shape[0],)
        )
        psdus, _, _ = self._receive_rows(samples, noise_vars, psdu_bytes)
        return psdus

    def _receive_rows(self, rows, noise_vars, psdu_bytes):
        """Shared receiver over a (batch, n_rx, n_samples) block.

        Each row runs its own front end (channel estimate, FFT,
        detection, demap, deinterleave, deparse); the surviving rows
        then share one Viterbi sweep. Returns parallel lists ``(psdus,
        details, errors)``; a failed row has ``psdus[i] is None`` and
        the would-be exception in ``errors[i]``.
        """
        if rows.shape[1] != self.n_rx:
            raise DemodulationError(
                f"expected {self.n_rx} receive streams, got {rows.shape[1]}"
            )
        if rows.shape[2] < (self._n_ltf + 1) * self.symbol_samples:
            raise DemodulationError("waveform shorter than training + 1 symbol")
        n_sym = rows.shape[2] // self.symbol_samples - self._n_ltf
        n_info = n_sym * self.n_dbps
        n_bytes = (n_info - 16 - 6) // 8
        if psdu_bytes is not None:
            if psdu_bytes > n_bytes:
                raise DemodulationError(
                    f"waveform carries at most {n_bytes} bytes, "
                    f"{psdu_bytes} requested"
                )
            n_bytes = psdu_bytes
        batch = rows.shape[0]
        psdus = [None] * batch
        details = [None] * batch
        errors = [None] * batch
        soft = np.empty((batch, n_sym * self.n_cbps))
        active = []
        for i in range(batch):
            try:
                soft[i], h_data = self._soft_bits(rows[i], noise_vars[i], n_sym)
            except DemodulationError as exc:
                errors[i] = exc
                continue
            active.append(i)
            details[i] = {"channel": h_data, "n_symbols": n_sym}
        if not active:
            return psdus, details, errors
        decoded = cc.viterbi_decode(
            soft[active], n_info, rate=self.mcs.code_rate, terminated=False,
        )
        payload_bits = scramble(decoded, seed=self.scrambler_seed)[
            :, 16 : 16 + 8 * n_bytes
        ]
        for i, bits in zip(active, payload_bits):
            psdus[i] = bytes_from_bits(bits)
        return psdus, details, errors

    def _soft_bits(self, samples, noise_var, n_sym):
        """One row's front end: ``(soft coded bits, data-carrier channel)``."""
        h_all = self.estimate_channel(
            samples[:, : self._n_ltf * self.symbol_samples]
        )
        # Map estimates onto data bins. The estimate includes the 1/sqrt(nss)
        # data amplitude via the sqrt undo above, so fold it back in.
        used_pos = {k: i for i, k in enumerate(self._used_bins)}
        data_rows = np.array([used_pos[b] for b in self._data_bins])
        h_data = h_all[data_rows] / np.sqrt(self.n_ss)  # (n_data_sc, nr, nss)

        carrier_nv = noise_var * self.n_used / self.fft_size
        cursor = self._n_ltf * self.symbol_samples
        bpsc = self.mcs.bits_per_subcarrier
        # FFT every (rx, symbol) block in one call: (n_sym, n_rx, fft_size).
        blocks = samples[
            :, cursor : cursor + n_sym * self.symbol_samples
        ].reshape(self.n_rx, n_sym, self.symbol_samples)[:, :, self.cp :]
        freq = np.transpose(self._time_to_freq(blocks), (1, 0, 2))
        # The channel is constant over the burst, so each subcarrier's
        # detection filter is computed once and applied to all symbols.
        est_all = np.empty(
            (self.n_data_sc, self.n_ss, n_sym), dtype=np.complex128
        )
        nv_all = np.empty((self.n_data_sc, self.n_ss))
        for c in range(self.n_data_sc):
            y_c = freq[:, :, self._data_bins[c]].T  # (n_rx, n_sym)
            h_c = h_data[c]
            if self.detector == "mmse":
                est, sinr = detect_mmse(y_c, h_c, carrier_nv)
                nv_eff = 1.0 / np.maximum(sinr, 1e-12)
            elif self.detector == "zf":
                est, sinr = detect_zero_forcing(y_c, h_c, carrier_nv)
                nv_eff = 1.0 / np.maximum(sinr, 1e-12)
            else:
                est = detect_ml(y_c, h_c, self.modulator.constellation)
                nv_eff = np.full(self.n_ss, 1e-3)
            est_all[c] = est
            nv_all[c] = nv_eff
        # One soft demap for every (subcarrier, stream, symbol) at once.
        nv_full = np.broadcast_to(nv_all[:, :, None], est_all.shape)
        llrs = self.modulator.demodulate_soft(
            est_all.ravel(), np.ascontiguousarray(nv_full).ravel()
        ).reshape(self.n_data_sc, self.n_ss, n_sym, bpsc)
        # llr_sym[k, i, c*bpsc + j] = llrs[c, k, i, j]
        llr_all = np.transpose(llrs, (1, 2, 0, 3)).reshape(
            self.n_ss, n_sym, self.n_cbpss
        )
        soft_streams = ht_deinterleave(
            llr_all, bpsc, self.bandwidth_mhz
        ).reshape(self.n_ss, n_sym * self.n_cbpss)
        return self._deparse_streams(soft_streams), h_data

    def data_rate_mbps(self, guard_interval="long"):
        """PHY rate for this configuration."""
        return self.mcs.data_rate_mbps(self.bandwidth_mhz, guard_interval)


class VhtPhy(HtPhy):
    """802.11ac VHT MIMO-OFDM transceiver.

    The HT chain with the VHT generation's parameters: MCS 0-9 signalled
    independently of the stream count (1-8 streams), 20/40/80/160 MHz
    tone plans, 256-QAM, and the 8-column LTF mapping matrix for 5-8
    streams. All waveform machinery is inherited — only the generation
    data differs.

    Parameters
    ----------
    mcs : int
        VHT MCS index 0-9.
    spatial_streams : int
        1-8.
    bandwidth_mhz : int
        20, 40, 80 or 160.
    n_rx, detector, scrambler_seed :
        As for :class:`HtPhy`.

    Examples
    --------
    >>> phy = VhtPhy(mcs=8, spatial_streams=2, bandwidth_mhz=80, n_rx=2)
    >>> round(phy.data_rate_mbps("short"), 1)
    780.0
    """

    FAMILY = "VHT"
    #: L-STF + L-LTF + L-SIG + VHT-SIG-A + VHT-STF + VHT-SIG-B
    #: = 8+8+4+8+4+4 us, then the VHT-LTFs.
    PREAMBLE_US = 36.0

    def __init__(self, mcs=0, spatial_streams=1, bandwidth_mhz=20,
                 n_rx=None, detector="mmse", scrambler_seed=0x5D):
        entry = get_family(self.FAMILY).mcs(mcs, spatial_streams)
        self._init_chain(entry, bandwidth_mhz, n_rx, detector,
                         scrambler_seed)
