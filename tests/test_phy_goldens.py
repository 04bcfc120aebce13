"""Bit-exactness goldens for the vectorized PHY kernels (PR 5).

``tests/goldens/phy_goldens.npz`` was captured by running
``tests/goldens/generate_phy_goldens.py`` against the pre-refactor scalar
kernels. Every case here replays an input from the archive through the
current (vectorized) code and asserts the output is EXACTLY equal — same
bits for integer arrays, same ULPs for floats. A vectorization that
reorders a floating-point reduction fails these tests; that is the point.
"""

import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.channel.awgn import awgn_noise
from repro.core.link import LinkSimulator
from repro.errors import DemodulationError
from repro.phy import convolutional as cc
from repro.phy.dsss_ppdu import HrDsssPpdu
from repro.phy.interleaver import (
    deinterleave,
    ht_deinterleave,
    ht_interleave,
    interleave,
)
from repro.phy.mimo.ht import HtPhy, VhtPhy
from repro.phy.modulation import Modulator
from repro.phy.ofdm import OFDM_RATES, OfdmPhy
from repro.phy.ofdm_ldpc import LdpcOfdmPhy
from repro.phy.scrambler import scrambler_sequence

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens",
                            "phy_goldens.npz")

PAYLOAD_BYTES = 40
HT_MCS_CASES = (0, 5, 8, 13)


@pytest.fixture(scope="module")
def gold():
    return np.load(GOLDENS_PATH)


def _payload(gold):
    return gold["payload"].tobytes()


class TestScramblerGoldens:
    @pytest.mark.parametrize("seed", [1, 64, 0x5D, 0x7F])
    def test_sequence(self, gold, seed):
        assert_array_equal(scrambler_sequence(300, seed=seed),
                           gold[f"scr_{seed}"])


class TestInterleaverGoldens:
    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_interleave(self, gold, rate):
        r = OFDM_RATES[rate]
        got = interleave(gold[f"il_{rate}_in"], r.n_cbps,
                         r.bits_per_subcarrier)
        assert_array_equal(got, gold[f"il_{rate}_out"])

    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_deinterleave(self, gold, rate):
        r = OFDM_RATES[rate]
        got = deinterleave(gold[f"dil_{rate}_in"], r.n_cbps,
                           r.bits_per_subcarrier)
        assert_array_equal(got, gold[f"dil_{rate}_out"])

    @pytest.mark.parametrize("bpsc", [1, 2, 4, 6])
    @pytest.mark.parametrize("bw", [20, 40])
    def test_ht_interleave(self, gold, bpsc, bw):
        got = ht_interleave(gold[f"htil_{bpsc}_{bw}_in"], bpsc, bw)
        assert_array_equal(got, gold[f"htil_{bpsc}_{bw}_out"])
        got = ht_deinterleave(gold[f"htdil_{bpsc}_{bw}_in"], bpsc, bw)
        assert_array_equal(got, gold[f"htdil_{bpsc}_{bw}_out"])


class TestModulationGoldens:
    @pytest.mark.parametrize("bps", [1, 2, 4, 6])
    def test_modulate(self, gold, bps):
        mod = Modulator(bps)
        assert_array_equal(mod.modulate(gold[f"mod_{bps}_bits"]),
                           gold[f"mod_{bps}_syms"])

    @pytest.mark.parametrize("bps", [1, 2, 4, 6])
    def test_demodulate(self, gold, bps):
        mod = Modulator(bps)
        noisy = gold[f"mod_{bps}_noisy"]
        assert_array_equal(mod.demodulate_hard(noisy),
                           gold[f"mod_{bps}_hard"])
        assert_array_equal(mod.demodulate_soft(noisy, 0.02),
                           gold[f"mod_{bps}_soft_scalar"])
        assert_array_equal(mod.demodulate_soft(noisy, gold[f"mod_{bps}_nv"]),
                           gold[f"mod_{bps}_soft_vec"])


class TestConvolutionalGoldens:
    def test_encode(self, gold):
        info = gold["cc_in"]
        assert_array_equal(cc.encode(info, terminate=True),
                           gold["cc_enc_term"])
        assert_array_equal(cc.encode(info, terminate=False),
                           gold["cc_enc_unterm"])

    @pytest.mark.parametrize("tag,rate", [("12", "1/2"), ("23", "2/3"),
                                          ("34", "3/4"), ("56", "5/6")])
    def test_viterbi(self, gold, tag, rate):
        got = cc.viterbi_decode(gold[f"cc_soft_{tag}"], 500, rate=rate)
        assert_array_equal(got, gold[f"cc_dec_{tag}"])


class TestOfdmGoldens:
    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_transmit(self, gold, rate):
        wave = OfdmPhy(rate).transmit(_payload(gold))
        assert_array_equal(wave, gold[f"ofdm_tx_{rate}"])

    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_receive(self, gold, rate):
        phy = OfdmPhy(rate)
        psdu = phy.receive(gold[f"ofdm_noisy_{rate}"],
                           float(gold[f"ofdm_nv_{rate}"]))
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold[f"ofdm_dec_{rate}"])


class TestHtGoldens:
    @pytest.mark.parametrize("mcs", HT_MCS_CASES)
    def test_transmit(self, gold, mcs):
        streams = mcs // 8 + 1
        phy = HtPhy(mcs=mcs, n_rx=streams, detector="mmse")
        assert_array_equal(phy.transmit(_payload(gold)),
                           gold[f"ht_tx_{mcs}"])

    @pytest.mark.parametrize("mcs", HT_MCS_CASES)
    def test_receive(self, gold, mcs):
        streams = mcs // 8 + 1
        phy = HtPhy(mcs=mcs, n_rx=streams, detector="mmse")
        psdu = phy.receive(gold[f"ht_rx_{mcs}"], float(gold[f"ht_nv_{mcs}"]),
                           psdu_bytes=PAYLOAD_BYTES)
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold[f"ht_dec_{mcs}"])


class TestLdpcOfdmGoldens:
    def test_transmit(self, gold):
        phy = LdpcOfdmPhy(bits_per_subcarrier=2, block_length=648,
                          code_rate="1/2")
        assert_array_equal(phy.transmit(_payload(gold)), gold["ldpcofdm_tx"])

    def test_receive(self, gold):
        phy = LdpcOfdmPhy(bits_per_subcarrier=2, block_length=648,
                          code_rate="1/2")
        psdu = phy.receive(gold["ldpcofdm_noisy"],
                           float(gold["ldpcofdm_nv"]),
                           psdu_bytes=PAYLOAD_BYTES)
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold["ldpcofdm_dec"])


class TestDsssPpduGoldens:
    def test_header_and_roundtrip(self, gold):
        ppdu = HrDsssPpdu(11)
        assert_array_equal(ppdu._preamble_and_header_bits(PAYLOAD_BYTES),
                           gold["ppdu_header_bits"])
        wave = ppdu.transmit(_payload(gold))
        assert_array_equal(wave, gold["ppdu_tx"])
        assert_array_equal(np.frombuffer(ppdu.receive(wave), dtype=np.uint8),
                           gold["ppdu_dec"])


class TestLinkMcGoldens:
    """Fixed-budget MC runs must stay bit-identical to the scalar era."""

    def _cases(self, gold):
        names = [str(s) for s in gold["link_case_names"]]
        for name, counts in zip(names, gold["link_cases"]):
            phy, chan, seed, snr, n_pkt, n_bytes = name.split("|")
            yield (phy, chan, int(seed), float(snr), int(n_pkt),
                   int(n_bytes), tuple(int(c) for c in counts))

    def test_fixed_budget_counts(self, gold):
        for phy, chan, seed, snr, n_pkt, n_bytes, want in self._cases(gold):
            res = LinkSimulator(phy, chan, rng=seed).run(
                snr, n_packets=n_pkt, payload_bytes=n_bytes)
            got = (res.n_packets, res.n_packet_errors, res.n_bit_errors)
            assert got == want, f"{phy}/{chan} seed {seed}: {got} != {want}"

    def test_batched_matches_scalar_path(self, gold):
        """The vectorized trial path equals the per-packet loop exactly."""
        for phy, chan in [("ofdm-54", "awgn"), ("ofdm-12", "rayleigh"),
                          ("ofdm-24", "tgn-C")]:
            fast = LinkSimulator(phy, chan, rng=31).run(
                14.0, n_packets=10, payload_bytes=50)
            slow = LinkSimulator(phy, chan, rng=31).run(
                14.0, n_packets=10, payload_bytes=50, vectorized=False)
            assert (fast.n_packet_errors, fast.n_bit_errors) == \
                   (slow.n_packet_errors, slow.n_bit_errors)

    @pytest.mark.parametrize("phy,chan,n_rx,snr", [
        ("ht-7", "awgn", None, 19.0),
        ("ht-15", "tgn-C", None, 24.0),
        ("vht80-9", "awgn", None, 24.0),
        ("ht-8", "rayleigh", None, 4.0),
        ("ht-1", "awgn", 2, 1.0),  # receive diversity: the tile branch
    ])
    def test_batched_matches_scalar_path_ht(self, gold, phy, chan, n_rx,
                                            snr):
        """HT/VHT links: the batched path equals the per-packet loop."""
        fast = LinkSimulator(phy, chan, n_rx=n_rx, rng=31).run(
            snr, n_packets=10, payload_bytes=50)
        slow = LinkSimulator(phy, chan, n_rx=n_rx, rng=31).run(
            snr, n_packets=10, payload_bytes=50, vectorized=False)
        assert (fast.n_packet_errors, fast.n_bit_errors) == \
               (slow.n_packet_errors, slow.n_bit_errors)

    def test_ht_defaults_to_batched_path(self, gold, monkeypatch):
        def per_packet(*args, **kwargs):
            raise AssertionError("per-packet path taken")

        monkeypatch.setattr(LinkSimulator, "_send_packet", per_packet)
        for phy in ("ht-7", "vht80-9"):
            LinkSimulator(phy, "awgn", rng=1).run(
                19.0, n_packets=2, payload_bytes=20)

    def test_batched_matches_scalar_adaptive_ht(self, gold):
        """A precision-targeted HT run stops at the same trial count."""
        kw = dict(precision=0.4, max_trials=80, batch_size=10,
                  payload_bytes=50)
        fast = LinkSimulator("ht-7", "awgn", rng=8).run(19.0, **kw)
        slow = LinkSimulator("ht-7", "awgn", rng=8).run(
            19.0, vectorized=False, **kw)
        assert fast.mc.n_trials == slow.mc.n_trials
        assert fast.mc.stop_reason == slow.mc.stop_reason == "precision"
        assert (fast.n_packet_errors, fast.n_bit_errors) == \
               (slow.n_packet_errors, slow.n_bit_errors)


class TestBatchedWaveformEquivalence:
    """transmit_batch/receive_batch equal per-packet transmit/receive."""

    def test_ofdm_transmit_batch(self, gold):
        rng = np.random.default_rng(9)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(4)]
        phy = OfdmPhy(24)
        batch = phy.transmit_batch(payloads)
        for i, p in enumerate(payloads):
            assert_array_equal(batch[i], phy.transmit(p))

    def test_ofdm_receive_batch(self, gold):
        rng = np.random.default_rng(10)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(4)]
        phy = OfdmPhy(36)
        waves = phy.transmit_batch(payloads)
        noise_var = np.full(4, float(np.mean(np.abs(waves) ** 2))
                            / 10.0 ** (20.0 / 10.0))
        noisy = waves + awgn_noise(waves.shape, noise_var[0], rng)
        got = phy.receive_batch(noisy, noise_var)
        for i, p in enumerate(payloads):
            assert got[i] == phy.receive(noisy[i], noise_var[i])

    @staticmethod
    def _ht_payloads(seed, n=4, size=30):
        rng = np.random.default_rng(seed)
        return rng, [bytes(rng.integers(0, 256, size, dtype=np.uint8).tolist())
                     for _ in range(n)]

    @pytest.mark.parametrize("phy", [
        HtPhy(mcs=5), HtPhy(mcs=13, n_rx=2),
        VhtPhy(mcs=9, spatial_streams=1, bandwidth_mhz=80),
    ], ids=["ht-5", "ht-13-2x2", "vht80-9"])
    def test_ht_transmit_batch(self, gold, phy):
        _, payloads = self._ht_payloads(11)
        batch = phy.transmit_batch(payloads)
        assert batch.shape[:2] == (len(payloads), phy.n_tx)
        for i, p in enumerate(payloads):
            assert_array_equal(batch[i], phy.transmit(p))

    @pytest.mark.parametrize("phy,snr_db", [
        (HtPhy(mcs=5), 16.0), (HtPhy(mcs=13, n_rx=2), 22.0),
        (VhtPhy(mcs=9, spatial_streams=1, bandwidth_mhz=80), 25.0),
    ], ids=["ht-5", "ht-13-2x2", "vht80-9"])
    def test_ht_receive_batch(self, gold, phy, snr_db):
        rng, payloads = self._ht_payloads(12)
        waves = phy.transmit_batch(payloads)
        nv = float(np.mean(np.abs(waves) ** 2)) * phy.n_tx / 10 ** (snr_db / 10)
        noisy = waves + awgn_noise(waves.shape, nv, rng)
        noise_vars = np.full(len(payloads), nv)
        got = phy.receive_batch(noisy, noise_vars, psdu_bytes=30)
        for i in range(len(payloads)):
            assert got[i] == phy.receive(noisy[i], nv, psdu_bytes=30)
        assert any(g == p for g, p in zip(got, payloads))

    def test_ht_failed_row_is_none(self, gold):
        """A row whose detection fails comes back None; the others decode."""
        phy = HtPhy(mcs=13, n_rx=2)
        _, payloads = self._ht_payloads(13, n=3)
        waves = phy.transmit_batch(payloads)
        waves[1] = 0.0  # a dead capture: MMSE detection collapses
        with pytest.raises(DemodulationError):
            phy.receive(waves[1], 1e-3, psdu_bytes=30)
        got = phy.receive_batch(waves, np.full(3, 1e-3), psdu_bytes=30)
        assert got[1] is None
        assert got[0] == payloads[0] and got[2] == payloads[2]
