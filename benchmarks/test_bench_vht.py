"""E25/E26 support — 802.11ac VHT waveform chain (extended claim C6).

The paper's arc stops at 802.11n's anticipated 600 Mbps / 15 bps/Hz.
This bench exercises the post-paper continuation at waveform level: a
256-QAM VHT PER waterfall on an 80 MHz channel, and the wide-channel
rate ladder the registry's 802.11ac entry is built from.
"""

import time

from repro.core.link import LinkSimulator

SNRS = [16.0, 24.0, 32.0, 40.0]

#: (name, MCS) pairs for the 80 MHz single-stream waterfall; MCS 8/9 are
#: the 256-QAM points 802.11ac added beyond the HT ladder.
CONFIGS = [("vht80-0", 0), ("vht80-4", 4), ("vht80-8", 8), ("vht80-9", 9)]


def _waterfall():
    table = {}
    for name, _ in CONFIGS:
        sim = LinkSimulator(name, "awgn", rng=17)
        table[name] = [sim.run(snr, n_packets=10, payload_bytes=60).per
                       for snr in SNRS]
    return table


def test_bench_vht_waterfall(benchmark, report):
    table = benchmark.pedantic(_waterfall, rounds=1, iterations=1)
    rates = {name: LinkSimulator(name, "awgn").rate_mbps
             for name, _ in CONFIGS}
    lines = ["SNR (dB):              " + "".join(f"{s:>7.0f}" for s in SNRS)]
    for name, _ in CONFIGS:
        lines.append(f"{name:>8} {rates[name]:>7.1f} Mbps  PER " +
                     "".join(f"{p:>7.2f}" for p in table[name]))
    lines.append("256-QAM 5/6 on 80 MHz: 390 Mbps from one spatial stream")
    report(
        "E25a: 802.11ac VHT PER waterfalls, BPSK to 256-QAM on 80 MHz",
        lines,
        metrics=[
            {"name": "vht80_mcs9_rate", "value": rates["vht80-9"],
             "units": "Mbps"},
            {"name": "vht80_mcs9_per_40db", "value": table["vht80-9"][-1],
             "units": "PER"},
        ],
    )
    # BPSK decodes everywhere on this grid; 256-QAM needs the high end.
    assert table["vht80-0"][-1] == 0.0
    assert table["vht80-9"][-1] <= 0.2
    assert table["vht80-9"][0] >= table["vht80-0"][0]


def test_bench_vht_wide_channel_ladder(benchmark, report):
    """The 20->160 MHz rate ladder behind the registry's 6.93 Gbps."""
    def ladder():
        out = {}
        # MCS 9 at 20 MHz is an excluded combination (non-integral data
        # bits per symbol), exactly as in the real standard; the 20 MHz
        # anchor uses MCS 8 instead.
        for name in ("vht-8", "vht40-9", "vht80-9", "vht160-9"):
            sim = LinkSimulator(name, "awgn", rng=3)
            res = sim.run(42.0, n_packets=4, payload_bytes=60)
            out[name] = (sim.rate_mbps, res.per)
        return out

    out = benchmark.pedantic(ladder, rounds=1, iterations=1)
    lines = [f"{name:>9}: {rate:>7.1f} Mbps (long GI), PER {per:.2f} @ 42 dB"
             for name, (rate, per) in out.items()]
    lines.append("doubling the channel doubles the rate; x8 streams and "
                 "short GI reach 6933 Mbps")
    report("E25b: VHT wide-channel ladder, 256-QAM", lines,
           metrics=[{"name": "vht160_mcs9_rate",
                     "value": out["vht160-9"][0], "units": "Mbps"}])
    widths = [out[n][0] for n in ("vht-8", "vht40-9", "vht80-9",
                                  "vht160-9")]
    assert all(b > 1.9 * a for a, b in zip(widths, widths[1:]))
    assert all(per == 0.0 for _, per in out.values())


#: SNRs spanning the ht-7 (64-QAM 5/6) knee on AWGN.
HT_SNRS = [18.0, 20.0, 22.0]


def _ht_waterfall_timed(vectorized):
    sim = LinkSimulator("ht-7", "awgn", rng=17)
    t0 = time.perf_counter()
    counts = [(r.n_packet_errors, r.n_bit_errors)
              for r in (sim.run(snr, n_packets=8, payload_bytes=1000,
                                vectorized=vectorized) for snr in HT_SNRS)]
    return time.perf_counter() - t0, counts


def test_bench_ht_batching_speedup(benchmark, report):
    """Batched HT receive (one Viterbi sweep per MC batch) vs per-packet.

    Both paths draw payload, channel and noise in the same order and the
    trellis rows are independent, so every error count must agree; the
    batched path only amortises the Viterbi sweep over the batch.
    """
    _ht_waterfall_timed(True)  # warm the cached kernels before timing

    def both():
        t_scalar, counts_scalar = _ht_waterfall_timed(False)
        t_batched, counts_batched = _ht_waterfall_timed(True)
        return t_scalar, t_batched, counts_scalar, counts_batched

    t_scalar, t_batched, counts_scalar, counts_batched = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    speedup = t_scalar / t_batched
    report(
        "E25c: batched HT receive vs per-packet simulation (ht-7, AWGN)",
        [f"per-packet {t_scalar:.3f} s for 3 SNRs x 8 packets x 1000 B",
         f"batched    {t_batched:.3f} s  ->  {speedup:.2f}x single-core",
         "packet and bit error counts identical at every SNR"],
        metrics=[
            {"name": "ht_scalar_waterfall", "value": t_scalar, "units": "s"},
            {"name": "ht_batched_waterfall", "value": t_batched,
             "units": "s"},
            {"name": "ht_batching_speedup", "value": speedup, "units": "x"},
        ],
    )
    assert counts_scalar == counts_batched
    # Loose CI floor; on a 2-vCPU host with numpy kernels it runs ~3x.
    assert speedup >= 1.5

