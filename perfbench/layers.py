"""Per-layer timing for traced benchmark runs.

Each layer of the program is timed by wrapping its public functions
where their callers look them up: a module attribute for functions the
caller reaches through a module (``cc.viterbi_decode``) or imported by
name (``deinterleave`` inside ``repro.phy.ofdm``), a class attribute for
methods. Nothing under ``src/`` changes, and every wrapper returns the
wrapped call's result untouched, so a traced run computes exactly what
an untraced one does (the benchmark checks this through result digests).

A layer's self time is the time spent inside its wrapped calls minus
the time spent inside wrapped calls they made. Wrapped calls are
assumed to run on one thread; the workloads call every wrapped function
from their main thread.
"""

import functools
import time
from contextlib import contextmanager

import numpy as np


def _viterbi_work(args, kwargs, out):
    """(rows, information bits) decoded by one ``viterbi_decode`` call."""
    rows = 1 if np.ndim(out) == 1 else int(np.shape(out)[0])
    n_info = kwargs.get("n_info_bits", args[1] if len(args) > 1 else 0)
    return {"rows": rows, "bits": rows * int(n_info)}


def _demap_work(args, kwargs, out):
    """LLRs produced by one ``Modulator.demodulate_soft`` call."""
    return {"llrs": int(np.size(out))}


def _per_at_work(args, kwargs, out):
    """SNR values looked up by one ``AbstractLink.per_at`` call."""
    return {"lookups": int(np.size(args[1]))}


def layer_table():
    """``[(layer, owner, attribute, work)]`` for every wrapped function.

    ``owner`` is the module or class the caller looks the attribute up
    on; ``work`` optionally returns per-call work counts.
    """
    from repro.campaign import store
    from repro.core import link
    from repro.mesh import coverage, network
    from repro.phy import convolutional, modulation, ofdm
    from repro.phy.mimo import ht
    from repro.surrogate import abstract_link

    return [
        ("phy.convolutional.viterbi", convolutional, "viterbi_decode",
         _viterbi_work),
        ("phy.convolutional.encode", convolutional, "encode", None),
        ("phy.convolutional.encode", convolutional, "puncture", None),
        ("phy.modulation.map", modulation.Modulator, "modulate", None),
        ("phy.modulation.demap", modulation.Modulator, "demodulate_soft",
         _demap_work),
        ("phy.interleaver", ofdm, "interleave", None),
        ("phy.interleaver", ofdm, "deinterleave", None),
        ("phy.interleaver", ht, "ht_interleave", None),
        ("phy.interleaver", ht, "ht_deinterleave", None),
        ("phy.scrambler", ofdm, "scramble", None),
        ("phy.scrambler", ht, "scramble", None),
        ("phy.ofdm", ofdm.OfdmPhy, "transmit", None),
        ("phy.ofdm", ofdm.OfdmPhy, "transmit_batch", None),
        ("phy.ofdm", ofdm.OfdmPhy, "receive", None),
        ("phy.ofdm", ofdm.OfdmPhy, "receive_batch", None),
        ("phy.mimo", ht.HtPhy, "transmit", None),
        ("phy.mimo", ht.HtPhy, "receive", None),
        ("phy.mimo.detection", ht, "detect_mmse", None),
        ("phy.mimo.detection", ht, "detect_zero_forcing", None),
        ("phy.mimo.detection", ht, "detect_ml", None),
        ("channel", link.LinkSimulator, "_apply_channel", None),
        ("channel", link, "awgn_noise", None),
        ("channel", link, "tgn_channel", None),
        ("core.link", link.LinkSimulator, "run", None),
        ("campaign.store.append", store.ResultsStore, "append", None),
        ("campaign.store.scan", store.ResultsStore, "load", None),
        ("surrogate.per_at", abstract_link.AbstractLink, "per_at",
         _per_at_work),
        ("mesh.network.build", network.MeshNetwork, "__init__", None),
        ("mesh.coverage", coverage, "coverage_result", None),
    ]


class LayerTimer:
    """Accumulates self time, call counts and work counts per layer."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def layer(self, name):
        """The stats dict of layer ``name`` (created on first use)."""
        return self.stats.setdefault(name, {"self_s": 0.0, "calls": 0})

    def wrap(self, name, fn, work=None):
        """``fn`` wrapped so its calls are charged to layer ``name``."""
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self.layer(name)
                stats["self_s"] += elapsed - children[0]
                stats["calls"] += 1
            if work is not None:
                for key, value in work(args, kwargs, out).items():
                    stats[key] = stats.get(key, 0) + value
            return out

        return timed

    @contextmanager
    def installed(self):
        """Wrap every function of :func:`layer_table`; unwrap on exit."""
        saved = []
        try:
            for name, owner, attr, work in layer_table():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
