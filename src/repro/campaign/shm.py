"""Shared-memory base draws for campaign workers.

A link-grid campaign's points all consume the same per-trial base draws
(payload bytes, flat-fading coefficient, noise normals — see
:func:`repro.core.link.grid_trial_draws`): common random numbers across
the grid. Without sharing, every worker regenerates those arrays for
every point it runs. A :class:`SharedDrawPool` materialises them once
in the parent into a :class:`multiprocessing.shared_memory.SharedMemory`
block; queue workers attach at spawn (the block *name* travels in the
worker args — a few bytes instead of megabytes re-pickled per work
unit) and slice views out of it for the trials each point needs.

The pool is an optimisation, never a semantic: draws are addressed by
``(entropy, trial index)`` substreams, so a grid that finds no pool —
or one whose entropy/shape doesn't cover it — regenerates locally and
produces bit-identical records. ``repro campaign run --workers N`` with
and without the pool, and the inline ``--workers 1`` run (which never
builds one), all store the same bytes.

Enabling it: give every point of a ``link-grid`` campaign the same
integer ``draw_seed`` param (:data:`POOL_PARAM`). The local queue then
plans a pool covering the campaign's maximum trial count
and sample length (:func:`plan_pool`), creates it before spawning
workers, and unlinks it after the run. Pools above
:data:`MAX_POOL_BYTES` are skipped — regeneration beats swapping.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator

#: Point param that opts a link-grid campaign into shared draws. All
#: points must carry the same value — it seeds the campaign-wide
#: common-random-number stream (and enters the cache key like any
#: other param, so changing it recomputes the grid).
POOL_PARAM = "draw_seed"

#: Hard cap on pool size; beyond this regeneration is cheaper than the
#: memory pressure.
MAX_POOL_BYTES = 256 * 1024 * 1024

_SUPPORTED_CHANNELS = ("awgn", "rayleigh")

#: The worker's attached pool (set once at spawn, read by point
#: functions via :func:`attached_pool`).
_ATTACHED = None


def pool_entropy(draw_seed):
    """The trial-substream entropy a grid derives from ``draw_seed``.

    Matches :func:`repro.core.link.run_link_grid` passing
    ``rng=draw_seed``: one ``integers`` draw off the seeded generator.
    """
    return int(as_generator(int(draw_seed)).integers(0, 2 ** 63))


class SharedDrawPool:
    """Per-trial base draws in one cross-process shared-memory block.

    Layout (C-order, one block): ``(n_trials, payload_bytes)`` uint8
    payloads, ``(n_trials,)`` complex128 fading coefficients, then
    ``(n_trials, n_max)`` complex128 unscaled noise. Filled from the
    same substreams :func:`~repro.core.link.grid_trial_draws` uses, so
    a pool slice and a local regeneration are byte-identical.
    """

    def __init__(self, block, meta, owner):
        self._block = block
        self._meta = dict(meta)
        self._owner = owner
        n_trials = meta["n_trials"]
        payload_bytes = meta["payload_bytes"]
        n_max = meta["n_max"]
        buf = block.buf
        off = 0
        self._payloads = np.ndarray((n_trials, payload_bytes),
                                    dtype=np.uint8, buffer=buf, offset=off)
        off += n_trials * payload_bytes
        self._hs = np.ndarray((n_trials,), dtype=np.complex128,
                              buffer=buf, offset=off)
        off += n_trials * 16
        self._noise = np.ndarray((n_trials, n_max), dtype=np.complex128,
                                 buffer=buf, offset=off)

    @staticmethod
    def nbytes(n_trials, payload_bytes, n_max):
        """Block size for the given pool dimensions."""
        return n_trials * payload_bytes + n_trials * 16 + n_trials * n_max * 16

    @classmethod
    def create(cls, draw_seed, n_trials, payload_bytes, n_max,
               channel="awgn"):
        """Materialise a pool in the calling (parent) process."""
        from multiprocessing import shared_memory

        from repro.core.link import grid_trial_draws

        n_trials = int(n_trials)
        payload_bytes = int(payload_bytes)
        n_max = int(n_max)
        if min(n_trials, payload_bytes, n_max) < 1:
            raise ConfigurationError(
                "pool dimensions must be positive, got "
                f"n_trials={n_trials}, payload_bytes={payload_bytes}, "
                f"n_max={n_max}")
        if channel not in _SUPPORTED_CHANNELS:
            raise ConfigurationError(
                f"draw pools support {_SUPPORTED_CHANNELS}, got "
                f"{channel!r}")
        size = cls.nbytes(n_trials, payload_bytes, n_max)
        if size > MAX_POOL_BYTES:
            raise ConfigurationError(
                f"draw pool of {size} bytes exceeds the "
                f"{MAX_POOL_BYTES}-byte cap")
        entropy = pool_entropy(draw_seed)
        block = shared_memory.SharedMemory(create=True, size=size)
        meta = {"name": block.name, "entropy": entropy,
                "n_trials": n_trials, "payload_bytes": payload_bytes,
                "n_max": n_max, "channel": channel}
        pool = cls(block, meta, owner=True)
        for t in range(n_trials):
            payload, h, noise = grid_trial_draws(
                entropy, t, payload_bytes, n_max, channel)
            pool._payloads[t] = np.frombuffer(payload, dtype=np.uint8)
            pool._hs[t] = h
            pool._noise[t] = noise
        obs.counter("campaign.shm.pool_bytes", size)
        return pool

    @classmethod
    def attach(cls, meta):
        """Map an existing pool by the metadata the parent shipped."""
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=meta["name"])
        return cls(block, meta, owner=False)

    @property
    def meta(self):
        """Picklable handle (name + shape + entropy) for worker attach."""
        return dict(self._meta)

    def arrays(self):
        """``(payloads, hs, noise)`` views into the shared block."""
        return self._payloads, self._hs, self._noise

    def covers(self, entropy, n_trials, payload_bytes, n_max, channel):
        """True when this pool can serve a grid with these draws.

        The trial count and sample length may be *smaller* than the
        pool's (per-trial substreams and interleaved noise make pool
        prefixes exact); entropy, payload size and channel must match.
        """
        return (self._meta["entropy"] == int(entropy)
                and self._meta["payload_bytes"] == int(payload_bytes)
                and self._meta["channel"] == channel
                and self._meta["n_trials"] >= int(n_trials)
                and self._meta["n_max"] >= int(n_max))

    def close(self):
        """Drop this process's mapping (keeps the block alive)."""
        self._payloads = self._hs = self._noise = None
        self._block.close()

    def destroy(self):
        """Close and unlink — creator-side teardown."""
        self.close()
        if self._owner:
            try:
                self._block.unlink()
            except FileNotFoundError:
                pass


def plan_pool(spec, todo):
    """Pool creation kwargs for a campaign's uncached points, or None.

    A pool is worth building only when every point opted in with the
    same ``draw_seed`` and the grid is homogeneous where the layout
    needs it (payload size, channel). Returns ``None`` — never raises —
    for campaigns the pool cannot serve; they run exactly as before.
    """
    if spec.kind != "link-grid" or not todo:
        return None
    params = [pt.params for _, pt in todo]
    seeds = {p.get(POOL_PARAM) for p in params}
    if len(seeds) != 1:
        return None
    seed = seeds.pop()
    if seed is None:
        return None
    payloads = {int(p.get("payload_bytes", 100)) for p in params}
    channels = {p.get("channel", "awgn") for p in params}
    if len(payloads) != 1 or len(channels) != 1:
        return None
    payload_bytes = payloads.pop()
    channel = channels.pop()
    if channel not in _SUPPORTED_CHANNELS:
        return None
    try:
        from repro.core.link import LinkSimulator

        n_max = 0
        for p in params:
            sim = LinkSimulator(p["phy"], channel)
            if sim._kind != "ofdm":
                return None
            n_max = max(n_max, sim._phy.n_samples(payload_bytes))
    except Exception:
        return None
    n_trials = max(int(p.get("n_packets", 100)) for p in params)
    if SharedDrawPool.nbytes(n_trials, payload_bytes, n_max) > \
            MAX_POOL_BYTES:
        return None
    return {"draw_seed": int(seed), "n_trials": n_trials,
            "payload_bytes": payload_bytes, "n_max": n_max,
            "channel": channel}


def attach_pool(meta):
    """Worker-side: map the parent's pool and make it ambient."""
    global _ATTACHED
    detach_pool()
    _ATTACHED = SharedDrawPool.attach(meta)
    return _ATTACHED


def attached_pool():
    """The pool this process attached at spawn, or None."""
    return _ATTACHED


def detach_pool():
    """Drop the ambient pool mapping (worker exit)."""
    global _ATTACHED
    if _ATTACHED is not None:
        _ATTACHED.close()
        _ATTACHED = None
