"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ofdm-waterfall --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every operation untraced and then traced at the same
seed and prints the per-layer metrics. The second-to-last line of
standard output records the environment, the seeds and the workload's
own named metrics; the last line is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Every run also measures a second seed derived from ``--seed``. Stores,
traces and status files live in ``.perfbench_tmp/`` under the checkout
and are removed when the run ends. See ``perfbench/README.md`` for what
each metric measures.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, OpResult

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: The second seed of a run is ``--seed`` plus this offset.
SECOND_SEED_OFFSET = 1_000_003
#: Set-up is timed in this many fresh interpreters; the median is kept.
SETUP_REPEATS = 3
#: Hard wall-clock limit of one run, seconds.
RUN_DEADLINE_S = 170.0
#: How long the measuring child may run past ``--seconds`` before it
#: and its queue workers are killed and its operation counted as failed.
GRACE_S = 60.0

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "phy.convolutional.viterbi", "phy.modulation.demap",
    "phy.convolutional.encode", "phy.modulation.map", "phy.interleaver",
    "phy.scrambler", "phy.ofdm", "phy.mimo", "phy.mimo.detection",
    "channel", "core.link", "mesh.coverage",
)


#: Math libraries run one thread each, so the measuring process and the
#: campaign's queue workers never run more threads than there are CPUs.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def child_env():
    """Environment for child interpreters: the checkout's ``src`` first,
    math libraries on one thread."""
    env = dict(os.environ, **SINGLE_THREADED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def kill_session(proc):
    """Kill ``proc``'s whole session and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # Grandchildren are reparented away from us once the leader exits;
    # wait for the group itself to empty.
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(mode, workload, seeds, timeout, *extra):
    """Run ``perfbench/child.py`` in its own session.

    Returns ``(header, lines, timed_out)``: the child's set-up header
    (``None`` if it never got that far) and its other output lines. On
    timeout the child and everything it started are killed.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, workload,
         "--seeds", *map(str, seeds), *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
        timed_out = False
    except subprocess.TimeoutExpired:
        kill_session(proc)
        out, _ = proc.communicate()
        timed_out = True
    kill_session(proc)  # leftovers of a child that exited normally
    if proc.returncode and not timed_out:
        raise RuntimeError(f"{mode} child for {workload} exited "
                           f"{proc.returncode}")
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut short by the kill
    header = lines.pop(0) if lines else None
    return header, lines, timed_out


def run_workload(workload, seeds, seconds, trace, tmp, deadline):
    """Time set-up in fresh interpreters, then measure operations.

    The measuring child's own set-up is one of the set-up samples.
    Returns ``(ops, setup_s, peak_rss_mb, environment)``.
    """
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        header, _, timed_out = run_child("setup", workload, seeds,
                                         deadline - time.monotonic())
        if timed_out:
            raise RuntimeError(f"{workload} set-up overran the deadline")
        setups.append(header["setup_s"])
    header, lines, timed_out = run_child(
        "measure", workload, seeds,
        min(seconds + GRACE_S, deadline - time.monotonic()),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--tmp", str(tmp))
    ops = [OpResult(**line["op"]) for line in lines if "op" in line]
    peaks = [line["peak_rss_mb"] for line in lines if "peak_rss_mb" in line]
    if header is not None:
        setups.append(header["setup_s"])
    if timed_out:
        # The operation in flight is lost: count it attempted and failed.
        n = WORKLOADS[workload].attempts_per_op
        ops.append(OpResult(seed=seeds[0], units=0, wall_s=0.0, cpu_s=0.0,
                            digest="", attempted=n, failed=n, traced=None))
        print(f"perfbench: {workload} overran its deadline; the child and "
              f"its workers were killed", file=sys.stderr)
    if not peaks:  # killed before it could report: its lifetime peak
        peaks = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                 / 1024.0]
    env = header["environment"] if header else None
    return ops, statistics.median(setups), peaks[0], env


def check_digests(ops):
    """Every operation at one seed, traced or not, gave the same results."""
    problems = []
    by_seed = {}
    for op in ops:
        if op.digest:
            by_seed.setdefault(op.seed, set()).add((op.traced, op.digest))
    for seed, seen in by_seed.items():
        if len({d for _, d in seen}) > 1:
            kinds = sorted({"traced" if t else "untraced" for t, _ in seen})
            problems.append(f"seed {seed}: {' and '.join(kinds)} repeats "
                            f"gave different results digests")
    return problems


def median_of(values):
    """Median of a non-empty list; 0.0 for an empty one."""
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup_s, rss_mb):
    """The end-to-end metrics, from the untraced operations."""
    plain = [op for op in ops if op.traced is False and op.cpu_s > 0]
    return {
        "setup_s": setup_s,
        "throughput_per_cpu_s": median_of([op.units / op.cpu_s
                                           for op in plain]),
        "peak_rss_mb": rss_mb,
    }


def named_metrics(workload, ops):
    """The workload's wall-clock rates under the names its users know."""
    named = {}
    plain = [op for op in ops if op.traced is False and op.wall_s > 0]
    rate = median_of([op.units / op.wall_s for op in plain])
    if workload.endswith("waterfall"):
        named["packets_per_s"] = (rate, "1/s")
    elif workload == "surrogate-mesh":
        named["samples_per_s"] = (rate, "1/s")
    else:
        named["points_per_s"] = (median_of(
            [op.extra["points1"] / op.extra["wall1_s"] for op in plain]),
            "1/s")
        named["extend_points_per_s"] = (median_of(
            [op.extra["new_points"] / op.extra["wall2_s"] for op in plain]),
            "1/s")
        named["first_record_s"] = (median_of(
            [op.extra["first_record_s"] for op in plain]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def per_layer(ops):
    """The per-layer metrics, averaged over the traced operations."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if op.traced is False]
    n = max(len(traced), 1)
    totals = {}
    for op in traced:
        for layer, stats in (op.layers or {}).items():
            acc = totals.setdefault(layer, {})
            for key, value in stats.items():
                acc[key] = acc.get(key, 0) + value

    def stat(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": stat(layer, "self_s") / n
         for layer in SELF_TIME_LAYERS}
    vit = "phy.convolutional.viterbi"
    m[f"{vit}.calls"] = stat(vit, "calls") / n
    m[f"{vit}.us_per_bit"] = ratio(1e6 * stat(vit, "self_s"),
                                   stat(vit, "bits"))
    m[f"{vit}.rows_per_call"] = ratio(stat(vit, "rows"), stat(vit, "calls"))
    demap = "phy.modulation.demap"
    m[f"{demap}.ns_per_llr"] = ratio(1e9 * stat(demap, "self_s"),
                                     stat(demap, "llrs"))
    m["mc.packets"] = sum(op.packets for op in traced) / n
    m["analysis.analytic_cells"] = sum(op.analytic for op in traced) / n

    campaign = [op for op in traced if "workers" in op.extra]
    m["campaign.cache_hit_ratio"] = ratio(
        sum(op.extra["cache_hit_ratio"] for op in campaign), len(campaign))
    append = "campaign.store.append"
    m[f"{append}.calls"] = stat(append, "calls") / n
    m[f"{append}.us_per_record"] = ratio(1e6 * stat(append, "self_s"),
                                         stat(append, "calls"))
    m["campaign.store.scan_s"] = stat("campaign.store.scan", "self_s") / n
    m["campaign.worker_utilisation"] = ratio(
        sum(op.extra["busy_s"] for op in campaign),
        sum(op.extra["workers"] * op.wall_s for op in campaign))
    m["campaign.points_failed"] = ratio(
        sum(op.failed for op in campaign), len(campaign))

    per_at = "surrogate.per_at"
    m[f"{per_at}.calls"] = stat(per_at, "calls") / n
    m[f"{per_at}.ns_per_lookup"] = ratio(1e9 * stat(per_at, "self_s"),
                                         stat(per_at, "lookups"))
    m["mesh.network.build_s"] = stat("mesh.network.build", "self_s") / n

    layer_self = sum(s["self_s"] for op in traced
                     for s in (op.layers or {}).values())
    m["unattributed_s"] = (sum(op.wall_s for op in traced) - layer_self) / n
    m["trace_overhead"] = ratio(sum(op.wall_s for op in traced),
                                sum(op.wall_s for op in plain))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    seeds = [args.seed, args.seed + SECOND_SEED_OFFSET]
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ops, setup_s, rss_mb, env = run_workload(
            args.workload, seeds, args.seconds, args.trace, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = [p for op in ops for p in op.problems] + check_digests(ops)
    e2e = end_to_end(ops, setup_s, rss_mb)
    values = per_layer(ops) if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload, "seeds": seeds, "environment": env,
        "operations": len(ops), "trace": args.trace,
        "named_metrics": named_metrics(args.workload, ops),
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
