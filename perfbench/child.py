"""Child-process entry point of the benchmark.

``setup WORKLOAD`` does one workload's set-up in a fresh interpreter and
prints a header line: the CPU seconds the process used from its start to
ready, and the resolved environment. ``measure WORKLOAD`` prints the
same header, then runs operations for ``--seconds``, printing one
``{"op": ...}`` line per finished operation and a last
``{"peak_rss_mb": ...}`` line: the median over operations of the peak
resident memory while each ran. Set-up time
covers the interpreter start, every import, construction and warm-up.
It is CPU time, like the operations' throughput, so that it counts the
program's work and not time the shared host gave to other machines.

The parent starts each child in its own session, so it can kill the
child together with any queue workers it started if the run wedges.
"""

import argparse
import ctypes
import dataclasses
import gc
import json
import multiprocessing
import os
import platform
import re
import resource
import statistics
import sys

from workloads import WORKLOADS, cpu_seconds, measure


def environment():
    """The facts a reader needs to compare two runs' numbers."""
    import numpy as np

    from repro.phy import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels.resolve_backend(),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
        "REPRO_HEARTBEAT_S": os.environ.get("REPRO_HEARTBEAT_S"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "start_method": multiprocessing.get_start_method(),
    }


def reset_peak_rss():
    """Return freed heap to the OS, then restart the peak-RSS count.

    How much freed memory the allocator keeps varies with the order of
    earlier allocations, by some 20 MB between seeds; trimming it before
    each operation makes the operation's peak repeatable.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb():
    """Peak RSS since :func:`reset_peak_rss`, or of any finished child.

    Finished children are the campaign's queue workers.
    """
    with open("/proc/self/status") as fh:
        hwm_kb = int(re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, children_kb) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tmp", help="directory for campaign stores")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seeds)
    print(json.dumps({"setup_s": cpu_seconds(), "environment": environment()}),
          flush=True)
    if args.mode == "setup":
        return 0

    workers = len(os.sched_getaffinity(0))
    peaks = []

    def run_op(seed, index):
        reset_peak_rss()
        if args.workload == "campaign-sweep":
            result = workload.op(state, seed,
                                 os.path.join(args.tmp, f"store-{index}"),
                                 workers)
        else:
            result = workload.op(state, seed)
        peaks.append(peak_rss_mb())
        return result

    def emit(result):
        print(json.dumps({"op": dataclasses.asdict(result)}), flush=True)

    measure(run_op, args.seeds, args.seconds, bool(args.trace), emit)
    print(json.dumps({"peak_rss_mb": statistics.median(peaks)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
