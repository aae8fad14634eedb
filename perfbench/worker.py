"""Helper process for run.py: generates inputs and checks outputs.

The orchestrating process spawns every measured child, and on Linux a
child's ru_maxrss starts from its parent's peak RSS at spawn, because the
high-water mark is carried across exec. So numpy, the generators and the
checks live here, in a process of their own, and the orchestrator stays
small.

Protocol: one JSON request per line on stdin, [op, [args...]]; one JSON
reply per line on stdout, {"ok": value} or {"error": traceback}. The
worker exits when stdin closes.
"""
import ctypes
import json
import os
import platform
import sys
import time
import traceback

import workloads


def setup(name, in_dir, seed):
    """Generate the workload's inputs; returns (truth, seconds)."""
    start = time.perf_counter()
    truth = workloads.WORKLOADS[name].generate(in_dir, seed)
    return truth, time.perf_counter() - start


def commands(name, in_dir, out_dir, seed):
    return workloads.WORKLOADS[name].commands(in_dir, out_dir, seed)


def verify(name, command, in_dir, out_dir, truth):
    return workloads.WORKLOADS[name].verify(command, in_dir, out_dir, truth)


def train_steps(name, out_dir, truth):
    steps = workloads.WORKLOADS[name].train_steps
    return steps(out_dir, truth) if steps else 0


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


OPS = {f.__name__: f for f in (setup, commands, verify, train_steps, machine_facts)}


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr   # nothing but replies on the protocol stream
    for line in sys.stdin:
        op, args = json.loads(line)
        try:
            reply = {"ok": OPS[op](*args)}
        except Exception:  # reported to the orchestrator, which stops the run
            reply = {"error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
