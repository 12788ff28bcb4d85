"""End-to-end and per-layer benchmark of the ``choimarg`` package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qutrit-compat --seed 1 --seconds 36 --trace 0

One process, one closed-loop client making sequential calls, BLAS pinned to
one thread. ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the workload untraced and then traced over whole passes and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit. Details (machine, per-operation records,
per-solve statistics, spans) go to ``.perfbench/`` in the checkout. The exit
code is 1 when an output check fails, 2 when the package cannot be loaded.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the thread count changes both wall time and
# the IPM's iteration count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from stats import at_reference, median, tail  # noqa: E402

WORKLOAD_NAMES = ("qutrit-compat", "qubit-verdicts", "chsh-scan")
SETUP_CHILDREN = 4
WARMUP_S = 1.0
MAX_FAILURES_SHOWN = 20
PROBE_EVERY_S = 0.5
PROBE_S = 0.03
PROBE_REPS = 3
PROBE_NOMINAL_S = {"small": 2.0e-3, "schur": 12.5e-3}
"""Latencies ``*_ref_*`` are rescaled to the speed at which the workload's
probe kernel takes this long: fixed constants, about the kernels' times in
the fast periods of the 2-vCPU Xeon guest the benchmark was written on, so
rescaled latencies read about what wall clock reads there."""

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref_s": "s",
    "ops_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
"""The metrics of the result line. The wall-clock ``op_p50_s`` and
``ops_per_s``, ``op_tail_s`` and ``failed_frac`` are printed above it only
(see perfbench/README.md)."""


def load():
    """Import the package from the checkout's ``src``, then the workloads on top of it."""
    if not (SRC / "choimarg" / "__init__.py").is_file():
        raise ImportError(f"no choimarg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import choimarg

    if Path(choimarg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"choimarg was imported from {choimarg.__file__}, not from {SRC}")
    import workloads

    return workloads


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "OPENBLAS_NUM_THREADS=" + os.environ["OPENBLAS_NUM_THREADS"]


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Probe:
    """A fixed numpy kernel, timed between operations, that tracks the host's speed.

    On a shared host a core's speed changes by up to 1.85x, for seconds to
    minutes at a time, and CPU time moves with wall time, so the process
    cannot tell a slow period from slow code. How much a slow period slows
    code depends on the code, so each workload has a kernel that does the
    kind of work its operations do:

    * ``small``: many numpy calls on small matrices (channel validation,
      qubit-sized Schur builds), for ``qubit-verdicts`` and ``chsh-scan``;
    * ``schur``: one Schur build and Cholesky factorisation at the size of a
      qutrit compatibility solve (54 x 54 blocks), for ``qutrit-compat``.

    The kernels never call the package and their inputs do not depend on
    the seed.
    """

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        d, m = (54, 48) if kind == "schur" else (18, 40)
        self._a = rng.standard_normal((m, d, d))
        self._x = rng.standard_normal((d, d))
        self._z = rng.standard_normal((d, d))
        self._small = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        self._eye2 = np.eye(2)
        self._kernel = self._schur if kind == "schur" else self._small_calls
        self.samples: list[tuple[float, float]] = []  # (time, mean kernel duration)
        self.busy = 0.0
        self._last = float("-inf")

    def _schur(self) -> None:
        np, a = self._np, self._a
        tzx = np.einsum("ikq,ql->ikl", np.einsum("kp,ipq->ikq", self._z, a), self._x)
        schur = np.einsum("ikl,jlk->ij", a, tzx)
        np.linalg.cholesky(schur @ schur.T + np.eye(len(a)))

    def _small_calls(self) -> None:
        self._schur()
        np = self._np
        for s in self._small:
            k = np.kron(s + s.conj().T, self._eye2)
            np.linalg.eigvalsh(k)
            np.allclose(k, k.conj().T)
            np.trace(k.reshape(4, 2, 4, 2), axis1=1, axis2=3)

    def sample(self) -> None:
        """Run the kernel for at least PROBE_S (at least PROBE_REPS times); record its mean time."""
        start = now = time.perf_counter()
        reps = 0
        while reps < PROBE_REPS or now - start < PROBE_S:
            self._kernel()
            now = time.perf_counter()
            reps += 1
        self._last = now
        self.busy += now - start
        self.samples.append(((start + now) / 2, (now - start) / reps))

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_EVERY_S


def execute(op) -> None:
    try:
        op.result = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"


def run_ops(workloads, make_pass, probe_kind: str, seconds: float, whole_passes: bool, tracer=None):
    """Closed loop over repeated passes for ``seconds``.

    With ``whole_passes`` the deadline is only checked between passes, so
    every pass completes and per-pass counts repeat exactly. The probe runs
    before the first operation, between operations at least PROBE_EVERY_S
    apart, and after the last; each record gets its latency at the probe's
    nominal speed. Returns the records, the wall time without the probes and
    the probe samples.
    """
    records = []
    probe = Probe(probe_kind)
    start = time.perf_counter()
    deadline = start + seconds
    probe.sample()
    while True:
        for op in make_pass():
            if not whole_passes and time.perf_counter() >= deadline:
                break
            if probe.due():
                probe.sample()
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            execute(op)
            records.append(workloads.Record(op, time.perf_counter() - t0, start_s=t0))
        else:
            if time.perf_counter() < deadline:
                continue
        break
    probe.sample()
    wall = time.perf_counter() - start - probe.busy
    scaled = at_reference(
        [(r.start_s, r.latency_s) for r in records], probe.samples, PROBE_NOMINAL_S[probe_kind]
    )
    for rec, ref in zip(records, scaled):
        rec.ref_s = ref
    return records, wall, probe.samples


def warm_up(make_pass, probe_kind: str) -> None:
    """Run the probe and operations untimed for about WARMUP_S (at least one) and drop them."""
    start = time.perf_counter()
    Probe(probe_kind).sample()
    for op in make_pass():
        execute(op)
        if time.perf_counter() - start >= WARMUP_S:
            return


def summarize(records) -> dict:
    return {
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "correct": all(r.status != "wrong" for r in records),
    }


def write_details(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, default=str) + "\n", encoding="utf-8")
    return path


def op_rows(records) -> list[dict]:
    return [
        {"kind": r.op.kind, "start_s": r.start_s, "latency_s": r.latency_s, "ref_s": r.ref_s,
         "status": r.status, "message": r.message, "solve": r.solve}
        for r in records
    ]


def timed_run(workloads, workload, inputs, args, setup: float):
    """End-to-end metrics over a closed loop of ``args.seconds``."""
    setups = [setup] + [child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    make_pass = lambda: workload.make_pass(inputs)  # noqa: E731
    warm_up(make_pass, workload.probe)
    records, wall, probes = run_ops(workloads, make_pass, workload.probe, args.seconds, whole_passes=False)
    workloads.check_records(records)
    lat = [r.latency_s for r in records]
    ok = sum(r.status == "ok" for r in records)
    tail_value, beyond = tail(lat, workload.tail_pct)
    metrics = {
        "setup_s": median(setups),
        "op_p50_ref_s": median([r.ref_s for r in records]),
        "ops_per_ref_s": ok / sum(r.ref_s for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "setup_samples_s": setups,
        "wall_s": wall,
        "probes": probes,
        "op_p50_s": median(lat),
        "ops_per_s": ok / wall,
        "op_tail_s": tail_value,
        "op_tail": f"p{workload.tail_pct} of {len(lat)} samples, {beyond} beyond it",
    }
    return records, metrics, dict(END_TO_END), extra


def traced_run(workloads, workload, args, t0: float):
    """Per-layer metrics: the first block untraced, then traced, in whole passes."""
    from tracing import Tracer, unit

    tracer = Tracer()
    with tracer:
        inputs = workload.make_inputs(args.seed)
    make_pass = lambda: workload.make_pass(inputs[:1])  # noqa: E731
    warm_up(make_pass, workload.probe)
    plain, _, _ = run_ops(workloads, make_pass, workload.probe, args.seconds / 2, whole_passes=True)
    with tracer:
        traced, _, _ = run_ops(
            workloads, make_pass, workload.probe, args.seconds / 2, whole_passes=True, tracer=tracer
        )
    records = plain + traced
    workloads.check_records(records)
    lat = [r.latency_s for r in traced]
    overhead = median([r.ref_s for r in traced]) - median([r.ref_s for r in plain])
    metrics = tracer.layer_metrics(len(traced), lat, overhead)
    if tracer.absent:
        print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    extra = {
        "absent": tracer.absent,
        "solves": tracer.solves,
        "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in tracer.spans],
    }
    return records, metrics, {k: unit(k) for k in metrics}, extra


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that set-up and memory are its own."""
    codes = [
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        ).returncode
        for name in WORKLOAD_NAMES
    ]
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    try:
        workloads = load()
    except ImportError as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        records, metrics, units, extra = traced_run(workloads, workload, args, t0)
        env = machine()
    else:
        inputs = workload.make_inputs(args.seed)
        setup = time.perf_counter() - t0
        if args.setup_only:
            print(repr(setup))
            return 0
        env = machine()
        records, metrics, units, extra = timed_run(workloads, workload, inputs, args, setup)

    summary = summarize(records)
    print(f"workload: {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"machine: {json.dumps(env)}")
    print(f"failed_frac: {summary['failed'] / summary['attempted']:.6g} share "
          f"({summary['failed']} of {summary['attempted']} operations)")
    bad = [r for r in records if r.status != "ok"]
    for rec in bad[:MAX_FAILURES_SHOWN]:
        print(f"  {rec.status}: {rec.op.kind}: {rec.message}")
    if len(bad) > MAX_FAILURES_SHOWN:
        print(f"  ... {len(bad) - MAX_FAILURES_SHOWN} more in the details file")
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key]}")
    if "op_tail" in extra:
        print(f"op_p50_s: {extra['op_p50_s']:.6g} s (wall clock)")
        print(f"ops_per_s: {extra['ops_per_s']:.6g} 1/s (wall clock)")
        print(f"op_tail_s: {extra['op_tail_s']:.6g} s ({extra['op_tail']}, wall clock)")
    path = write_details(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "machine": env, "metrics": metrics, **summary, "ops": op_rows(records), **extra,
    })
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        **summary,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
