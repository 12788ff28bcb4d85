"""The benchmark's workloads: seeded inputs, operations and independent checks.

A workload turns a seed into inputs during set-up, and the inputs into a
*pass*: a fixed sequence of operations. A run repeats the pass in a closed
loop (one client, each call waits for the previous one). Every operation is
one user-visible decision (or one ``chsh_scan`` call), and every output is
checked after the timed region with plain numpy, against oracles that do not
come from the solver:

* no-cloning: two copies of a unitary channel are incompatible;
* the universal-cloning bound: two copies of the depolarizing channel with
  noise weight p on dimension d are compatible iff p >= d / (2 (d + 1)),
  i.e. p >= 1/3 for qubits and p >= 3/8 for qutrits;
* the closed form of the CHSH value of the scanned unitary family;
* the re-checked witness (a joint Choi matrix with the given marginals) or
  dual certificate (lift(A) + 1 (x) B >= 0 with a negative value).

An operation *fails* when it raises, exits non-zero, or comes back marginal
where the oracle decides. It is *wrong* when a check rejects its output; a
wrong output also counts as failed and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import choimarg as cm
import choimarg.cli
import choimarg.sampling
from tracing import DEFAULT_BAND as BAND
from tracing import solve_stats

OK, FAILED, WRONG = "ok", "failed", "wrong"

PSD_TOL = 1e-8
MARGINAL_TOL = 1e-6
CHSH_TOL = 1e-9
BISECT_WIDTH = 1e-6
QUBIT_THRESHOLD = 1.0 / 3.0
QUTRIT_THRESHOLD = 3.0 / 8.0
SCAN = (1.0, 10.0, 901)


@dataclass(eq=False)
class Group:
    """Operations whose outputs are checked together (one bisection)."""

    lo: float
    hi: float
    in_band_p: float | None = None
    done: bool = False


@dataclass(eq=False)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]  # None when the output passes
    key: tuple | None = None  # ops with equal keys must print byte-identical output
    group: Group | None = None
    result: object = None
    error: str | None = None


@dataclass(eq=False)
class Record:
    op: Op
    latency_s: float
    start_s: float = 0.0
    ref_s: float = 0.0  # latency at the probe's nominal speed
    status: str = OK
    message: str = ""
    solve: dict | None = None


@dataclass(frozen=True)
class Workload:
    """``make_inputs(seed)`` gives a list of blocks, ``make_pass(blocks)`` their operations.

    A timed run repeats the pass over all blocks until its time is up; a
    traced run repeats the first block only, so that its per-operation counts
    repeat exactly. ``tail_pct`` is the percentile reported as ``op_tail_s``,
    ``probe`` the kind of probe kernel that tracks the host's speed for it.
    """

    make_inputs: Callable[[int], list]
    make_pass: Callable[[list], Iterator[Op]]
    why: str
    tail_pct: int
    probe: str


# ---------------------------------------------------------------------------
# independent linear algebra for the checks
# ---------------------------------------------------------------------------


def min_eig(h: np.ndarray) -> float:
    h = np.asarray(h, dtype=complex)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])


def ptrace(m: np.ndarray, dims: tuple[int, ...], traced: tuple[int, ...]) -> np.ndarray:
    """Partial trace over the 0-based factors ``traced``."""
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + n)
        n -= 1
    d = int(np.prod(t.shape[:n]))
    return t.reshape(d, d)


def cone_matrix(a: np.ndarray, b: np.ndarray, d1: int, d2: int, din: int) -> np.ndarray:
    """A on factors (1, 3) plus B on factors (2, 3) of (out_1, out_2, in)."""
    a4 = np.asarray(a).reshape(d1, din, d1, din)
    b4 = np.asarray(b).reshape(d2, din, d2, din)
    lifted = np.einsum("ikjl,mn->imkjnl", a4, np.eye(d2)) + np.einsum(
        "mknl,ij->imkjnl", b4, np.eye(d1)
    )
    d = d1 * d2 * din
    return lifted.reshape(d, d)


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def chsh_closed_form(theta: float) -> float:
    return (4.0 * np.sqrt(theta) + 2.0 * theta - 2.0) / (1.0 + theta)


def rho_w() -> np.ndarray:
    """Two-qubit marginal (qubits 1, 3) of the W state."""
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return ptrace(np.outer(v, v.conj()), (2, 2, 2), (1,))


def _fail_if(cond: bool, message: str) -> tuple[str, str] | None:
    return (WRONG, message) if cond else None


def check_joint(joint: np.ndarray, dims: tuple[int, int, int], m1, m2) -> tuple[str, str] | None:
    """A joint Choi matrix on (out_1, out_2, in): Hermitian, PSD, both marginals."""
    d = int(np.prod(dims))
    joint = np.asarray(joint, dtype=complex)
    if joint.shape != (d, d):
        return WRONG, f"joint Choi shape {joint.shape}, expected ({d}, {d})"
    err = max(
        float(np.max(np.abs(ptrace(joint, dims, (1,)) - m1))),
        float(np.max(np.abs(ptrace(joint, dims, (0,)) - m2))),
    )
    lam = min_eig(joint)
    return (
        _fail_if(float(np.max(np.abs(joint - joint.conj().T))) > MARGINAL_TOL, "joint Choi not Hermitian")
        or _fail_if(lam < -PSD_TOL, f"joint Choi min eigenvalue {lam:.3e}")
        or _fail_if(err > MARGINAL_TOL, f"joint Choi marginals off by {err:.3e}")
    )


def check_compat(m1, m2, dims, rep, expect: str | None) -> tuple[str, str] | None:
    """Check a ``channels_compatible`` report on Choi matrices m1, m2 of the
    channels, whose joint Choi factors are ``dims`` = (out_1, out_2, in),
    against an oracle verdict (None where there is none)."""
    verdict = rep.verdict
    if verdict == "marginal":
        return (FAILED, "marginal where the oracle decides") if expect else None
    if verdict not in ("compatible", "incompatible"):
        return WRONG, f"unknown verdict {verdict!r}"
    if expect is not None and verdict != expect:
        return WRONG, f"verdict {verdict}, oracle says {expect}"
    if verdict == "compatible":
        if rep.joint_choi is None:
            return WRONG, "compatible without a joint channel"
        return check_joint(rep.joint_choi.choi, dims, m1, m2)
    if rep.dual_witness is None or rep.dual_value is None:
        return WRONG, "incompatible without a dual certificate"
    a, b = rep.dual_witness
    lam = min_eig(cone_matrix(a, b, *dims))
    value = float(np.real(np.vdot(a, m1)) + np.real(np.vdot(b, m2)))
    return (
        _fail_if(lam < -PSD_TOL, f"certificate cone matrix min eigenvalue {lam:.3e}")
        or _fail_if(not value < 0, f"certificate value {value!r} is not negative")
        or _fail_if(abs(value - rep.dual_value) > 1e-8, "reported dual_value disagrees with the certificate")
    )


def depolarizing_choi(d: int, p: float) -> np.ndarray:
    """Choi matrix of rho -> (1 - p) rho + p Tr(rho) 1/d on (output, input)."""
    v = np.eye(d).reshape(-1)
    return (1.0 - p) * np.outer(v, v) + p * np.eye(d * d) / d


# ---------------------------------------------------------------------------
# qutrit-compat
# ---------------------------------------------------------------------------

QUTRIT_BLOCK = (
    "unitary", "kraus2", "dep-", "dep+",
    "unitary", "kraus3", "dep-", "dep+",
    "unitary", "kraus2", "dep-", "dep+",
    "unitary", "kraus3", "dep-", "dep+",
)
"""Three cheap pairs (unitary, depolarizing: 10-12 iterations) per costly one
(random Kraus rank 2 or 3: 19-31 iterations), so the median latency sits
inside one cluster instead of between the two. A timed run of 36 s at about
0.4 operations per second runs 14-20 operations, so it covers about one
block, and every costly pair it meets is a separate draw. Kraus rank 9 is
left out: ``channels_compatible`` raises SdpError (numerical_failure) on
about one in six random rank-9 qutrit pairs (see perfbench/README.md)."""


def qutrit_inputs(seed: int) -> list[list[tuple[str, object, object, str | None]]]:
    """One block of seeded pairs with their oracle verdicts."""
    rng = np.random.default_rng(seed)
    sampling = cm.sampling
    pairs = []
    for kind in QUTRIT_BLOCK:
        if kind == "unitary":
            c1 = cm.unitary_channel(sampling.random_unitary(3, rng))
            c2 = cm.unitary_channel(sampling.random_unitary(3, rng))
            expect = "incompatible"
        elif kind.startswith("kraus"):
            rank = int(kind[len("kraus"):])
            c1 = sampling.random_channel(3, 3, rng, kraus_rank=rank)
            c2 = sampling.random_channel(3, 3, rng, kraus_rank=rank)
            expect = None
        else:
            sign = 1.0 if kind == "dep+" else -1.0
            c1 = c2 = cm.depolarizing_channel(3, QUTRIT_THRESHOLD + sign * rng.uniform(0.005, 0.05))
            expect = "compatible" if sign > 0 else "incompatible"
        pairs.append((kind, c1, c2, expect))
    return [pairs]


def qutrit_pass(blocks) -> Iterator[Op]:
    for pairs in blocks:
        for kind, c1, c2, expect in pairs:
            yield Op(
                kind,
                run=lambda c1=c1, c2=c2: cm.channels_compatible(c1, c2),
                check=lambda rep, c1=c1, c2=c2, expect=expect: check_compat(
                    c1.choi, c2.choi, (3, 3, 3), rep, expect
                ),
            )


# ---------------------------------------------------------------------------
# qubit-verdicts
# ---------------------------------------------------------------------------

QUBIT_ROUNDS = 30
"""A round is 7 CLI calls and a bisection of about 18 steps; a timed run of
36 s at 22-33 operations per second reaches 32-46 rounds, so every round
is run and the first ones run again."""
QUBIT_THETAS = 4


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cm.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _check_cli(expect: str, extra: Callable[[dict], tuple[str, str] | None]):
    def check(result) -> tuple[str, str] | None:
        code, out, err = result
        if code != 0:
            return FAILED, f"exit {code}: {err.strip()[:200]}"
        try:
            payload = json.loads(out)
        except ValueError:
            return WRONG, "output is not JSON"
        if payload.get("verdict") != expect:
            return WRONG, f"verdict {payload.get('verdict')!r}, oracle says {expect}"
        return extra(payload)

    return check


def _infeasible(payload: dict) -> tuple[str, str] | None:
    return _fail_if(not payload["slack"] < 0 or payload["witness"] is not None, "infeasible verdict with slack >= 0 or a witness")


def _state_witness(target: np.ndarray):
    def extra(payload: dict) -> tuple[str, str] | None:
        sigma = matrix_from_json(payload["witness"]["data"])
        err = max(
            float(np.max(np.abs(ptrace(sigma, (2, 2, 2), (2,)) - target))),
            float(np.max(np.abs(ptrace(sigma, (2, 2, 2), (1,)) - target))),
        )
        lam = min_eig(sigma)
        return _fail_if(lam < -PSD_TOL, f"witness min eigenvalue {lam:.3e}") or _fail_if(
            err > MARGINAL_TOL, f"witness marginals off by {err:.3e}"
        )

    return extra


def _compat_witness(payload: dict) -> tuple[str, str] | None:
    mixed = depolarizing_choi(2, 1.0)
    return check_joint(matrix_from_json(payload["witness"]["data"]), (2, 2, 2), mixed, mixed)


def _bell(chsh: float):
    def extra(payload: dict) -> tuple[str, str] | None:
        x = payload.get("chsh")
        return _infeasible(payload) or _fail_if(
            x is None or abs(x - chsh) > CHSH_TOL, f"chsh {x!r}, expected {chsh!r}"
        )

    return extra


def _dual_negative(payload: dict) -> tuple[str, str] | None:
    return _infeasible(payload) or _fail_if(not payload["dual_value"] < 0, "dual_value is not negative")


def qubit_inputs(seed: int) -> list[tuple[float, float, float]]:
    """Per round: theta in (1, 10] for the theta-family preset, and a bisection bracket.

    The rounds cycle through QUBIT_THETAS values of theta, so that every CLI
    call repeats within a run and its output can be compared byte for byte.
    """
    rng = np.random.default_rng(seed)
    thetas = [max(round(10.0 - rng.uniform(0.0, 9.0), 6), 1.000001) for _ in range(QUBIT_THETAS)]
    return [
        (thetas[r % QUBIT_THETAS], rng.uniform(0.05, 0.30), rng.uniform(0.36, 0.95))
        for r in range(QUBIT_ROUNDS)
    ]


def cli_calls(theta: float) -> list[tuple[tuple[str, ...], Callable]]:
    w = rho_w()
    return [
        (("compat", "--preset", "identity-pair"), _check_cli("incompatible", _dual_negative)),
        (("compat", "--preset", "depolarizing-pair"), _check_cli("compatible", _compat_witness)),
        (("steer", "--preset", "w-state"), _check_cli("unsteerable", _state_witness(w))),
        (("steer", "--preset", "max-entangled"), _check_cli("steerable", _infeasible)),
        (("bell", "--preset", "w-state"), _check_cli("nonlocal", _bell(-2.0 / 3.0))),
        (("bell", "--preset", "max-entangled"), _check_cli("nonlocal", _bell(2.0))),
        (("bell", "--preset", f"theta-family:{theta!r}"), _check_cli("nonlocal", _bell(chsh_closed_form(theta)))),
    ]


def _depolarizing_pair(p: float):
    c = cm.depolarizing_channel(2, p)
    return cm.channels_compatible(c, c)


def _check_bisect_step(p: float):
    def check(rep) -> tuple[str, str] | None:
        in_band = abs(rep.slack) < BAND
        expect = None if in_band else ("compatible" if p > QUBIT_THRESHOLD else "incompatible")
        m = depolarizing_choi(2, p)
        return check_compat(m, m, (2, 2, 2), rep, expect)

    return check


def bisection(group: Group) -> Iterator[Op]:
    """Bisect the compatibility threshold of two qubit depolarizing copies.

    Stops at bracket width BISECT_WIDTH, or early when a step's slack lands
    inside the marginal band, where the package cannot resolve the side.
    """
    lo, hi = group.lo, group.hi
    while hi - lo > BISECT_WIDTH:
        p = (lo + hi) / 2
        op = Op("bisect", run=lambda p=p: _depolarizing_pair(p), check=_check_bisect_step(p), group=group)
        yield op
        if op.error is not None:
            return
        rep = op.result
        if abs(rep.slack) < BAND:
            group.in_band_p = p
            break
        if rep.verdict == "compatible":
            hi = p
        elif rep.verdict == "incompatible":
            lo = p
        else:
            return
    group.lo, group.hi, group.done = lo, hi, True


def check_bisection(group: Group) -> tuple[str, str] | None:
    if not group.lo <= QUBIT_THRESHOLD <= group.hi:
        return WRONG, f"bracket [{group.lo!r}, {group.hi!r}] misses 1/3"
    if group.in_band_p is not None and abs(group.in_band_p - QUBIT_THRESHOLD) > BISECT_WIDTH:
        return WRONG, f"in-band slack at p = {group.in_band_p!r}, far from 1/3"
    return None


def qubit_pass(rounds) -> Iterator[Op]:
    for theta, lo, hi in rounds:
        for argv, check in cli_calls(theta):
            argv = argv + ("--json",)
            yield Op(argv[0] + ":" + argv[2].split(":")[0], run=lambda argv=argv: run_cli(argv), check=check, key=argv)
        yield from bisection(Group(lo, hi))


# ---------------------------------------------------------------------------
# chsh-scan
# ---------------------------------------------------------------------------


def check_scan(rows) -> tuple[str, str] | None:
    lo, hi, steps = SCAN
    if len(rows) != steps:
        return WRONG, f"{len(rows)} rows, expected {steps}"
    theta = np.array([r[0] for r in rows])
    x = np.array([r[1] for r in rows])
    grid = np.linspace(lo, hi, steps)
    err = float(np.max(np.abs(x - chsh_closed_form(grid))))
    best = float(theta[int(np.argmax(x))])
    step = (hi - lo) / (steps - 1)
    return (
        _fail_if(float(np.max(np.abs(theta - grid))) > 1e-12, "theta grid differs")
        or _fail_if(err > CHSH_TOL, f"X differs from the closed form by {err:.3e}")
        or _fail_if(abs(best - (3.0 + 2.0 * np.sqrt(2.0))) > step * (1 + 1e-9), f"argmax at theta = {best!r}")
    )


def chsh_inputs(seed: int) -> list[tuple[float, float, int]]:
    """The scan takes no random input; the seed is recorded only."""
    return [SCAN]


def chsh_pass(scans) -> Iterator[Op]:
    for scan in scans:
        yield Op("chsh_scan", run=lambda scan=scan: cm.chsh_scan(*scan), check=check_scan)


# tail_pct: p98 has about 18 of a qubit-verdicts run's ~900 samples beyond it.
# A qutrit-compat or chsh-scan run holds 14-20 operations, too few for ten
# samples beyond any percentile above the median, so those report p90 (the
# costly random-Kraus pairs on qutrit-compat), with one or two samples beyond.
WORKLOADS = {
    "qutrit-compat": Workload(
        qutrit_inputs, qutrit_pass,
        "qutrit channels_compatible: the IPM is ~92% of a decision",
        tail_pct=90, probe="schur",
    ),
    "qubit-verdicts": Workload(
        qubit_inputs, qubit_pass,
        "CLI presets and a cloning-threshold bisection: row assembly and CLI overhead",
        tail_pct=98, probe="small",
    ),
    "chsh-scan": Workload(
        chsh_inputs, chsh_pass,
        "chsh_scan(1, 10, 901): no solver call, channel construction dominates",
        tail_pct=90, probe="small",
    ),
}


# ---------------------------------------------------------------------------
# checking a run
# ---------------------------------------------------------------------------


def _mark(rec: Record, status: str, message: str) -> None:
    if rec.status == OK or status == WRONG:
        rec.status, rec.message = status, message


def check_records(records: list[Record]) -> None:
    """Classify every record (outside the timed region)."""
    last_of_group: dict[int, Record] = {}
    outputs: dict[tuple, list[Record]] = {}
    for rec in records:
        op = rec.op
        if op.error is not None:
            _mark(rec, FAILED, op.error)
        else:
            try:
                outcome = op.check(op.result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                outcome = WRONG, f"malformed output: {exc!r}"
            if outcome is not None:
                _mark(rec, *outcome)
            solution = getattr(getattr(op.result, "report", None), "solution", None)
            if solution is not None:
                rec.solve = solve_stats(solution)
            if op.key is not None:
                outputs.setdefault(op.key, []).append(rec)
        if op.group is not None:
            last_of_group[id(op.group)] = rec
    for rec in last_of_group.values():
        outcome = check_bisection(rec.op.group) if rec.op.group.done else None
        if outcome is not None:
            _mark(rec, *outcome)
    for argv, recs in outputs.items():
        reference = run_cli(argv)[1] if len(recs) == 1 else recs[0].op.result[1]
        for rec in recs:
            if rec.op.result[1] != reference:
                _mark(rec, WRONG, "output is not byte-identical on a repeat call")
