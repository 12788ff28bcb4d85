"""Record every report field of a fixed set of decisions, or compare two records.

    python tools/parity.py OUT.npz              # decide the set, write each field
    python tools/parity.py --compare A.npz B.npz

The package is imported from the ``src`` beside this file, at one BLAS thread.
The set: 10 qutrit blocks as perfbench's (seeds 3001-3010); depolarizing
self-pairs at 11 offsets around 1/3 (qubit) and 3/8 (qutrit); 25 random qubit
pairs of Kraus rank 1-3, 25 qutrit-to-qubit pairs and 20 unitary pairs; the
qutrit Bell case of ``default_rng(11)``; 40 qubit depolarizing bisection steps;
``marginal_feasibility`` on dims (2, 3, 2, 2) with kept sets (1, 2, 4), (3,)
and (2, 3), the marginals of a seeded random state; a qutrit
``state_steerable`` case (dims (3, 3, 3), seeded random state and channels);
the 7 CLI presets with ``--json`` and ``chsh-scan`` on its default grid; and
``chsh_value`` with the four ``correlation``s on the Bell presets' channels and
on 8 seeded random sets, non-qubit outputs with a random observable included.
``--compare`` prints each field that differs in dtype, shape or bytes, with the
largest |difference| of a numeric field of equal shape, then one summary line:
the number of decisions whose verdict or iteration count differ and the largest
|slack difference| / (1 + |slack|). It exits with 1 if any field differs.
"""

import contextlib, dataclasses, io, os, sys
from pathlib import Path

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import numpy as np  # noqa: E402

import choimarg as cm  # noqa: E402
from choimarg import cli, presets, sampling as sm  # noqa: E402
from choimarg.linalg import partial_trace  # noqa: E402

PRESETS = (("compat", "identity-pair"), ("compat", "depolarizing-pair"), ("steer", "w-state"),
           ("steer", "max-entangled"), ("bell", "w-state"), ("bell", "max-entangled"), ("bell", "theta-family:5.83"))
COMMANDS = PRESETS + (("chsh-scan",),)


def unitaries(d, rng):
    return cm.unitary_channel(sm.random_unitary(d, rng)), cm.unitary_channel(sm.random_unitary(d, rng))


def kraus(d_in, d_out, rank, rng):
    return sm.random_channel(d_in, d_out, rng, rank), sm.random_channel(d_in, d_out, rng, rank)


def pairs():
    for seed in range(3001, 3011):  # perfbench's qutrit block: unitary, Kraus 2|3, depolarizing -/+
        rng = np.random.default_rng(seed)
        for k in range(16):
            if k % 4 < 2:
                yield unitaries(3, rng) if k % 4 == 0 else kraus(3, 3, 2 + k // 4 % 2, rng)
            else:
                yield (cm.depolarizing_channel(3, 3 / 8 + (2 * (k % 4) - 5) * rng.uniform(0.005, 0.05)),) * 2
    for d, p in ((2, 1 / 3), (3, 3 / 8)):
        for dp in (-0.02, -1e-3, -1e-6, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 1e-6, 1e-3, 0.02):
            yield (cm.depolarizing_channel(d, p + dp),) * 2
    yield from (kraus(2, 2, 1 + s % 3, np.random.default_rng(100 + s)) for s in range(25))
    yield from (kraus(3, 2, None, np.random.default_rng(200 + s)) for s in range(25))
    yield from (unitaries(2 + s % 2, np.random.default_rng(300 + s)) for s in range(20))


def observable(d, rng):
    """A random Hermitian A with -1 <= A <= 1."""
    u = sm.random_unitary(d, rng)
    return (u * rng.uniform(-1.0, 1.0, d)) @ u.conj().T


def chsh_cases():
    """(name, rho, (c11, c21, c12, c22), obs): the Bell presets, then random sets
    with inputs (d1, d2), outputs (o1, o2); obs is None (parity) on qubit outputs."""
    for name in ("w-state", "max-entangled", "theta-family:5.83", "theta-family:1"):
        rho, *chans = presets.bell_preset(name)
        yield name, rho, chans, None
    for s, (d1, d2, o1, o2) in enumerate(((2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 3, 3), (2, 2, 2, 3),
                                          (3, 2, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3), (2, 2, 4, 2))):
        rng = np.random.default_rng(400 + s)
        chans = [sm.random_channel(d, o, rng) for d, o in ((d1, o1), (d1, o1), (d2, o2), (d2, o2))]
        obs = None if (o1, o2) == (2, 2) else observable(o1 * o2, rng)
        yield f"random{s}", sm.random_density(d1 * d2, rng), chans, obs


def flatten(key, value, out):
    """Every array of a report field under its own key; a Channel as (choi, dims)."""
    if isinstance(value, cm.Channel):
        value = (value.choi, np.array((value.in_dim, *value.out_dims)))
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            flatten(f"{key}.{i}", v, out)
    else:
        out[key] = np.zeros(0, "U4") if value is None else np.asarray(value)


def record(path):
    reports = [cm.channels_compatible(c1, c2) for c1, c2 in pairs()]
    rng = np.random.default_rng(11)
    reports.append(cm.bell_local(sm.random_density(9, rng), *[sm.random_channel(3, 3, rng) for _ in range(4)]))
    for lo, hi in ((0.05, 0.95), (0.1, 0.6), (0.2, 0.4), (0.3, 0.36)):
        for _ in range(10):
            p = (lo + hi) / 2
            reports.append(cm.channels_compatible(cm.depolarizing_channel(2, p), cm.depolarizing_channel(2, p)))
            lo, hi = (lo, p) if reports[-1].verdict == "compatible" else (p, hi)
    dims, rho = (2, 3, 2, 2), sm.random_density(24, np.random.default_rng(12))
    targets = [(kept, partial_trace(rho, dims, set(range(1, 5)) - set(kept))) for kept in ((1, 2, 4), (3,), (2, 3))]
    reports.append(cm.marginal_feasibility(cm.MarginalSpec(dims, targets)))
    rng = np.random.default_rng(13)
    reports.append(cm.state_steerable(sm.random_density(9, rng), *[sm.random_channel(3, 3, rng) for _ in range(2)]))
    out = {}
    for i, rep in enumerate(reports):
        for f in dataclasses.fields(rep):
            flatten(f"{i:03d}.{f.name}", getattr(rep, f.name), out)
    for command, *preset in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *(["--preset", *preset, "--json"] if preset else [])])
        for name, value in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()), ("code", code)):
            out[f"cli.{':'.join([command, *preset])}.{name}"] = np.asarray(value)
    cases = list(chsh_cases())
    for name, rho, (c11, c21, c12, c22), obs in cases:
        rep = cm.chsh_value(c11, c21, c12, c22, rho, obs)
        for f in dataclasses.fields(rep):
            flatten(f"chsh.{name}.{f.name}", getattr(rep, f.name), out)
        for i, ci in enumerate((c11, c21)):
            for j, cj in enumerate((c12, c22)):
                out[f"chsh.{name}.correlation.{i}{j}"] = np.asarray(cm.correlation(ci, cj, rho, obs))
    np.savez(path, **out)
    print(f"{len(reports)} decisions, {len(COMMANDS)} CLI commands and {len(cases)} CHSH sets, "
          f"{len(out)} fields -> {path}")


def gap(a, b, key):
    """' (max |diff| x)' for a numeric field of one shape in both records, else ''."""
    if key not in a.files or key not in b.files:
        return ""
    x, y = a[key], b[key]
    numeric = all(v.dtype.kind in "iufc" for v in (x, y))
    return f" (max |diff| {np.max(np.abs(x - y), initial=0.0):.3g})" if numeric and x.shape == y.shape else ""


def decisions(a, b):
    """The summary line of the decisions that both records hold."""
    ids = sorted(i for i in (k.removesuffix(".slack") for k in set(a.files) & set(b.files)) if i.isdigit())
    moved = sum(any(not np.array_equal(a[f"{i}.{f}"], b[f"{i}.{f}"]) for f in ("verdict", "iterations"))
                for i in ids)
    worst = max((abs(a[f"{i}.slack"] - b[f"{i}.slack"]) / (1 + abs(a[f"{i}.slack"])) for i in ids), default=0.0)
    return f"{len(ids)} decisions: {moved} differ in verdict or iterations, max |d slack|/(1+|t|) {worst:.3g}"


def compare(a_path, b_path):
    a, b = np.load(a_path, allow_pickle=False), np.load(b_path, allow_pickle=False)
    keys = sorted(set(a.files) | set(b.files))
    differ = [k for k in keys if k not in a.files or k not in b.files
              or (a[k].dtype, a[k].shape, a[k].tobytes()) != (b[k].dtype, b[k].shape, b[k].tobytes())]
    print("".join(f"differs: {k}{gap(a, b, k)}\n" for k in differ) + f"{len(differ)} of {len(keys)} fields differ")
    print(decisions(a, b))
    return 1 if differ else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        sys.exit(compare(*args[1:]))
    if len(args) != 1 or args[0].startswith("-"):
        sys.exit(__doc__)
    record(args[0])
