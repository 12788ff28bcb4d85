"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import choimarg as cm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from stats import at_reference, tail  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, value, beyond",
    [(1000, 98, 980.02, 20), (100, 90, 90.1, 10), (15, 90, 13.6, 2), (2, 90, 1.9, 1), (1, 90, 1.0, 0)],
)
def test_tail_is_a_fixed_percentile_with_the_samples_beyond_it(n, pct, value, beyond):
    got, got_beyond = tail([float(i) for i in range(n, 0, -1)], pct)
    assert got == pytest.approx(value) and got_beyond == beyond


def test_tail_percentile_does_not_move_with_the_sample_count():
    one_pass = [1.0] * 11 + [4.0] * 4  # the qutrit-compat mix: three cheap per costly
    assert tail(one_pass, 90)[0] == tail(one_pass * 3, 90)[0] == 4.0


# ---------------------------------------------------------------------------
# host-speed rescaling
# ---------------------------------------------------------------------------


def test_latency_is_rescaled_by_the_probes_around_it():
    probes = [(0.0, 2.0), (1.5, 4.0), (3.5, 2.0)]
    ops = [(0.5, 1.0), (2.0, 1.0), (2.0, 1.5)]  # the last one ends exactly at a probe
    assert at_reference(ops, probes, 1.0) == pytest.approx([1.0 / 3.0, 1.0 / 3.0, 0.5])


def test_rescaling_needs_a_probe_on_both_sides():
    with pytest.raises(ValueError):
        at_reference([(0.5, 1.0)], [(0.0, 1.0)], 1.0)
    with pytest.raises(ValueError):
        at_reference([(0.5, 1.0)], [(1.6, 1.0)], 1.0)


def test_run_ops_probes_around_every_operation():
    make_pass = lambda: iter([wl.Op("a", run=lambda: time.sleep(0.01), check=lambda r: None)])  # noqa: E731
    records, wall, probes = run.run_ops(wl, make_pass, "small", 0.05, whole_passes=False)
    assert records and all(r.ref_s > 0 for r in records)
    assert probes[0][0] < records[0].start_s and probes[-1][0] > records[-1].start_s + records[-1].latency_s
    assert wall < sum(r.latency_s for r in records) + 0.05


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    tracer = tracing.Tracer()
    grandchild = tracer._wrap("grandchild", lambda: None, "test")
    child = tracer._wrap("child", lambda: grandchild(), "test")
    root = tracer._wrap("root", lambda: (child(), child()), "test")
    root()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("root", -1), ("child", 0), ("grandchild", 1), ("child", 0), ("grandchild", 3)
    ]
    dur = [s[2] - s[1] for s in tracer.spans]
    expected = [dur[0] - dur[1] - dur[3], dur[1] - dur[2], dur[2], dur[3] - dur[4], dur[4]]
    assert tracer.self_times() == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_traced_self_times_add_up_to_the_root_spans():
    channels = [cm.unitary_channel(np.eye(2))] * 4
    tracer = tracing.Tracer()
    with tracer:
        cm.chsh_value(*channels, cm.max_entangled(2))
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert [s[0] for s in tracer.spans if s[3] < 0] == ["chsh.chsh_value"]
    assert {"chsh.correlation", "channels.tensor", "channels.apply", "linalg.partial_trace"} <= {
        s[0] for s in tracer.spans
    }
    assert sum(tracer.self_times()) == pytest.approx(roots)
    assert not hasattr(cm.chsh.correlation, "__wrapped__")  # uninstalled on exit


def test_wrapping_reaches_every_binding_and_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "linalg.gone", ("choimarg.linalg", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        assert hasattr(cm.marginals.embed, "__wrapped__") and hasattr(cm.linalg.embed, "__wrapped__")
        cm.channels_compatible(cm.identity_channel(2), cm.identity_channel(2))
    assert tracer.absent == ["linalg.gone"]
    names = {s[0] for s in tracer.spans}
    assert {"sdp.solve", "sdp.hermitian_feasibility", "linalg.embed", "linalg.realify"} <= names
    (solve,) = tracer.solves
    assert solve["status"] == "optimal" and solve["m_kept"] <= solve["m"]
    metrics = tracer.layer_metrics(1, [1.0], 0.0)
    assert metrics["sdp.solve.calls"] == 1
    assert metrics["marginals.rows"] == solve["m"]
    assert set(metrics) == set(tracing.PER_LAYER)


# ---------------------------------------------------------------------------
# checks count wrong outputs as failures
# ---------------------------------------------------------------------------


def _identity_pair_op(expect):
    c = cm.identity_channel(2)
    m = c.choi
    return wl.Op(
        "identity",
        run=lambda: cm.channels_compatible(c, c),
        check=lambda rep: wl.check_compat(m, m, (2, 2, 2), rep, expect),
    )


def _run(ops):
    records = []
    for op in ops:
        run.execute(op)
        records.append(wl.Record(op, 0.0))
    wl.check_records(records)
    return records, run.summarize(records)


def test_right_verdict_passes():
    records, summary = _run([_identity_pair_op("incompatible")])
    assert summary == {"attempted": 1, "failed": 0, "correct": True}


def test_wrong_expected_verdict_is_a_failure():
    records, summary = _run([_identity_pair_op("compatible")])
    assert summary == {"attempted": 1, "failed": 1, "correct": False}
    assert "oracle says compatible" in records[0].message


def test_corrupted_certificate_is_a_failure():
    op = _identity_pair_op("incompatible")
    honest = op.run
    op.run = lambda: (lambda r: replace(r, dual_witness=(-r.dual_witness[0], r.dual_witness[1])))(honest())
    records, summary = _run([op])
    assert summary["correct"] is False and summary["failed"] == 1
    assert records[0].message.startswith("certificate")


def test_raising_operation_fails_without_being_wrong():
    op = wl.Op("boom", run=lambda: 1 / 0, check=lambda r: None)
    records, summary = _run([op])
    assert summary == {"attempted": 1, "failed": 1, "correct": True}
    assert records[0].message.startswith("ZeroDivisionError")


def test_malformed_output_is_wrong():
    argv, check = wl.cli_calls(2.0)[0]
    op = wl.Op("cli", run=lambda: (0, '{"verdict": "incompatible"}', ""), check=check)
    records, summary = _run([op])
    assert summary["correct"] is False
    assert records[0].message.startswith("malformed output")


def test_bisection_bracket_must_contain_the_threshold():
    assert wl.check_bisection(wl.Group(0.3, 0.34, done=True)) is None
    assert wl.check_bisection(wl.Group(0.3, 0.33, done=True))[0] == wl.WRONG
    assert wl.check_bisection(wl.Group(0.33, 0.34, in_band_p=0.335, done=True))[0] == wl.WRONG


def test_cli_output_must_repeat_byte_identically():
    argv = ("compat", "--preset", "identity-pair", "--json")
    ops = [wl.Op("cli", run=lambda: wl.run_cli(argv), check=lambda r: None, key=argv) for _ in range(2)]
    run.execute(ops[0])
    ops[1].result = (0, ops[0].result[1].replace("}", ' }'), "")
    records = [wl.Record(op, 0.0) for op in ops]
    wl.check_records(records)
    assert [r.status for r in records] == [wl.OK, wl.WRONG]


def test_every_workload_can_be_named():
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)


def test_inputs_repeat_for_a_seed():
    a, b = wl.qubit_inputs(5), wl.qubit_inputs(5)
    assert a == b and a != wl.qubit_inputs(6)
    assert all(1.0 < theta <= 10.0 for theta, _lo, _hi in a)
    (p1,), (p2,) = wl.qutrit_inputs(5), wl.qutrit_inputs(5)
    assert [x[0] for x in p1] == list(wl.QUTRIT_BLOCK)
    assert all(np.array_equal(x[1].choi, y[1].choi) for x, y in zip(p1, p2))


def test_whole_passes_complete_past_the_deadline():
    make_pass = lambda: iter([wl.Op("a", run=lambda: None, check=lambda r: None) for _ in range(3)])  # noqa: E731
    records, _wall, _probes = run.run_ops(wl, make_pass, "small", 0.0, whole_passes=True)
    assert len(records) == 3
    records, _wall, _probes = run.run_ops(wl, make_pass, "small", 0.0, whole_passes=False)
    assert records == []
