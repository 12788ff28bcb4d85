import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from choimarg import cli
from choimarg.channels import channel_from_dict, state_from_dict, state_to_dict, w_state
from choimarg.sdp import SdpError
from conftest import SX, SZ


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def smeared_json(pauli, s):
    m = (np.eye(2) + s * pauli) / 2
    return {
        "kind": "measure_prepare",
        "in_dim": 2,
        "out_dim": 2,
        "data": [[[x.real, x.imag] for x in row] for row in m.astype(complex)],
    }


class TestPresetCommands:
    def test_preset_list(self, capsys):
        code, out, _ = run(capsys, ["preset", "list"])
        assert code == 0
        for name in ("identity-pair", "depolarizing-pair", "w-state", "theta-family"):
            assert name in out

    def test_compat_identity_pair(self, capsys):
        code, payload, _ = run_json(capsys, ["compat", "--preset", "identity-pair", "--json"])
        assert code == 0
        assert payload["verdict"] == "incompatible"
        assert payload["slack"] <= -1e-4
        assert payload["witness"] is None
        assert payload["dual_value"] <= -1e-4

    def test_compat_depolarizing_pair_witness_roundtrip(self, capsys):
        code, payload, _ = run_json(capsys, ["compat", "--preset", "depolarizing-pair", "--json"])
        assert code == 0
        assert payload["verdict"] == "compatible"
        joint = channel_from_dict(payload["witness"])
        assert joint.in_dim == 2 and joint.out_dims == (2, 2)

    def test_compat_marginal_exit_code(self, capsys):
        code, payload, _ = run_json(
            capsys, ["compat", "--preset", "identity-pair", "--eps", "0.5", "--json"]
        )
        assert code == 2
        assert payload["verdict"] == "marginal"

    def test_steer_w_state(self, capsys):
        code, payload, _ = run_json(capsys, ["steer", "--preset", "w-state", "--json"])
        assert code == 0
        assert payload["verdict"] == "unsteerable"
        witness, dims = state_from_dict(payload["witness"])
        assert dims == (2, 2, 2)
        assert np.linalg.norm(witness - w_state()) <= 1e-4

    def test_steer_max_entangled(self, capsys):
        code, payload, _ = run_json(capsys, ["steer", "--preset", "max-entangled", "--json"])
        assert code == 0
        assert payload["verdict"] == "steerable"
        assert payload["witness"] is None

    def test_bell_w_state(self, capsys):
        code, payload, _ = run_json(capsys, ["bell", "--preset", "w-state", "--json"])
        assert code == 0
        assert payload["verdict"] == "nonlocal"
        assert payload["slack"] <= -1e-5
        assert abs(payload["chsh"]) <= 2.0  # nonlocal without violating the inequality

    def test_bell_max_entangled(self, capsys):
        # monogamy: no four-partite state has the maximally entangled state as
        # all four pairwise marginals
        code, payload, _ = run_json(capsys, ["bell", "--preset", "max-entangled", "--json"])
        assert code == 0
        assert payload["verdict"] == "nonlocal"
        assert abs(payload["chsh"] - 2.0) <= 1e-9  # nonlocal at X = 2 exactly

    def test_bell_theta_family_peak(self, capsys):
        theta = 3.0 + 2.0 * np.sqrt(2.0)
        code, payload, _ = run_json(
            capsys, ["bell", "--preset", f"theta-family:{theta}", "--json"]
        )
        assert code == 0
        assert payload["verdict"] == "nonlocal"
        assert abs(payload["chsh"] - 2.0 * np.sqrt(2.0)) <= 1e-6

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, ["compat", "--preset", "depolarizing-pair", "--json"])
        _, out2, _ = run(capsys, ["compat", "--preset", "depolarizing-pair", "--json"])
        assert out1 == out2


class TestFileInputs:
    def test_measure_prepare_pair(self, capsys, tmp_path):
        for s, expected in ((0.5, "compatible"), (0.9, "incompatible")):
            p1 = tmp_path / f"mx{s}.json"
            p2 = tmp_path / f"mz{s}.json"
            p1.write_text(json.dumps(smeared_json(SX, s)))
            p2.write_text(json.dumps(smeared_json(SZ, s)))
            code, payload, _ = run_json(capsys, ["compat", str(p1), str(p2), "--json"])
            assert code == 0
            assert payload["verdict"] == expected

    def test_steer_separable_state_file(self, capsys, tmp_path):
        state = tmp_path / "mixed.json"
        state.write_text(json.dumps(state_to_dict(np.eye(4) / 4, dims=(2, 2))))
        chan = tmp_path / "id.json"
        chan.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        code, payload, _ = run_json(
            capsys, ["steer", str(state), str(chan), str(chan), "--json"]
        )
        assert code == 0
        assert payload["verdict"] == "unsteerable"

    def test_bell_witness_roundtrip(self, capsys, tmp_path):
        state = tmp_path / "mixed.json"
        state.write_text(json.dumps(state_to_dict(np.eye(4) / 4, dims=(2, 2))))
        chan = tmp_path / "id.json"
        chan.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        code, payload, _ = run_json(
            capsys, ["bell", str(state)] + [str(chan)] * 4 + ["--json"]
        )
        assert code == 0
        assert payload["verdict"] == "local"
        witness, dims = state_from_dict(payload["witness"])
        assert dims == (2, 2, 2, 2)
        assert abs(payload["chsh"]) <= 2.0 + 1e-9

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "verdict.json"
        code, payload, _ = run_json(
            capsys, ["compat", "--preset", "identity-pair", "--json", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text()) == payload


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["compat", str(bad), str(bad)])
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["compat", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")])
        assert code == 1
        assert "cannot read" in err

    def test_invariant_violation_named(self, capsys, tmp_path):
        bad = tmp_path / "bad_channel.json"
        # Choi that is not trace preserving
        bad.write_text(json.dumps({
            "kind": "choi", "in_dim": 2, "out_dim": 2,
            "data": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
        }))
        code, _, err = run(capsys, ["compat", str(bad), str(bad)])
        assert code == 1
        assert "trace preserving" in err

    @pytest.mark.parametrize("channel, state, field", [
        ({"kind": "kraus", "in_dim": 2, "out_dim": 2}, None, "data"),
        ({"kind": "choi", "in_dim": 2, "out_dim": 2, "out_dims": ["x"],
          "data": [[[0.5 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}, None, "out_dims"),
        ({"kind": "measure_prepare", "data": {"preparations": None}}, None, "effects"),
        ({"kind": "identity"}, {"kind": "density", "dims": [2, 2]}, "data"),
        ({"kind": "identity", "in_dim": 0}, None, "in_dim"),
        ({"kind": "identity", "in_dim": -2}, None, "in_dim"),
        ({"kind": "identity", "in_dim": 2.7}, None, "in_dim"),
        ({"kind": "identity", "in_dim": True}, None, "in_dim"),
        ({"kind": "identity"}, state_to_dict(np.eye(4) / 4) | {"dims": [2.5, 2]}, "dims"),
    ], ids=["kraus-without-data", "choi-bad-out-dims", "measure-prepare-without-effects",
            "density-without-data", "in-dim-zero", "in-dim-negative", "in-dim-fractional",
            "in-dim-boolean", "dims-fractional"])
    def test_malformed_field_named(self, capsys, tmp_path, channel, state, field):
        # a missing or malformed field is an input error that names the field
        chan = tmp_path / "channel.json"
        chan.write_text(json.dumps(channel))
        argv = ["compat", str(chan), str(chan)]
        if state is not None:
            rho = tmp_path / "state.json"
            rho.write_text(json.dumps(state))
            argv = ["steer", str(rho), str(chan), str(chan)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("choimarg: error: ") and repr(field) in err

    @pytest.mark.parametrize("argv", [
        ["compat", "--preset", "identity-pair"],
        ["chsh-scan", "--steps", "3"],
    ], ids=["compat", "chsh-scan"])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, argv + ["--out", str(path)])
        assert code == 1
        assert err.startswith(f"choimarg: error: cannot write {path}: ")

    @pytest.mark.parametrize("theta", ["inf", "nan", "1e400"])
    def test_non_finite_theta(self, capsys, theta):
        code, out, err = run(capsys, ["bell", "--preset", f"theta-family:{theta}"])
        assert code == 1
        assert out == ""
        assert err == (
            f"choimarg: error: preset 'theta-family:{theta}': theta must be finite and nonnegative\n"
        )

    def test_dimension_mismatch(self, capsys, tmp_path):
        state = tmp_path / "state3.json"
        state.write_text(json.dumps(state_to_dict(np.eye(3) / 3, dims=(3,))))
        chan = tmp_path / "id.json"
        chan.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        code, _, err = run(capsys, ["steer", str(state), str(chan), str(chan)])
        assert code == 1

    @pytest.mark.parametrize("dims, code", [((2, 3), 1), ((3, 2), 0), ((6,), 0)])
    def test_steer_state_dims_must_end_in_the_channel_input(self, capsys, tmp_path, dims, code):
        # qubit channels read a 6 x 6 state as reference 3 (x) input 2, which a
        # state declared on (2, 3) is not
        state = tmp_path / "state.json"
        state.write_text(json.dumps(state_to_dict(np.eye(6) / 6, dims=dims)))
        chan = tmp_path / "id.json"
        chan.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        got, out, err = run(capsys, ["steer", str(state), str(chan), str(chan), "--json"])
        assert got == code
        if code:
            assert out == ""
            assert err == (
                f"choimarg: error: state dims {list(dims)} do not end in factors of "
                "dimension 2, the channel input\n"
            )
        else:
            assert json.loads(out)["witness"]["dims"] == [3, 2, 2]

    @pytest.mark.parametrize("dims, code", [((3, 2), 1), ((2, 3), 0), ((6,), 0)])
    def test_bell_state_dims_must_split_at_the_wings(self, capsys, tmp_path, dims, code):
        # wing 1 takes qubits and wing 2 qutrits: the state must be 2 (x) 3
        state = tmp_path / "state.json"
        state.write_text(json.dumps(state_to_dict(np.eye(6) / 6, dims=dims)))
        qubit, qutrit = tmp_path / "id2.json", tmp_path / "id3.json"
        qubit.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        qutrit.write_text(json.dumps({"kind": "identity", "in_dim": 3, "out_dim": 3}))
        argv = ["bell", str(state), str(qubit), str(qubit), str(qutrit), str(qutrit), "--json"]
        got, out, err = run(capsys, argv)
        assert got == code
        if code:
            assert out == ""
            assert "state dims [3, 2]" in err
        else:
            assert json.loads(out)["witness"]["dims"] == [2, 2, 3, 3]

    def test_preset_and_files_conflict(self, capsys, tmp_path):
        chan = tmp_path / "id.json"
        chan.write_text(json.dumps({"kind": "identity", "in_dim": 2, "out_dim": 2}))
        code, _, err = run(
            capsys, ["compat", str(chan), str(chan), "--preset", "identity-pair"]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--eps"])
    def test_nonpositive_eps(self, capsys, flag, value):
        # a non-finite value is bad input, not a solver failure or a verdict
        code, out, err = run(capsys, ["compat", "--preset", "identity-pair", flag, value])
        assert code == 1
        assert out == ""
        assert err == "choimarg: error: --eps must be finite and strictly positive\n"

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, ["steer", "--preset", "identity-pair"])
        assert code == 1
        assert "preset" in err

    def test_invalid_scan_range(self, capsys):
        code, _, _ = run(capsys, ["chsh-scan", "--theta-min", "1", "--theta-max", "1"])
        assert code == 1

    def test_infinite_scan_bound(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["chsh-scan", "--theta-min", "1", "--theta-max", "inf"])
        assert code == 1
        assert out == ""
        assert err == "choimarg: error: invalid scan range [1.0, inf]\n"

    def test_solver_error_exit_code(self, capsys, monkeypatch):
        def fail(*_args, **_kwargs):
            raise SdpError("feasibility solve did not converge: status max_iterations")

        monkeypatch.setattr(cli, "channels_compatible", fail)
        code, out, err = run(capsys, ["compat", "--preset", "identity-pair"])
        assert code == cli.EXIT_SOLVER_ERROR == 3
        assert out == ""
        assert err == "choimarg: solver error: feasibility solve did not converge: status max_iterations\n"


class TestScanCommand:
    def test_csv_file_and_summary(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(
            capsys,
            ["chsh-scan", "--theta-min", "1", "--theta-max", "10", "--steps", "91",
             "--out", str(out)],
        )
        assert code == 0
        assert "max X" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,X"
        assert len(lines) == 92
        for line in lines[1:]:
            theta, x = (float(v) for v in line.split(","))
            assert x <= 2.8284272

    def test_csv_to_stdout(self, capsys):
        code, stdout, err = run(
            capsys, ["chsh-scan", "--theta-min", "1", "--theta-max", "2", "--steps", "3"]
        )
        assert code == 0
        assert stdout.startswith("theta,X\n")
        assert "max X" in err


class TestReadme:
    def test_command_line_block_parses(self):
        # every line of the README's command-line block, flags included, is
        # accepted by the parser; a flag that no longer exists fails it
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
        flags = set()
        for line in block.splitlines():
            # placeholders such as E and P stand for values; [...] repeats the first line's options
            words = re.sub(r"[][]", " ", line).split()[1:]
            argv = ["1" if re.fullmatch("[A-Z]", w) else w for w in words if w != "..."]
            flags.update(w for w in argv if w.startswith("--"))
            cli.build_parser().parse_args(argv)
        assert {"--eps", "--out", "--json", "--steps"} <= flags
