"""Command-line front end.

Subcommands: ``compat``, ``steer``, ``bell``, ``chsh-scan``, ``preset list``.
Verdict commands print a JSON object to stdout (pretty by default, compact
with ``--json``) and optionally write it to ``--out``. Exit codes: 0 for any
decided verdict, 2 for a marginal verdict, 1 for input errors, 3 when the
solver cannot certify a verdict (no convergence, or a witness that fails its
independent validation).

Floats in emitted JSON are rounded to 12 significant digits so that identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import presets
from .channels import Channel, channel_from_dict, channel_to_dict, state_from_dict, state_to_dict
from .chsh import chsh_scan, chsh_value, scan_to_csv
from .marginals import bell_local, channels_compatible, state_steerable
from .sdp import BAND, FEASIBLE, INFEASIBLE, SdpError

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_MARGINAL = 2
EXIT_SOLVER_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1, keeping 2 for marginal verdicts."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _round_floats(obj, sig: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def _emit(payload: dict, args: argparse.Namespace) -> None:
    payload = _round_floats(payload)
    text = json.dumps(payload, indent=None if args.json else 2, sort_keys=True)
    print(text)
    if args.out:
        _write_text(args.out, text + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_channel(path: str) -> Channel:
    return channel_from_dict(_load_json(path))


def _load_state(path: str, d_last: int, last: str) -> np.ndarray:
    """A state from JSON. If it declares more than one factor, its last
    factors must make up ``last``, of dimension ``d_last``."""
    rho, dims = state_from_dict(_load_json(path))
    if len(dims) > 1 and d_last not in {math.prod(dims[k:]) for k in range(1, len(dims))}:
        raise ValueError(
            f"state dims {list(dims)} do not end in factors of dimension {d_last}, the {last}"
        )
    return rho


def _need(args: argparse.Namespace, names: list[str]) -> None:
    if not (np.isfinite(args.eps) and args.eps > 0):
        raise ValueError("--eps must be finite and strictly positive")
    missing = [n for n in names if getattr(args, n) is None]
    if args.preset and any(getattr(args, n) is not None for n in names):
        raise ValueError("give either --preset or explicit input files, not both")
    if not args.preset and missing:
        raise ValueError(f"missing input files: {', '.join(missing)} (or use --preset)")


def _cmd_compat(args: argparse.Namespace) -> int:
    _need(args, ["channel1", "channel2"])
    if args.preset:
        c1, c2 = presets.compat_preset(args.preset)
    else:
        c1, c2 = _load_channel(args.channel1), _load_channel(args.channel2)
    rep = channels_compatible(c1, c2, eps=args.eps)
    payload = {
        "verdict": rep.verdict,
        "slack": rep.slack,
        "witness": channel_to_dict(rep.joint_choi) if rep.joint_choi is not None else None,
        "dual_value": rep.dual_value,
    }
    _emit(payload, args)
    return EXIT_MARGINAL if rep.verdict == "marginal" else EXIT_OK


def _cmd_steer(args: argparse.Namespace) -> int:
    _need(args, ["state", "channel1", "channel2"])
    if args.preset:
        rho, c1, c2 = presets.steer_preset(args.preset)
    else:
        c1, c2 = _load_channel(args.channel1), _load_channel(args.channel2)
        rho = _load_state(args.state, c1.in_dim, "channel input")
    rep = state_steerable(rho, c1, c2, eps=args.eps)
    verdict = {FEASIBLE: "unsteerable", INFEASIBLE: "steerable"}.get(rep.status, "marginal")
    d_c = rho.shape[0] // c1.in_dim
    payload = {
        "verdict": verdict,
        "slack": rep.slack,
        "witness": (
            state_to_dict(rep.witness, dims=(d_c, c1.out_dim, c2.out_dim))
            if rep.witness is not None
            else None
        ),
    }
    _emit(payload, args)
    return EXIT_MARGINAL if verdict == "marginal" else EXIT_OK


def _cmd_bell(args: argparse.Namespace) -> int:
    _need(args, ["state", "channel11", "channel21", "channel12", "channel22"])
    if args.preset:
        rho, c11, c21, c12, c22 = presets.bell_preset(args.preset)
    else:
        c11, c21 = _load_channel(args.channel11), _load_channel(args.channel21)
        c12, c22 = _load_channel(args.channel12), _load_channel(args.channel22)
        rho = _load_state(args.state, c12.in_dim, "input of wing 2")
    rep = bell_local(rho, c11, c21, c12, c22, eps=args.eps)
    verdict = {FEASIBLE: "local", INFEASIBLE: "nonlocal"}.get(rep.status, "marginal")
    outs = (c11.out_dim, c21.out_dim, c12.out_dim, c22.out_dim)
    x = None
    if outs == (2, 2, 2, 2):
        x = chsh_value(c11, c21, c12, c22, rho).value
    payload = {
        "verdict": verdict,
        "slack": rep.slack,
        "chsh": x,
        "witness": (
            state_to_dict(rep.witness, dims=outs) if rep.witness is not None else None
        ),
    }
    _emit(payload, args)
    return EXIT_MARGINAL if verdict == "marginal" else EXIT_OK


def _cmd_chsh_scan(args: argparse.Namespace) -> int:
    rows = chsh_scan(args.theta_min, args.theta_max, args.steps)
    csv = scan_to_csv(rows)
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    summary = f"max X = {rows[best][1]:.12g} at theta = {rows[best][0]:.12g}"
    if args.out:
        _write_text(args.out, csv)
        print(summary)
    else:
        sys.stdout.write(csv)
        print(summary, file=sys.stderr)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    if args.action != "list":
        raise ValueError(f"unknown preset action {args.action!r}")
    print(presets.describe_presets())
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=BAND, help="feasibility band half-width")
    p.add_argument("--out", help="also write the JSON verdict to this path")
    p.add_argument("--json", action="store_true", help="compact single-line JSON output")
    p.add_argument("--preset", help="use a named preset instead of input files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="choimarg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compat", help="decide compatibility of two channels")
    p.add_argument("channel1", nargs="?", help="channel JSON file")
    p.add_argument("channel2", nargs="?", help="channel JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("steer", help="decide steerability of a state by a channel pair")
    p.add_argument("state", nargs="?", help="state JSON file")
    p.add_argument("channel1", nargs="?", help="channel JSON file")
    p.add_argument("channel2", nargs="?", help="channel JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_steer)

    p = sub.add_parser("bell", help="decide Bell locality of a state under four channels")
    p.add_argument("state", nargs="?", help="state JSON file")
    p.add_argument("channel11", nargs="?", help="first channel of wing 1")
    p.add_argument("channel21", nargs="?", help="second channel of wing 1")
    p.add_argument("channel12", nargs="?", help="first channel of wing 2")
    p.add_argument("channel22", nargs="?", help="second channel of wing 2")
    _add_common(p)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("chsh-scan", help="scan the CHSH value of the theta family")
    p.add_argument("--theta-min", type=float, default=1.0)
    p.add_argument("--theta-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=901)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=_cmd_chsh_scan)

    p = sub.add_parser("preset", help="inspect the available presets")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"choimarg: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SdpError as exc:
        print(f"choimarg: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
