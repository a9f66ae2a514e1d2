"""Command-line surface: classification, phase reports, region/curve sweeps,
critical-ratio search and resonance shifts, with deterministic CSV/JSON/SVG
output and a manifest per produced file.

Every file-producing run writes `<output>.manifest`, a key=value config that
reproduces the run bit-exactly via --config. Exit codes: 0 ok, 2 domain
error, 3 numerical error, 4 no cyclic states.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import DegeneracyError, DomainError, NoCyclicStatesError, NumericalError
from .model import (
    BINDINGS,
    J6,
    SystemParams,
    build_G,
    make_params_adiabatic,
    make_params_dimensionless,
)
from .phases import FockLabel, aa_phase, berry_phase_adiabatic, resonance_shift
from .spectral import GAP_FACTOR, classify
from .sweep import GAP_SLOPE_SCALE, GridSpec, curve_fig2, find_kcr, sweep_fig1
from . import svgplot

_SPECTRAL_CONSTANTS = {"gap_factor": repr(GAP_FACTOR)}

_CANONICAL = {
    "sweep_fig1": "sweep-fig1",
    "curve_fig2": "curve-fig2",
    "find_kcr": "find-kcr",
}

def _add_param_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None, help="dimensionless b/omega (omega = 1)")
    p.add_argument("--alpha0", type=float, default=None, help="dimensionless b0/omega (omega = 1)")
    p.add_argument("--w", type=float, default=None, help="dimensionless w0/omega (omega = 1)")
    p.add_argument("--k", type=float, default=None, help="field ratio B/B0 (b0 = 1, loop binding)")
    p.add_argument("--omega", type=float, default=None, help="rotation frequency (with --k)")
    p.add_argument(
        "--binding", choices=tuple(BINDINGS), default="penning",
        help="binding potential variant",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penphase",
        description="Stability regions, normal modes and geometric phases of a "
        "rotating-field Penning trap.",
    )
    parser.add_argument("--version", action="version", version=f"penphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a parameter point")
    _add_param_options(p)
    p.add_argument("--json", action=argparse.BooleanOptionalAction, default=False,
                   help="print machine-readable JSON")
    p.add_argument("-o", "--output", default=None, help="also write the JSON report here")
    p.add_argument("--config", default=None, help="key=value config file")

    p = sub.add_parser("phases", help="geometric-phase report for one Fock label")
    _add_param_options(p)
    p.add_argument("--n1", type=int, default=0)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--n3", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="write the JSON report here")
    p.add_argument("--config", default=None)

    p = sub.add_parser("sweep-fig1", aliases=["sweep_fig1"],
                       help="region map over (alpha, alpha0)")
    grid_defaults = GridSpec()
    for field in dataclasses.fields(grid_defaults):
        default = getattr(grid_defaults, field.name)
        p.add_argument("--" + field.name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--gap-scale", type=float, default=GAP_SLOPE_SCALE,
                   help="grid-resolution degeneracy margin, in gap-slope units")
    p.add_argument("--auto-extend", action=argparse.BooleanOptionalAction, default=True,
                   help="widen the window until four confined components appear")
    p.add_argument("-o", "--output", required=False, default="fig1.csv")
    p.add_argument("--svg", default=None, help="also render the map to this SVG")
    p.add_argument("--config", default=None)

    p = sub.add_parser("curve-fig2", aliases=["curve_fig2"],
                       help="adiabatic derivative curves over k")
    p.add_argument("--k-min", type=float, default=0.01)
    p.add_argument("--k-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--binding", choices=tuple(BINDINGS), default="penning")
    p.add_argument("-o", "--output", required=False, default="fig2.csv")
    p.add_argument("--svg", default=None, help="also render the curves to this SVG")
    p.add_argument("--config", default=None)

    p = sub.add_parser("find-kcr", aliases=["find_kcr"],
                       help="locate the critical field ratio by bisection")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("-o", "--output", default=None, help="write the JSON result here")
    p.add_argument("--config", default=None)

    p = sub.add_parser("resonance", help="resonance-peak shift between two labels")
    _add_param_options(p)
    p.add_argument("--n1", type=int, default=0)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--n3", type=int, default=0)
    p.add_argument("--np1", type=int, default=0)
    p.add_argument("--np2", type=int, default=0)
    p.add_argument("--np3", type=int, default=0)
    p.add_argument("--delta-omega", type=float, required=False, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--config", default=None)

    return parser


def _read_config(path: str, command: str, defaults: dict) -> List[str]:
    """Turn a key=value config file into an argv prefix for `command`, whose
    option dests map to their defaults in `defaults` (a bool one: a boolean key)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    tokens: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "command":
            if _CANONICAL.get(value, value) != command:
                raise DomainError(
                    f"config is for command {value!r}, not {command!r}"
                )
            continue
        if key == "artifact_version":
            continue
        if key in _SPECTRAL_CONSTANTS:
            if value != _SPECTRAL_CONSTANTS[key]:
                raise DomainError(
                    f"config pins {key}={value} but this build uses "
                    f"{_SPECTRAL_CONSTANTS[key]}"
                )
            continue
        if key == "config" or key not in defaults:
            raise DomainError(f"unknown config key {key!r} for command {command!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(defaults[key], bool):
            if value not in ("true", "false"):
                raise DomainError(f"boolean key {key} must be true or false, got {value!r}")
            tokens.append(flag if value == "true" else "--no-" + key.replace("_", "-"))
        elif value != "none":
            tokens.extend([flag, value])
    return tokens


def _manifest_text(command: str, args: argparse.Namespace) -> str:
    lines = [f"command={command}", f"artifact_version={__version__}"]
    for key, val in sorted(_SPECTRAL_CONSTANTS.items()):
        lines.append(f"{key}={val}")
    for dest, val in vars(args).items():
        if dest in ("command", "config"):
            continue
        if val is None:
            rendered = "none"
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        lines.append(f"{dest}={rendered}")
    return "\n".join(lines) + "\n"


def _write_file(path: str, render) -> None:
    """Call `render` on a new text file next to `path`, then move it over `path`,
    so `path` never holds a partial file. On any exception the new file is
    removed and an existing `path` keeps its bytes; an OSError becomes a
    DomainError (exit 2)."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(partial, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                render(fh)
            os.replace(partial, path)
        except BaseException:
            os.remove(partial)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    _write_file(path, lambda fh: fh.write(text))


def _emit_manifest(command: str, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        _write_text(args.output + ".manifest", _manifest_text(command, args))


def _params_from_args(args) -> SystemParams:
    dimensionless = args.alpha is not None or args.alpha0 is not None or args.w is not None
    adiabatic = args.k is not None
    if dimensionless == adiabatic:
        raise DomainError(
            "give exactly one parameterization: --alpha/--alpha0/--w or --k [--omega]"
        )
    if dimensionless:
        if args.alpha is None or args.alpha0 is None or args.w is None:
            raise DomainError("the dimensionless style needs all of --alpha, --alpha0, --w")
        if args.omega is not None:
            raise DomainError("--omega applies to the --k style only (omega = 1 here)")
        return make_params_dimensionless(args.alpha, args.alpha0, args.w)
    omega = 0.0 if args.omega is None else args.omega
    return make_params_adiabatic(args.k, omega)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_json(command: str, args: argparse.Namespace, result) -> int:
    """Print a result dataclass as JSON; with -o, also write it and its manifest."""
    text = _json_dumps(dataclasses.asdict(result))
    sys.stdout.write(text)
    if args.output:
        _write_text(args.output, text)
        _emit_manifest(command, args)
    return 0


def _cmd_classify(args) -> int:
    params = _params_from_args(args)
    binding = BINDINGS[args.binding](params.w0)
    spectrum = classify(J6 @ build_G(params, binding).S)
    ev = sorted(spectrum.raw_eigenvalues, key=lambda z: (round(z.imag, 12), z.real))
    report = {
        "classification": spectrum.classification.name.capitalize(),
        "eigenvalues": [[z.real, z.imag] for z in ev],
        "modes": [
            {"freq": m.freq, "krein_sign": m.krein_sign} for m in spectrum.modes
        ],
    }
    text = _json_dumps(report)
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"classification: {report['classification']}")
        print("eigenvalues:")
        for re, im in report["eigenvalues"]:
            print(f"  {re:+.16e} {im:+.16e}i")
        if spectrum.modes:
            print("modes (freq, krein):")
            for i, m in enumerate(spectrum.modes, start=1):
                print(f"  {i}: {m.freq:.16g}  {m.krein_sign:+d}")
    if args.output:
        _write_text(args.output, text)
        _emit_manifest("classify", args)
    return 0


def _cmd_phases(args) -> int:
    params = _params_from_args(args)
    binding = BINDINGS[args.binding](params.w0)
    label = FockLabel(args.n1, args.n2, args.n3)
    if params.omega > 0:
        report = aa_phase(params, binding, label)
    else:
        report = berry_phase_adiabatic(params.k, binding, label)
    return _emit_json("phases", args, report)


def _cmd_sweep_fig1(args) -> int:
    grid = GridSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GridSpec)})
    rm = sweep_fig1(grid, auto_extend=args.auto_extend, gap_scale=args.gap_scale)
    _write_file(args.output, rm.to_csv)
    if args.svg:
        _write_file(args.svg, lambda fh: svgplot.region_map_svg(rm, fh))
    _emit_manifest("sweep-fig1", args)
    g = rm.grid
    print(
        f"confined components: {rm.n_components}; unconfined regions: "
        f"{rm.n_unconfined_regions}; window alpha in [{g.alpha_min:g}, {g.alpha_max:g}], "
        f"alpha0 in [{g.alpha0_min:g}, {g.alpha0_max:g}] "
        f"(auto-extended: {str(rm.auto_extended).lower()})"
    )
    return 0


def _cmd_curve_fig2(args) -> int:
    if args.points < 2:
        raise DomainError("need at least 2 grid points")
    if not (math.isfinite(args.k_min) and math.isfinite(args.k_max)):
        raise DomainError("k grid must be finite")
    ks = np.linspace(args.k_min, args.k_max, args.points)
    table = curve_fig2(ks, binding=args.binding)
    _write_file(args.output, table.to_csv)
    if args.svg:
        _write_file(args.svg, lambda fh: svgplot.curves_svg(table, fh))
    _emit_manifest("curve-fig2", args)
    print(f"rows: {len(table.k)}; stable pair below k = "
          f"{table.k[table.stable23][-1] if table.stable23.any() else float('nan'):g}")
    return 0


def _cmd_find_kcr(args) -> int:
    return _emit_json("find-kcr", args, find_kcr(tol=args.tol))


def _cmd_resonance(args) -> int:
    params = _params_from_args(args)
    binding = BINDINGS[args.binding](params.w0)
    if args.delta_omega is None:
        raise DomainError("--delta-omega is required")
    res = resonance_shift(
        params,
        binding,
        FockLabel(args.n1, args.n2, args.n3),
        FockLabel(args.np1, args.np2, args.np3),
        args.delta_omega,
    )
    return _emit_json("resonance", args, res)


_DISPATCH = {
    "classify": _cmd_classify,
    "phases": _cmd_phases,
    "sweep-fig1": _cmd_sweep_fig1,
    "curve-fig2": _cmd_curve_fig2,
    "find-kcr": _cmd_find_kcr,
    "resonance": _cmd_resonance,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        command = _CANONICAL.get(args.command, args.command)
        if getattr(args, "config", None):
            prefix = _read_config(args.config, command, vars(parser.parse_args([command])))
            # config supplies defaults; explicit flags win by coming last
            try:
                args = parser.parse_args([command, *prefix, *argv[1:]])
            except SystemExit as exc:
                return int(exc.code or 0)
        args.command = command
        return _DISPATCH[command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoCyclicStatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DegeneracyError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
