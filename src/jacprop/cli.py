"""Command-line front end for the theory, ensemble and fitting pipelines.

Every command is deterministic given its flags (including ``--seed``),
emits CSV with '#'-prefixed header comments carrying the full run
configuration, or flat JSON with "inf"/"nan" spelled as strings.  Exit
codes: 0 on success, 2 on usage errors, 1 on runtime failures.  A JSON
file passed via ``--config`` overrides the corresponding flags of the
chosen subcommand, each value checked by the flag's own type and choices
(a switch takes only true/false; any other key or a bad value is a usage
error), and the ``JACPROP_WORKERS`` environment variable (a positive
integer, by default the CPUs the process may use) caps the worker
processes that evaluate an ensemble's members, never more than one per
member.  The JSON of ``mc chi``, ``mc profile`` and ``mc ntk`` records
``workers``, the processes that evaluated the members, and
``members_in_processes``, false when they ran in the calling process
(one worker, or no pool could start).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import __version__
from .activations import Activation
from .analysis import fit_exponential, fit_power_law, phase_grid
from .critical import critical_line, critical_point
from .ensemble import (
    EnsembleConfig,
    _workers,
    empirical_chi,
    ensemble_ntk,
    jacobian_profile,
    n0_correction_check,
)
from .meanfield import Hyper, NormMode, trace

_MODES = {"vanilla": NormMode.VANILLA, "pre-ln": NormMode.PRE_LN, "post-ln": NormMode.POST_LN}


def parse_activation(text: str) -> Activation:
    """Flag vocabulary: relu | erf | gelu | scale-invariant:a+:a-."""
    if text == "relu":
        return Activation.relu()
    if text == "erf":
        return Activation.erf()
    if text == "gelu":
        return Activation.gelu()
    if text.startswith("scale-invariant:"):
        parts = text.split(":")
        try:
            a_plus, a_minus = map(float, parts[1:])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected scale-invariant:a+:a-, got {text!r}"
            ) from None
        return Activation.scale_invariant(a_plus, a_minus)
    raise argparse.ArgumentTypeError(f"unknown activation {text!r}")


def parse_mode(text: str) -> NormMode:
    try:
        return _MODES[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown mode {text!r}; choose from {sorted(_MODES)}"
        ) from None


def _checked(parse):
    """Argparse type for a vocabulary flag: ``parse`` checks the text, which
    is kept as given for the run record."""

    def check(text: str) -> str:
        parse(text)
        return text

    check.__name__ = parse.__name__
    return check


def _positive_int(text: str) -> int:
    """Argparse type for a count that must be at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sweep_bounds(args, *names) -> None:
    """Refuse a sweep bound that is NaN, infinite or negative, naming its flag."""
    for name in names:
        value = getattr(args, name)
        if not (math.isfinite(value) and value >= 0):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be finite and nonnegative, got {value}")


def _fmt(v) -> str:
    """Round-trip-safe scalar formatting for CSV cells ("nan", "inf", "-inf")."""
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else _fmt(v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


@contextlib.contextmanager
def _open_out(args):
    if args.out:
        with open(args.out, "w") as f:
            yield f
    else:
        yield sys.stdout  # never closed


def _emit_csv(stream, command: str, config: dict, columns: list, rows,
              result: dict | None = None) -> None:
    print(f"# jacprop {__version__}", file=stream)
    print(f"# command: {command}", file=stream)
    for label, fields in (("config", config), ("result", result)):
        if fields is not None:
            line = " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())
            print(f"# {label}: {line}", file=stream)
    print(",".join(columns), file=stream)
    for row in rows:
        print(",".join(_fmt(v) for v in row), file=stream)


def _emit_json(stream, command: str, config: dict, payload: dict) -> None:
    doc = {"jacprop": __version__, "command": command, "config": _json_safe(config)}
    doc.update(_json_safe(payload))
    json.dump(doc, stream, indent=2)
    stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_theory_trace(args) -> int:
    act = parse_activation(args.act)
    mode = parse_mode(args.mode)
    hp = Hyper(args.sw, args.sb)
    tr = trace(act, mode, hp, args.depth, args.k0, l0=args.l0)
    config = dict(act=args.act, mode=args.mode, sw=args.sw, sb=args.sb,
                  depth=args.depth, k0=args.k0, l0=args.l0)
    rows = [
        (l, tr.K[l], tr.chi_j[l], tr.chi_delta[l], tr.J[l], tr.theta[l])
        for l in range(1, args.depth + 1)
    ]
    with _open_out(args) as out:
        _emit_csv(out, "theory-trace", config,
                  ["l", "K", "chi_j", "chi_delta", "J", "Theta"], rows,
                  result=dict(diverged=tr.diverged, truncated_at=tr.truncated_at))
    return 0


def _cmd_critical(args) -> int:
    act = parse_activation(args.act)
    mode = parse_mode(args.mode)
    config = dict(act=args.act, mode=args.mode)
    if args.point:
        points = critical_point(act, mode)
    else:
        _sweep_bounds(args, "sw_min", "sw_max")
        sweep = np.linspace(args.sw_min, args.sw_max, args.sw_steps)
        config.update(sw_min=args.sw_min, sw_max=args.sw_max, sw_steps=args.sw_steps)
        points = critical_line(act, mode, sweep)
    rows = [(p.sigma_w, p.sigma_b, p.residual, p.k_star) for p in points]
    with _open_out(args) as out:
        _emit_csv(out, "critical", config,
                  ["sigma_w", "sigma_b", "residual", "K_star"], rows)
    return 0


def _cmd_phase_diagram(args) -> int:
    act = parse_activation(args.act)
    mode = parse_mode(args.mode)
    _sweep_bounds(args, "sw2_min", "sw2_max", "sb2_min", "sb2_max")
    sw = np.sqrt(np.linspace(args.sw2_min, args.sw2_max, args.resolution))
    sb = np.sqrt(np.linspace(args.sb2_min, args.sb2_max, args.resolution))
    grid = phase_grid(act, mode, sw, sb)
    config = dict(act=args.act, mode=args.mode, sw2_min=args.sw2_min,
                  sw2_max=args.sw2_max, sb2_min=args.sb2_min,
                  sb2_max=args.sb2_max, resolution=args.resolution)
    # a diverged cell carries the saturated large-kernel chi; 1 flags it
    rows = [
        (grid.sigma_w[i] ** 2, grid.sigma_b[j] ** 2, grid.chi[i, j], int(grid.diverged[i, j]),
         int(grid.iterations[i, j]))
        for i in range(grid.sigma_w.size)
        for j in range(grid.sigma_b.size)
    ]
    with _open_out(args) as out:
        _emit_csv(out, "phase-diagram", config,
                  ["sigma_w_sq", "sigma_b_sq", "chi", "diverged", "iterations"], rows)
    return 0


def _mc_config(args) -> EnsembleConfig:
    if args.input_file:
        source = ("file", args.input_file)
    else:
        source = ("gaussian", args.input_mean, args.input_std)
    return EnsembleConfig(
        width=args.width,
        input_dim=args.input_dim,
        depth=args.depth,
        n_init=args.n_init,
        seed=args.seed,
        hyper=Hyper(args.sw, args.sb),
        norm=parse_mode(args.mode),
        act=parse_activation(args.act),
        groups=args.groups,
        input_source=source,
        resample_inputs=args.resample_inputs,
    )


def _cmd_mc(args) -> int:
    if args.input_file and args.resample_inputs:
        raise argparse.ArgumentTypeError(
            "--resample-inputs draws a fresh gaussian input per member and "
            "cannot resample the one vector of --input-file")
    if args.task != "profile":
        for flag, value in (("--l0", args.l0), ("--series-out", args.series_out)):
            if value is not None:
                raise argparse.ArgumentTypeError(
                    f"{flag} applies only to mc profile, not to mc {args.task}")
    try:
        _workers()
    except ValueError as exc:  # a malformed environment is a usage error
        raise argparse.ArgumentTypeError(str(exc)) from None
    cfg = _mc_config(args)
    config = dict(
        task=args.task, act=args.act, mode=args.mode, sw=args.sw, sb=args.sb,
        width=args.width, input_dim=args.input_dim, depth=args.depth,
        n_init=args.n_init, seed=args.seed, groups=args.groups,
        input_mean=args.input_mean, input_std=args.input_std,
        input_file=args.input_file or "", resample_inputs=args.resample_inputs,
    )
    if args.task in ("chi", "ntk"):
        est = (empirical_chi if args.task == "chi" else ensemble_ntk)(cfg)
        payload = {"mean": est.mean, "stderr": est.stderr, "n": est.n}
    elif args.task == "profile":
        l0 = config["l0"] = args.l0 or 0
        est = jacobian_profile(cfg, l0=l0)
        series = args.series_out or (args.out or "profile") + ".series.csv"
        rows = [
            (l, est.per_layer[l], est.per_layer_stderr[l])
            for l in range(l0 + 1, cfg.depth + 1)
        ]
        with open(series, "w") as out:
            _emit_csv(out, "mc profile", config, ["l", "J_mean", "J_stderr"], rows)
        payload = {"mean": est.mean, "stderr": est.stderr, "n": est.n,
                   "series": series}
    else:  # n0check
        rep = n0_correction_check(cfg)
        payload = {
            "measured": rep.measured,
            "measured_stderr": rep.measured_stderr,
            "corrected_pred": rep.corrected_pred,
            "uncorrected_pred": rep.uncorrected_pred,
            "err_corrected": rep.err_corrected,
            "err_uncorrected": rep.err_uncorrected,
        }
    if args.task != "n0check":
        payload.update(workers=est.workers, members_in_processes=est.workers > 1)
    with _open_out(args) as out:
        _emit_json(out, f"mc {args.task}", config, payload)
    return 0


def _read_series(path: str, l_col: str, j_col: str) -> dict:
    """Layer -> J from the CSV at ``path``; a malformed row raises, naming
    the file, its line and the cell."""
    series, seen = {}, {}
    with open(path) as f:
        header = None
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                for col in (l_col, j_col):
                    if col not in header:
                        raise ValueError(f"column {col!r} not found in {path}, "
                                         f"whose header is {line!r}")
                continue
            where = f"{path}, line {number}"
            if len(cells) != len(header):
                what = (f"no {header[len(cells)]} cell" if len(cells) < len(header)
                        else f"{len(cells)} cells where the header has {len(header)}")
                raise ValueError(f"{where}: {what}: {line!r}")
            row = dict(zip(header, cells))
            values = []
            for col in (l_col, j_col):
                try:
                    values.append(float(row[col]))
                except ValueError:
                    raise ValueError(f"{where}: {col} cell {row[col]!r} is not a number") from None
            l, j = values
            if not l.is_integer():
                raise ValueError(f"{where}: {l_col} cell {row[l_col]!r} is not a whole layer")
            l = int(l)
            if l in seen:
                raise ValueError(f"{where}: layer {l} repeats line {seen[l]}")
            series[l], seen[l] = j, number
    if not series:
        raise ValueError(f"no data rows found in {path}")
    return series


def _cmd_fit(args) -> int:
    series = _read_series(args.series, args.l_col, args.j_col)
    fit = (fit_power_law if args.kind == "power" else fit_exponential)(
        series, args.l_min
    )
    config = dict(series=args.series, kind=args.kind, l_min=args.l_min)
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr_slope": fit.stderr_slope,
        "window": list(fit.window),
        "r_squared": fit.r_squared,
    }
    if args.kind == "power":
        payload["zeta"] = -fit.slope
    else:
        payload["xi"] = fit.xi
        payload["phase"] = fit.phase
    with _open_out(args) as out:
        _emit_json(out, "fit", config, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jacprop",
        description="Partial-Jacobian criticality: infinite-width theory and "
                    "finite-width Monte-Carlo checks.",
    )
    p.add_argument("--config", help="JSON file whose entries override flags")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, mc=False):
        sp.add_argument("--act", required=True, type=_checked(parse_activation),
                        help="relu | erf | gelu | scale-invariant:a+:a-")
        sp.add_argument("--mode", default="vanilla", type=_checked(parse_mode),
                        help="vanilla | pre-ln | post-ln")
        sp.add_argument("--out", "-o", help="output path (default stdout)")
        if mc:
            sp.add_argument("--sw", type=float, required=True)
            sp.add_argument("--sb", type=float, required=True)

    t = sub.add_parser("theory-trace", help="layer-by-layer recursion table")
    add_common(t, mc=True)
    t.add_argument("--depth", type=int, required=True)
    t.add_argument("--k0", type=float, default=1.0, help="first-layer kernel")
    t.add_argument("--l0", type=int, default=0)
    t.set_defaults(fn=_cmd_theory_trace)

    c = sub.add_parser("critical", help="critical lines and points")
    add_common(c)
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--line", action="store_true")
    g.add_argument("--point", action="store_true")
    c.add_argument("--sw-min", type=float, default=0.5)
    c.add_argument("--sw-max", type=float, default=3.0)
    c.add_argument("--sw-steps", type=_positive_int, default=26)
    c.set_defaults(fn=_cmd_critical)

    d = sub.add_parser("phase-diagram", help="chi* on a sigma^2 grid")
    add_common(d)
    d.add_argument("--sw2-min", type=float, default=0.1)
    d.add_argument("--sw2-max", type=float, default=9.0)
    d.add_argument("--sb2-min", type=float, default=0.0)
    d.add_argument("--sb2-max", type=float, default=4.0)
    d.add_argument("--resolution", type=_positive_int, default=20)
    d.set_defaults(fn=_cmd_phase_diagram)

    m = sub.add_parser("mc", help="finite-width Monte-Carlo measurements")
    m.add_argument("task", choices=["chi", "profile", "ntk", "n0check"],
                   help="chi: the multiplier J^{L-2,L-1}, each member's value its "
                        "conditional expectation over W^{L-1} (layers L-1 and L are "
                        "never drawn); profile: J^{l0,l} for every l > l0, each "
                        "member's tangent carrying min(8, N_l0) sketched input "
                        "directions through span draws of layers l0+1..L-1 and its "
                        "value at l its conditional expectation over W^l, as chi's "
                        "is (layer L is never drawn; l0+1 is exact); ntk: the "
                        "NTK diagonal at any size, each member's value averaged over "
                        "min(8, width) output units (the mean of all of them, with a "
                        "wider spread), no weight matrix drawn; n0check: J^{0,2}, "
                        "sketched and drawn as a profile is, each member's value its "
                        "conditional expectation over W^2 (layer 2 is never drawn), "
                        "against the finite-N0 prediction, "
                        "averaged over the members' inputs with --resample-inputs")
    add_common(m, mc=True)
    m.add_argument("--width", type=int, required=True)
    m.add_argument("--input-dim", type=int, required=True)
    m.add_argument("--depth", type=int, required=True)
    m.add_argument("--n-init", type=int, default=25)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--groups", type=int, default=1)
    m.add_argument("--input-mean", type=float, default=0.0)
    m.add_argument("--input-std", type=float, default=1.0)
    m.add_argument("--input-file",
                   help="raw little-endian float32 vector of length input-dim")
    m.add_argument("--resample-inputs", action="store_true",
                   help="draw a fresh input per ensemble member")
    m.add_argument("--l0", type=int, help="profile only: first layer (default 0)")
    m.add_argument("--series-out", help="profile only: CSV path for the series")
    m.set_defaults(fn=_cmd_mc)

    f = sub.add_parser("fit", help="power-law / exponential fit of a series")
    f.add_argument("--series", required=True, help="CSV with layer and J columns")
    f.add_argument("--kind", choices=["power", "exp"], default="power")
    f.add_argument("--l-min", type=int, default=100)
    f.add_argument("--l-col", default="l")
    f.add_argument("--j-col", default="J_mean")
    f.add_argument("--out", "-o")
    f.set_defaults(fn=_cmd_fit)
    return p


def _config_value(key: str, action: argparse.Action, value):
    """``value`` checked and converted as the flag's own parser would."""
    bad = argparse.ArgumentTypeError(f"bad --config value {json.dumps(value)} for key {key!r}")
    if action.nargs == 0:  # a switch takes JSON true or false only
        if not isinstance(value, bool):
            raise bad
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise bad
    try:
        value = (action.type or str)(str(value))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise bad from None
    if action.choices is not None and value not in action.choices:
        raise bad
    return value


def _apply_config_file(parser, args) -> None:
    if not args.config:
        return
    with open(args.config) as f:
        overrides = json.load(f)
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    actions = {a.dest: a for a in sub.choices[args.command]._actions if a.dest != "help"}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise argparse.ArgumentTypeError(
                f"unknown --config key {key!r} for {args.command}")
        setattr(args, action.dest, _config_value(key, action, value))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args)
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:  # bad flag vocabulary
        print(f"jacprop: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failure -> exit 1
        print(f"jacprop: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
