"""Command line interface.

Subcommands:
  table     print every closed-form value for one shape and probability
  curves    CSV sweeps of the normalized formulas over r or p
  verify    build and decode the constructions across shapes and seeds
  simulate  schedule and spot-decode a sampled window of slots

Antenna counts (verify --shapes, simulate --m/--n) are at most 64 per side,
which keeps a channel draw's memory bounded. verify takes at most 100,000
--seeds and 1,000 --trials and checks a repeated --shapes or --constructions
entry once, which bounds its run time; it writes each shape's records
(text, or --json array items) once that shape is done.

main may be called repeatedly in one process. It builds its argparse parser
on the first call and reuses it, since building it costs several times what
a table call computes.

Exit codes: 0 on success, 1 when a verification or simulation check fails,
2 on usage errors, such as a value above one of those ceilings. When the
reader of stdout goes away early (``burstyx verify | head -2``), the command
stops writing and exits 1 without a traceback, since its output is
incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from .builders import CODES
from .channel import Dimensions, TOPOLOGIES, _check_unit, sample_channels
from .decode import verify_decodability
from .formulas import _baseline, _dof, _lb, _ua, _ub, dof_profile
from .sim import run_simulation

# curves' series, each the unchecked expression of its public function
# (normalized_dof, upper_bound_a, upper_bound_b, lower_bound,
# baseline_normalized): curves checks --fixed and --step once and builds
# only in-range points. dof is None where normalized_dof raises.
_SERIES: Dict[str, Callable[[float, float], Optional[float]]] = {
    "dof": _dof,
    "ub1": _ua,
    "ub2": _ub,
    "lb": _lb,
    "baseline": _baseline,
}

# verify's label of each catalogue code: a topology's one-slot code is
# spelled single:<topology>.
_LABELS: Dict[str, str] = {(f"single:{name}" if name in TOPOLOGIES else name): name for name in CODES}
_CONSTRUCTION_CHOICES = ", ".join(_LABELS) + "; singles means every single:<topology>"
_MAX_ANTENNAS = 64
_MAX_SEEDS = 100_000
_MAX_TRIALS = 1_000

# table --json and each verify --json record: the output of
# json.dumps(obj, indent=2, sort_keys=True), from one encoder per process.
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _add_shape_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", type=int, required=True, help="antennas at each transmitter")
    sub.add_argument("--n", type=int, required=True, help="antennas at each receiver")


def _parse_shapes(text: str) -> List[Dimensions]:
    shapes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            m, n = part.split("x")
            dims = Dimensions(int(m), int(n))
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"bad shape {part!r}: {exc}")
        if max(dims.m, dims.n) > _MAX_ANTENNAS:
            raise argparse.ArgumentTypeError(
                f"bad shape {part!r}: at most {_MAX_ANTENNAS} antennas per side"
            )
        shapes.append(dims)
    if not shapes:
        raise argparse.ArgumentTypeError("no shapes given")
    return list(dict.fromkeys(shapes))  # a repeated shape is checked once


def _cmd_table(args: argparse.Namespace) -> int:
    profile = dof_profile(args.m, args.n, args.p)
    if args.json:
        print(_JSON.encode(profile.to_dict()))
        return 0
    print(f"shape {args.m}x{args.n}  r {_fmt(profile.r)}  p {_fmt(profile.p)}  regime {profile.regime}")
    rows = [
        ("normalized dof", _fmt(profile.dof) if profile.dof is not None else "open (bounds only)"),
        ("upper bound 1", _fmt(profile.ub1)),
        ("upper bound 2", _fmt(profile.ub2)),
        ("lower bound", _fmt(profile.lb)),
        ("single-slot baseline", _fmt(profile.baseline)),
        ("composite achievable", _fmt(profile.composite)),
        ("rate pair bound", _fmt(profile.pair_bound)),
        ("three rate bound", _fmt(profile.triple_bound)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    series = [s.strip() for s in args.series.split(",") if s.strip()]
    for name in series:
        if name not in _SERIES:
            raise SystemExit(f"unknown series {name!r}; choose from {sorted(_SERIES)}")
    step = args.step
    # the sweep is built point by point, so a tiny step would not finish
    if not 1e-4 <= step <= 0.5:
        raise SystemExit("step must lie in [1e-4, 0.5]")
    count = int(round(1.0 / step))
    if args.sweep == "r":
        xs = [round(k * step, 12) for k in range(1, count + 1)]
        fixed_p = args.fixed
        _check_unit(fixed_p, "fixed p")
        points = [(x, x, fixed_p) for x in xs if x <= 1.0]
    else:
        xs = [round(k * step, 12) for k in range(0, count + 1)]
        fixed_r = args.fixed
        if not 0 < fixed_r <= 1:
            raise SystemExit("fixed r must lie in (0, 1]")
        points = [(x, fixed_r, x) for x in xs if x <= 1.0]
    lines = ["x,series,value"]
    for x, r, p in points:
        x_text = f"{x:.12g}"
        for name in series:
            value = _SERIES[name](r, p)
            if value is not None:  # None: series undefined here (open regime)
                lines.append(f"{x_text},{name},{value:.12g}")
    print("\n".join(lines))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.seeds <= _MAX_SEEDS:
        raise SystemExit(f"--seeds must lie in [1, {_MAX_SEEDS}]")
    if not 1 <= args.trials <= _MAX_TRIALS:
        raise SystemExit(f"--trials must lie in [1, {_MAX_TRIALS}]")
    expanded: List[str] = []
    for label in filter(None, (c.strip() for c in args.constructions.split(","))):
        if label == "singles":
            expanded.extend(k for k in _LABELS if k.startswith("single:"))
        elif label in _LABELS:
            expanded.append(label)
        else:
            raise SystemExit(f"unknown construction {label!r}; choose from {_CONSTRUCTION_CHOICES}")
    expanded = list(dict.fromkeys(expanded))  # a repeated label is checked once
    written = skipped = 0
    failed = False
    if args.json:
        sys.stdout.write("[")
    for dims in args.shapes:
        shape = f"{dims.m}x{dims.n}"
        # (label, scheme or None when skipped, its records), in label order:
        # every construction of a seed is checked on one draw and its bases.
        cases = []
        for label in expanded:
            try:
                cases.append((label, CODES[_LABELS[label]].build(dims), []))
            except ValueError as exc:
                skip = {"construction": label, "shape": shape, "status": "skip", "reason": str(exc)}
                cases.append((label, None, [skip]))
        for seed in range(args.seeds):
            channels = sample_channels(dims, seed)
            for label, scheme, label_records in cases:
                if scheme is None:
                    continue
                res = verify_decodability(channels, scheme, trials=args.trials, seed=seed)
                rec = {
                    "construction": label,
                    "shape": shape,
                    "seed": seed,
                    "status": "ok" if res.ok else "fail",
                    "dof": res.achieved_dof,
                    "max_rel_error": res.max_rel_error,
                    "max_null_residual": res.max_null_residual,
                    # null, not inf, when no receiver decodes anything (single:empty)
                    "min_separation": res.min_separation if res.min_separation < float("inf") else None,
                }
                if res.error:
                    rec["error"] = res.error
                label_records.append(rec)
                failed = failed or not res.ok
        # Laid out as one json.dumps(records, indent=2) of every shape would be.
        for _label, _scheme, label_records in cases:
            for rec in label_records:
                if args.json:
                    item = _JSON.encode(rec).replace("\n", "\n  ")
                    sys.stdout.write(("," if written else "") + "\n  " + item)
                elif rec["status"] == "skip":
                    print(f"skip {rec['construction']:16s} {rec['shape']:6s} {rec['reason']}")
                else:
                    line = (
                        f"{rec['status']:4s} {rec['construction']:16s} {rec['shape']:6s} "
                        f"seed={rec['seed']} dof={rec['dof']} err={rec['max_rel_error']:.2e}"
                    )
                    if "error" in rec:
                        line += f"  ({rec['error']})"
                    print(line)
                written += 1
                skipped += rec["status"] == "skip"
        sys.stdout.flush()
    if args.json:
        print("\n]" if written else "]")
    else:
        print(f"{written - skipped} checks, {skipped} skipped, {'FAIL' if failed else 'all ok'}")
    return 1 if failed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.slots <= 0:
        raise SystemExit("--slots must be positive")
    if max(args.m, args.n) > _MAX_ANTENNAS:
        raise SystemExit(f"--m and --n must be at most {_MAX_ANTENNAS}")
    dims = Dimensions(args.m, args.n)
    try:
        result = run_simulation(
            dims,
            args.p,
            args.slots,
            args.seed,
            decode_fraction=args.decode_fraction,
        )
    except RuntimeError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(result.to_json())
        return 0
    ref = result.analytic_reference
    emp = result.empirical_dof_per_slot
    rel = abs(emp - ref) / ref if ref else 0.0
    print(f"shape {args.m}x{args.n}  p {_fmt(args.p)}  slots {args.slots}  seed {args.seed}")
    print(f"  decoded symbols      {result.decoded_symbols}")
    print(f"  empirical dof/slot   {_fmt(emp)}")
    print(f"  analytic reference   {_fmt(ref)}")
    print(f"  relative difference  {_fmt(rel)}")
    print(f"  full decodes run     {result.decodes_run}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by the later ones:
    parsing reads it and its defaults but never changes them."""
    parser = argparse.ArgumentParser(
        prog="burstyx",
        description="Constructions, bounds and simulations for the bursty two-pair MIMO cross channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="closed-form values for one operating point")
    _add_shape_args(t)
    t.add_argument("--p", type=float, required=True, help="link-on probability")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=_cmd_table)

    c = sub.add_parser("curves", help="CSV sweep of the normalized formulas")
    c.add_argument("--sweep", choices=("r", "p"), required=True)
    c.add_argument("--fixed", type=float, required=True, help="the non-swept coordinate")
    c.add_argument("--step", type=float, default=0.01)
    c.add_argument("--series", default="dof,ub1,ub2,lb,baseline")
    c.set_defaults(func=_cmd_curves)

    v = sub.add_parser("verify", help="decode random messages through the constructions")
    v.add_argument(
        "--shapes",
        type=_parse_shapes,
        default=_parse_shapes("4x3,3x4,3x2,2x3,3x3,4x2"),
        help=f"comma-separated MxN list, at most {_MAX_ANTENNAS} antennas per side",
    )
    v.add_argument(
        "--constructions",
        default="z12,z34,zf,ia_block,ia_refined,singles",
        help=f"comma-separated from {_CONSTRUCTION_CHOICES}",
    )
    v.add_argument("--seeds", type=int, default=3, help=f"channel draws per case, at most {_MAX_SEEDS}")
    v.add_argument("--trials", type=int, default=2, help=f"message draws per channel, at most {_MAX_TRIALS}")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("simulate", help="schedule and spot-decode a sampled window")
    _add_shape_args(s)
    s.add_argument("--p", type=float, required=True, help="link-on probability")
    s.add_argument("--slots", type=int, required=True, help="window length")
    s.add_argument("--seed", type=int, required=True, help="base random seed")
    s.add_argument("--decode-fraction", type=float, default=0.01)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so the flush
        # at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
