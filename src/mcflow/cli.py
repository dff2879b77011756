"""Command-line interface.

Exit codes: 0 ok, 2 monitor violation, 3 numerical failure, 4 config error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import runner
from .config import load_config, parse_scene
from .errors import McflowError, ParseError, ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="Curvature-flow laboratory for closed curves and surfaces "
        "in arbitrary codimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured flow")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--out", required=True, help="output directory")

    p_check = sub.add_parser("check", help="run an identity or inequality suite")
    p_check.add_argument("--suite", required=True, choices=["identities", "inequalities"])
    p_check.add_argument("--scene", help="restrict to one scene (inline JSON or path)")
    p_check.add_argument("--full", action="store_true", help="full-resolution battery")

    p_oracle = sub.add_parser("oracle", help="closed-form state of an analytic scene")
    p_oracle.add_argument("--scene", required=True, help="scene JSON (inline or path)")
    p_oracle.add_argument("--t", type=float, default=0.0)

    p_rescale = sub.add_parser("rescale", help="rescale snapshots of a finished run")
    p_rescale.add_argument("--trace", required=True, help="run directory")
    p_rescale.add_argument("--T-hat", dest="t_hat", type=float, default=None)
    p_rescale.add_argument("--center", default=None, help="comma-separated point")
    p_rescale.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="emit whitespace-separated trace columns")
    p_plot.add_argument("--trace", required=True, help="run directory")
    p_plot.add_argument("--vars", required=True, help="comma-separated quantities")
    p_plot.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            return runner.run(config, args.out)

        if args.command == "check":
            scene = parse_scene(args.scene) if args.scene else None
            reports, code = runner.check_suite(args.suite, scene, fast=not args.full)
            text = runner._json([vars(r) for r in reports])
            for rep in reports:
                print(f"{rep.verdict:>13}  {rep.name}")
            print(text)
            return code

        if args.command == "oracle":
            record = runner.oracle_record(parse_scene(args.scene), args.t)
            print(runner._json(record))
            return runner.EXIT_OK

        if args.command == "rescale":
            center = None
            if args.center:
                try:
                    center = np.array([float(tok) for tok in args.center.split(",")])
                except ValueError:
                    raise ValidationError("--center must be numbers", field="center") from None
            result = runner.rescale_trace(
                args.trace, T_hat=args.t_hat, center=center, out_dir=args.out
            )
            print(runner._json({k: result[k] for k in ("T_hat", "center")}))
            return runner.EXIT_OK

        if args.command == "plot":
            quantities = [q for q in args.vars.split(",") if q]
            path = runner.emit_plotdata(args.trace, quantities, out_dir=args.out)
            print(path)
            return runner.EXIT_OK
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return runner.EXIT_CONFIG
    except McflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return runner.EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
