"""Command-line entry point.

Each subcommand in ``COMMANDS`` runs one harness command: ``x-y`` runs
``harness.cmd_x_y``, which writes ``<out>/x_y/``.  Global flags select the
config file, seed, output directory, and sample limit; ``inspect`` adds
``--sample``.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .parallel import apply_thread_env, worker_count


# every subcommand with its help text, in the order ``--help`` lists them
COMMANDS = {
    "baseline": "attack a single trained model and report SSIM stats",
    "fl": "federated attack run with a benign twin for reference",
    "ablation": "single-operator grids vs the combined grid",
    "compare": "grid attack vs random color skew at matched delta-E",
    "transfer": "replay attacks crafted on one architecture on another",
    "robust": "rerun the federated attack under every aggregator",
    "gen-data": "dump the synthetic shapes dataset as PPM files",
    "inspect": "dump image/heatmap pairs for one sample",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (defaults apply when omitted)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override the config seed")
    common.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    common.add_argument("--limit", type=int, metavar="N",
                        help="cap dataset and attack sample counts")

    parser = argparse.ArgumentParser(
        prog="chromafl",
        description="Color-space saliency attacks on federated image models")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, parents=[common], help=text)
            for name, text in COMMANDS.items()}
    subs["inspect"].add_argument("--sample", type=int, default=0, metavar="ID",
                                 help="test-set sample index (default 0)")
    return parser


def _print_report(report: dict) -> None:
    if "line" in report:
        print(report["line"])
    elif "summary" in report:
        for key, value in report["summary"].items():
            print(f"{key}: {value}")
    else:
        for row in report["rows"]:
            print(",".join(str(v) for v in row))
    print(f"reports written to {report['out_dir']}")


def main(argv=None) -> int:
    try:
        worker_count()  # checked before any work, as the first map is deep in it
        apply_thread_env()
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)

    import numpy as np

    from . import data as D
    from . import harness as H
    from .config import ConfigError, load_config, override

    try:
        cfg = load_config(args.config)
        out_env = os.environ.get("CHROMAFL_OUT")
        out = args.out if args.out is not None else out_env
        cfg = override(cfg, seed=args.seed, out=out, limit=args.limit)
        name = args.command.replace("-", "_")
        # checked before any work, as the reports are written after all of it
        existing = H.nearest_existing(os.path.join(cfg.out, name))[0]
        if not os.path.isdir(existing):
            raise ConfigError(f"out: {existing} is not a directory")
        extra = (args.sample,) if "sample" in args else ()
        report = getattr(H, f"cmd_{name}")(cfg, *extra)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except D.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (FloatingPointError, ZeroDivisionError, OverflowError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    _print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
