"""Command-line entry point.

Subcommands map one-to-one onto the harness commands; global flags select
the config file, seed, output directory, and sample limit.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from .parallel import worker_count


def _apply_thread_env() -> None:
    """Copy ``CHROMAFL_THREADS`` into each BLAS thread variable not already
    set; a value that is not a positive integer raises ``ValueError`` before
    any variable is set."""
    threads = os.environ.get("CHROMAFL_THREADS")
    if threads is None:
        return
    if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
        raise ValueError(f"CHROMAFL_THREADS must be a positive integer, got {threads!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)


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
    sub.add_parser("baseline", parents=[common],
                   help="attack a single trained model and report SSIM stats")
    sub.add_parser("fl", parents=[common],
                   help="federated attack run with a benign twin for reference")
    sub.add_parser("ablation", parents=[common],
                   help="single-operator grids vs the combined grid")
    sub.add_parser("compare", parents=[common],
                   help="grid attack vs random color skew at matched delta-E")
    sub.add_parser("transfer", parents=[common],
                   help="replay attacks crafted on one architecture on another")
    sub.add_parser("robust", parents=[common],
                   help="rerun the federated attack under every aggregator")
    sub.add_parser("gen-data", parents=[common],
                   help="dump the synthetic shapes dataset as PPM files")
    inspect = sub.add_parser("inspect", parents=[common],
                             help="dump image/heatmap pairs for one sample")
    inspect.add_argument("--sample", type=int, default=0, metavar="ID",
                         help="test-set sample index (default 0)")
    return parser


def _nearest_existing(path: str) -> tuple[str, str | None]:
    """The nearest existing ancestor of ``path`` (or ``path`` itself), and
    the outermost directory ``os.makedirs(path)`` would create (None when
    ``path`` exists)."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.lexists(path):
        path, missing = os.path.dirname(path), path
    return path, missing


def _print_report(command: str, report: dict) -> None:
    if command == "inspect":
        print(report["line"])
    elif "summary" in report:
        for key, value in report["summary"].items():
            print(f"{key}: {value}")
    elif "rows" in report:
        for row in report["rows"]:
            print(",".join(str(v) for v in row))
    else:
        for key, value in sorted(report.items()):
            if isinstance(value, (str, int, float)):
                print(f"{key}: {value}")
    if "out_dir" in report:
        print(f"reports written to {report['out_dir']}")


def main(argv=None) -> int:
    try:
        worker_count()  # checked before any work, as the first map is deep in it
        _apply_thread_env()
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
        # checked before any work, as the reports are written after all of it
        out_dir = os.path.join(cfg.out, args.command.replace("-", "_"))
        existing, created = _nearest_existing(out_dir)
        if not os.path.isdir(existing):
            raise ConfigError(f"out: {existing} is not a directory")
        dispatch = {"baseline": H.cmd_baseline, "fl": H.cmd_fl,
                    "ablation": H.cmd_ablation, "compare": H.cmd_compare,
                    "transfer": H.cmd_transfer, "robust": H.cmd_robust,
                    "gen-data": H.cmd_gen_data,
                    "inspect": lambda c: H.cmd_inspect(c, args.sample)}
        report = dispatch[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except D.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        # dataset reads raise DataError, so this is a report that cannot be
        # written; a failed write() names no file, so name the directory
        path = e.filename if e.filename is not None else out_dir
        print(f"config error: out: cannot write {path}: {e.strerror or e}", file=sys.stderr)
        if created is not None:
            # what this run made holds no finished report set
            shutil.rmtree(created, ignore_errors=True)
        return 2
    except (FloatingPointError, ZeroDivisionError, OverflowError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    _print_report(args.command, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
