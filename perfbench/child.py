"""One command call of one workload, in a fresh process.

``run.py`` starts this script with the BLAS thread variables already in its
environment, so they take effect before numpy is imported, and with the
monotonic time at which it spawned the process.  The script imports
chromafl from the checkout's ``src``, builds the workload's config through
the public config parser, and either stops there (``--setup-only``) or calls
the harness command once, optionally traced, then checks the reports.  Its
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REPORTS = {"baseline": ("samples.csv", "summary.csv"),
           "fl": ("rounds.csv", "drift.csv", "summary.csv")}


def _digest(path: str) -> str:
    """SHA-256 of a report CSV without its ``# timestamp:`` line."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"# timestamp:"):
                h.update(line)
    return h.hexdigest()


def _finite_row(row) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in row)
    except ValueError:  # a non-numeric column (e.g. the aggregator name)
        return False


def check_baseline(H, report) -> tuple[int, list[str]]:
    """Failed attacked images: a changed prediction or a non-finite CSV row."""
    problems = []
    _, rows = H.read_csv(report["samples_csv"])
    bad_rows = sum(not _finite_row(r) for r in rows)
    if bad_rows:
        problems.append(f"{bad_rows} samples.csv rows hold non-finite values")
    n = int(report["summary"]["n"])
    if len(rows) != n:
        problems.append(f"samples.csv has {len(rows)} rows for {n} attacked images")
    acc = float(report["summary"]["attack_acc_pct"])
    flipped = n - round(acc * n / 100.0)
    if flipped:
        problems.append(f"attack_acc_pct is {acc}, not 100: {flipped} predictions changed")
    return min(n, bad_rows + flipped + abs(len(rows) - n)), problems


def check_fl(H, report, benign: bool, rounds: int) -> tuple[int, list[str]]:
    """Failed rounds: a non-finite value in rounds.csv, drift.csv or the final
    weights, or (with no adversary) a round whose streams differ."""
    import numpy as np

    problems = []
    failed = set()
    for name in ("rounds_csv", "drift_csv"):
        _, rows = H.read_csv(report[name])
        if len(rows) != rounds:
            problems.append(f"{name} has {len(rows)} rows for {rounds} rounds")
            failed.update(range(len(rows), rounds))
        for t, row in enumerate(rows):
            if not _finite_row(row):
                problems.append(f"{name} round {t + 1} holds a non-finite value")
                failed.add(t)
    if not all(np.isfinite(w).all() for w in report["weights"]):
        problems.append("final weights hold a non-finite value")
        failed.update(range(rounds))
    if benign:
        # adv_ratio 0: the twin and attacked streams are the same computation
        for t, m in enumerate(report["rounds"]):
            if (m.ssim_gc_mean, m.peak_pct_mean, m.l1_mean) != (1.0, 100.0, 0.0):
                problems.append(f"round {t + 1}: ssim_gc_mean={m.ssim_gc_mean!r} "
                                f"peak_pct_mean={m.peak_pct_mean!r} "
                                f"l1_mean={m.l1_mean!r}, expected 1.0/100/0")
                failed.add(t)
    return len(failed), problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started this process")
    p.add_argument("--workload", required=True)
    p.add_argument("--config-seed", type=int, required=True)
    p.add_argument("--out", required=True, help="report directory for this call")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="SPANS_TSV",
                   help="trace the call and write its spans to this file")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import chromafl
    from chromafl import config as K
    from chromafl import harness as H
    import spec

    wl = spec.WORKLOADS[args.workload]
    cfg = K.parse_config({**wl.overrides, "seed": args.config_seed, "out": args.out})
    command = H.cmd_baseline if wl.command == "baseline" else H.cmd_fl
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing as TR
        tracer = TR.Tracer(f"{args.workload}-cs{args.config_seed}-{os.getpid()}")
        tracer.install(chromafl)

    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            report = (tracer.call(TR.ROOT, command, (cfg,), {}) if tracer
                      else command(cfg))
        except Exception:  # any exception fails every operation of the run
            error = traceback.format_exc()
        run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}",
              "problems": [], "failed": None, "digests": {}}
    if error is not None:
        sys.stderr.write(error)
        result["problems"].append("command raised: " + error.strip().splitlines()[-1])
    elif wl.command == "baseline":
        result["failed"], result["problems"] = check_baseline(H, report)
    else:
        result["failed"], result["problems"] = check_fl(
            H, report, benign=cfg.fl.adv_ratio == 0.0, rounds=cfg.fl.rounds)
    if error is None:
        result["digests"] = {name: _digest(os.path.join(report["out_dir"], name))
                             for name in REPORTS[wl.command]}

    if tracer is not None and error is None:
        summary = tracer.summary()
        summary["counts"]["federated.fltrust.skipped_rounds"] = sum(
            "round skipped" in str(w.message) for w in caught)
        tracer.write(args.trace)
        result["trace"] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
