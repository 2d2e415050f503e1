"""chromafl benchmark: one workload run, or the whole suite.

One run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload baseline --seed 3 --seconds 30 --trace 0

measures the workload's harness command in fresh processes with BLAS threads
pinned, checks the reports, prints every metric with its unit and sample
count, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each untraced call is followed by a traced call on the same
config seed and the metrics are the per-layer ones.  The line before it,
``record: {...}``, holds the environment, the report digests and the
derived throughputs.

The suite runs every workload on seeds 0-9, then one traced run
per workload, and prints each metric's median, quartiles and spread::

    python3 perfbench/run.py --suite [--save perfbench/BENCH_seed.json]

Run from anywhere: paths are resolved from this file, and every file the
benchmark writes goes under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SUITE_RUNS = 10  # untraced runs per workload in the suite, on seeds 0, 1, ...
# the exported self times of a traced call must add up to the wall time the
# child measured around it, to within this (the tracer's own bookkeeping)
ACCOUNTING_TOLERANCE_S = 1e-3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CHROMAFL_THREADS")

sys.path.insert(0, HERE)
import spec  # noqa: E402
import tracing  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(spec.BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh process and return its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *args]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child timed out after {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- inputs


def _attacked_config_seed(first: int) -> int:
    """First config seed from ``first`` on whose every round selects exactly
    ``ATTACKED_SHARDS_PER_ROUND`` adversarial clients."""
    sys.path.insert(0, SRC)
    from chromafl import config as K
    from chromafl import federated as F

    fl = K.parse_config(spec.WORKLOADS["fl_attacked"].overrides).fl
    for cs in range(first, first + 256):
        roles = F.assign_roles(fl.n_clients, fl.adv_ratio, cs)
        if all(sum(roles[c] == F.ADVERSARIAL
                   for c in F.select_clients(fl.n_clients, fl.select_k, cs, t))
               == spec.ATTACKED_SHARDS_PER_ROUND for t in range(1, fl.rounds + 1)):
            return cs
    raise BenchError(f"no config seed in {first}..{first + 255} poisons "
                     f"{spec.ATTACKED_SHARDS_PER_ROUND} shard(s) per round")


def workload_inputs(name: str, seed: int, seconds: float) -> dict:
    """Config seeds of the run's calls, and operations, grid-search images
    and rounds per call."""
    sys.path.insert(0, SRC)
    from chromafl import config as K

    wl = spec.WORKLOADS[name]
    cfg = K.parse_config(wl.overrides)
    calls = max(1, round(seconds / wl.call_s))
    seeds = [seed * calls + k for k in range(calls)]
    if wl.command == "baseline":
        return {"config_seeds": seeds, "ops": cfg.attack.n_samples,
                "images": cfg.attack.n_samples, "rounds": 0}
    images = 0
    if name == "fl_attacked":
        seeds = [_attacked_config_seed(256 * s) for s in seeds]
        images = (cfg.fl.rounds * spec.ATTACKED_SHARDS_PER_ROUND
                  * (cfg.dataset.n_train // cfg.fl.n_clients))
    return {"config_seeds": seeds, "ops": cfg.fl.rounds, "images": images,
            "rounds": cfg.fl.rounds}


def environment(seed: int, config_seeds: list[int], child: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": child.get("numpy"), "blas": child.get("blas"),
            "thread_env": {v: _child_env()[v] for v in THREAD_VARS},
            "seed": seed, "config_seeds": config_seeds, **_code_version()}


def _code_version() -> dict:
    """``git_commit`` of the checkout, or ``source_sha256`` over the package
    sources when the checkout is not a git repository."""
    # the ceiling keeps git from taking a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return {"git_commit": proc.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "chromafl", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {"source_sha256": h.hexdigest()}


# ---------------------------------------------------------------- one run


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record).

    Without tracing: set-up-only process starts, then one command call per
    config seed.  With tracing: per config seed, an untraced call and then a
    traced one, so the traced calls do the same work as an untraced run and
    ``trace.overhead_pct`` compares the two medians.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = workload_inputs(name, seed, seconds)
    config_seeds = inputs["config_seeds"]
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(name, {})
    work = os.path.join(WORK, f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    attempted = failed = 0
    problems: list[str] = []

    def call(cs: int, tag: str, *extra: str) -> dict:
        nonlocal attempted, failed
        out = os.path.join(work, tag)
        try:
            res = _spawn(["--workload", name, "--config-seed", str(cs), "--out", out,
                          *extra], deadline)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        attempted += inputs["ops"]
        bad = res["failed"] if res["failed"] is not None else inputs["ops"]
        problems.extend(f"{tag}: {p}" for p in res["problems"])
        expected = recorded.get(str(cs))
        if expected is not None and res["digests"] and res["digests"] != expected:
            problems.append(f"{tag}: report digests differ from the ones recorded "
                            f"for config seed {cs}")
            bad = inputs["ops"]
        failed += bad
        return res

    calls, traced = [], []
    try:
        setup = []
        if not trace:
            setup = [_spawn(["--workload", name, "--config-seed", str(config_seeds[0]),
                             "--out", work, "--setup-only"], deadline)["setup_s"]
                     for _ in range(spec.SETUP_SAMPLES)]
        for cs in config_seeds:
            calls.append(call(cs, f"cs{cs}"))
            if trace:
                spans = os.path.join(WORK, f"spans-{name}-s{seed}-cs{cs}.tsv")
                traced.append(call(cs, f"cs{cs}-traced", "--trace", spans))
                if traced[-1]["digests"] != calls[-1]["digests"]:
                    problems.append(f"cs{cs}: traced call wrote different reports "
                                    f"than the untraced one")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup += [c["setup_s"] for c in calls]
    run_s = [c["run_s"] for c in calls]
    e2e = {"run_s": statistics.median(run_s), "setup_s": statistics.median(setup),
           "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls)}
    derived = {"images_per_s": len(calls) * inputs["images"] / sum(run_s),
               "rounds_per_min": 60.0 * len(calls) * inputs["rounds"] / sum(run_s),
               "error_rate": failed / attempted}
    record = {"workload": name, "seed": seed, "config_seeds": config_seeds,
              "run_s_calls": run_s, "setup_s_samples": setup,
              "end_to_end": e2e, "derived": derived, "images": inputs["images"],
              "rounds": inputs["rounds"],
              "digests": {str(cs): c["digests"] for cs, c in zip(config_seeds, calls)},
              "problems": problems, "env": environment(seed, config_seeds, calls[0])}
    if trace:
        if any("trace" not in t for t in traced):
            raise BenchError("a traced call produced no trace: " + "; ".join(problems))
        traced_run_s = [t["run_s"] for t in traced]
        summary = tracing.merge([t["trace"] for t in traced])
        layers = tracing.layer_metrics(
            summary, 100.0 * (statistics.median(traced_run_s) / e2e["run_s"] - 1.0))
        missing = [m.name for m in spec.PER_LAYER if m.name not in layers]
        if missing:
            raise BenchError(f"traced calls lack per-layer metrics {missing}")
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in spec.PER_LAYER}
        problems.extend(_trace_problems(metrics, summary, traced_run_s, inputs))
        record.update(traced_run_s_calls=traced_run_s, spans=summary["spans"],
                      shares={k: v for k, v in tracing.shares(summary).items()
                              if v >= 0.001})
    else:
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in spec.END_TO_END}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def _trace_problems(metrics: dict, summary: dict, traced_run_s: list[float],
                    inputs: dict) -> list[str]:
    """What is wrong with the traced calls' accounting."""
    problems = []
    exported = sum(v["value"] for k, v in metrics.items() if k.endswith("self_s"))
    wall = sum(traced_run_s)
    if abs(exported - wall) > ACCOUNTING_TOLERANCE_S * len(traced_run_s):
        problems.append(f"exported self times sum to {exported:.6f} s but the traced "
                        f"calls took {wall:.6f} s")
    if summary["negative_self"]:
        problems.append(f"{summary['negative_self']} spans have negative self time")
    images = metrics["attack.poison_dataset.images" if inputs["rounds"]
                     else "attack.cpm_perturb.calls"]["value"]
    expected = inputs["images"] * len(traced_run_s)
    if images != expected:
        problems.append(f"traced calls put {images:g} images through the grid search, "
                        f"expected {expected}")
    return problems


UNITS = {**{m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER},
         "images_per_s": "1/s", "rounds_per_min": "1/min", "error_rate": "ratio"}


def _print_run(result: dict, record: dict) -> None:
    n = len(record["run_s_calls"])
    print(f"workload {record['workload']}  seed {record['seed']}  config seeds "
          f"{record['config_seeds']}  BLAS threads {spec.BLAS_THREADS}")
    e2e, d = record["end_to_end"], record["derived"]
    print(f"  run_s          {e2e['run_s']:.4f} s     (median of {n} calls)")
    print(f"  setup_s        {e2e['setup_s']:.4f} s     "
          f"(median of {len(record['setup_s_samples'])} process starts)")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB   (median of {n} calls)")
    if record["images"]:
        print(f"  images_per_s   {d['images_per_s']:.4f} 1/s   "
              f"({record['images']} images per call, over {n} calls)")
    if record["rounds"]:
        print(f"  rounds_per_min {d['rounds_per_min']:.4f} 1/min "
              f"({record['rounds']} rounds per call, over {n} calls)")
    print(f"  error_rate     {d['error_rate']:.4f}        "
          f"({result['failed']} of {result['attempted']} operations failed)")
    if "traced_run_s_calls" in record:
        t = record["traced_run_s_calls"]
        print(f"  traced run_s   {statistics.median(t):.4f} s     (median of {len(t)} "
              f"traced calls, {record['spans']} spans; overhead "
              f"{result['metrics']['trace.overhead_pct']['value']:.2f}%)")
        for name, share in list(record["shares"].items())[:8]:
            print(f"    {100 * share:5.1f}%  {name} (self)")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")


# ---------------------------------------------------------------- suite


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def _run_command(name: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """One run through the command line, exactly as BENCHMARK.json names it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record: "):
        raise BenchError(f"{name} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record: "):])


def suite(save: str | None, record_digests: bool) -> int:
    seeds = list(range(SUITE_RUNS))
    report = {"workloads": {}, "env": None}
    all_correct = True
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    for name in spec.WORKLOADS:
        runs = []
        for seed in seeds:
            result, record = _run_command(name, seed, trace=False)
            all_correct &= result["correct"]
            runs.append((result, record))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in record["end_to_end"].items()),
                  flush=True)
            for p in record["problems"]:
                print(f"  PROBLEM: {p}", flush=True)
            if record_digests:
                for cs, d in record["digests"].items():
                    if d:
                        digests.setdefault(name, {}).setdefault(cs, d)
        tresult, trecord = _run_command(name, seeds[0], trace=True)
        all_correct &= tresult["correct"]
        report["env"] = trecord["env"]
        keys = [m.name for m in spec.END_TO_END] + [
            k for k in ("images_per_s", "rounds_per_min", "error_rate")
            if any(r["derived"][k] for _, r in runs) or k == "error_rate"]
        table = {}
        print(f"\n{name}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<15}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  n  unit")
        for k in keys:
            vals = [r["end_to_end"][k] if k in r["end_to_end"] else r["derived"][k]
                    for _, r in runs]
            s = _summary(vals)
            table[k] = {**s, "unit": UNITS[k]}
            print(f"  {k:<15}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
                  f"{s['spread']:>9.4f}  {s['n']}  {UNITS[k]}")
        traced_run_s = statistics.median(trecord["traced_run_s_calls"])
        print(f"  traced seed {seeds[0]}: run_s {traced_run_s:.3f} s, "
              f"overhead {tresult['metrics']['trace.overhead_pct']['value']:.2f}%")
        for span, share in list(trecord["shares"].items())[:10]:
            print(f"    {100 * share:5.1f}%  {span} (self)")
        report["workloads"][name] = {
            "why": spec.WORKLOADS[name].why, "seeds": seeds, "end_to_end": table,
            "runs": [{"seed": r["seed"], "correct": res["correct"], **r["end_to_end"],
                      **r["derived"]} for res, r in runs],
            # per_layer sums over the traced calls; its *self_s metrics add up
            # to their wall time
            "traced": {"seed": seeds[0], "config_seeds": trecord["config_seeds"],
                       "layer_shares": trecord["shares"],
                       "per_layer": {k: v["value"] for k, v in tresult["metrics"].items()}}}
    if record_digests:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if save:
        with open(save, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {save}")
    print("all runs correct" if all_correct else "SOME RUNS FAILED THEIR CHECKS")
    return 0 if all_correct else 1


# ---------------------------------------------------------------- main


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="measure for about this long (at least one command call)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite", action="store_true",
                   help=f"run every workload on seeds 0..{SUITE_RUNS - 1}, then one "
                        f"traced run each")
    p.add_argument("--save", metavar="JSON", help="suite: write the summary here")
    p.add_argument("--record-digests", action="store_true",
                   help="suite: add the report digests of config seeds not yet recorded")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "chromafl", "__init__.py")):
        print(f"error: chromafl sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: str(spec.BLAS_THREADS) for v in THREAD_VARS})
    try:
        if args.suite:
            return suite(args.save, args.record_digests)
        if args.workload is None:
            p.error("--workload is required without --suite")
        if args.seed < 0:
            p.error("--seed must be >= 0")
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_run(result, record)
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
