"""Span tracing of chromafl from outside the package.

``Tracer.install`` replaces the public functions of each package module with
timing wrappers.  The package always calls across modules through module
namespaces (``T.conv2d``, ``C.apply``, ``S.grad_cam``) and within a module
through module globals, so replacing the module attribute catches every
call.  Backward cost per primitive comes from wrapping the callable handed
to ``Tape.record``, tagged with the primitive whose span is open when it is
recorded.

Spans stay in memory (parallel lists) and are written out when the run
ends.  A span's self time is its duration minus its children's durations.
``summary`` aggregates one call's spans by name, ``merge`` adds the
summaries of a run's calls, and ``layer_metrics`` turns the result into the
per-layer metrics.  Every span's self time lands in exactly one
``*self_s`` metric (``self_metric``), so the exported self times add up to
the traced ``run_s``; ``run.py`` checks that against the wall time the
child measured around the call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

BWD = ":bwd"
ROOT = "harness.cmd"

# package modules whose public functions are traced; config and cli do no
# measurable work, and the harness cmd_* functions sit under the root span
TRACED_MODULES = ("tensor", "models", "color", "saliency", "attack", "federated",
                  "data", "harness")
UNTRACED = {"harness": {"cmd_baseline", "cmd_fl", "cmd_ablation", "cmd_compare",
                        "cmd_transfer", "cmd_robust", "cmd_gen_data", "cmd_inspect"}}


def _count(x, single_ndim: int) -> int:
    """Items in an argument that takes one item of ``single_ndim`` dims or a batch."""
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) == single_ndim else int(shape[0])


def _conv_gflop(x, w) -> float:
    b, h, wd, _ = x.shape
    kh, kw, ci, co = w.shape
    return 2.0 * b * h * wd * kh * kw * ci * co / 1e9


def _dense_gflop(x, w) -> float:
    return 2.0 * x.shape[0] * w.shape[0] * w.shape[1] / 1e9


def _count_cpm(a, result):
    outcome = result[1]
    return {"attack.candidates_scored": outcome.n_candidates,
            "attack.candidates_feasible": outcome.n_feasible,
            "attack.fallbacks": int(outcome.fallback)}


# span name -> counter(bound arguments, result) -> {count name: increment};
# work is counted at the call that does it
COUNTERS = {
    "tensor.conv2d": lambda a, r: {"tensor.conv2d.fwd_gflop": _conv_gflop(a["x"], a["w"])},
    "tensor.dense": lambda a, r: {"tensor.dense.fwd_gflop": _dense_gflop(a["x"], a["w"])},
    "models.train": lambda a, r: {
        "models.train.images": len(a["dataset"].images) * a["epochs"]},
    "models.predict_batch": lambda a, r: {"models.predict_batch.images": _count(a["xs"], 3)},
    "saliency.grad_cam": lambda a, r: {"saliency.grad_cam.maps": _count(a["x"], 3)},
    "saliency.grad_cam_pp": lambda a, r: {"saliency.grad_cam_pp.maps": _count(a["x"], 3)},
    "saliency.ssim": lambda a, r: {"saliency.ssim.pairs": _count(a["a"], 2)},
    "attack.cpm_perturb": _count_cpm,
    "attack.poison_dataset": lambda a, r: {
        "attack.poison_dataset.images": len(a["dataset"])},
    "data.generate_shapes": lambda a, r: {"data.generate_shapes.images": a["n"]},
}

# backward flops of a recorded primitive, from its input shapes: the weight
# and input gradients are one GEMM each, the size of the forward GEMM
BWD_GFLOP = {
    "tensor.conv2d": lambda inputs: 2.0 * _conv_gflop(inputs[0], inputs[1]),
    "tensor.dense": lambda inputs: 2.0 * _dense_gflop(inputs[0], inputs[1]),
}


class Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Records spans of one run; ``run_id`` tags every span it writes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts = Counts()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = start
            self.stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in counter(bound.arguments, result).items():
                    self.counts[key] += amount
            return result
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions of every traced module, plus the tape."""
        for mod_name in TRACED_MODULES:
            mod = getattr(package, mod_name)
            skip = UNTRACED.get(mod_name, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._patch(mod, attr, self._wrap(f"{mod_name}.{attr}", obj))

        tape_cls = package.tensor.Tape
        gradients = tape_cls.gradients
        record = tape_cls.record
        tracer = self

        def traced_gradients(tape, output, targets):
            return tracer.call("tensor.tape.gradients", gradients, (tape, output, targets), {})

        def traced_record(tape, out, inputs, backward):
            top = tracer.stack[-1]
            owner = tracer.names[top] if top >= 0 else "tensor.unknown"
            flops = BWD_GFLOP.get(owner)
            gflop = flops(inputs) if flops else 0.0
            name = owner + BWD

            def traced_backward(g):
                tracer.counts[owner + ".bwd_gflop"] += gflop
                return tracer.call(name, backward, (g,), {})
            tracer.counts["tensor.tape.nodes_recorded"] += 1
            return record(tape, out, inputs, traced_backward)

        self._patch(tape_cls, "gradients", traced_gradients)
        self._patch(tape_cls, "record", traced_record)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Duration minus the durations of the direct children.  Spans nest
        on one stack, so a child lies inside its parent and siblings do not
        overlap; a negative self time means that did not hold."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def summary(self) -> dict:
        """The call's trace, aggregated by span name (JSON-serialisable):
        calls, total and self seconds, the durations of the spans whose
        percentiles are reported, the counters, and the root span's length."""
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if len(roots) != 1 or self.names[roots[0]] != ROOT:
            raise ValueError(f"trace has {len(roots)} root spans, expected one {ROOT!r}")
        selfs = self.self_times()
        calls, total, self_s = Counts(), Counts(), Counts()
        durations: dict[str, list[float]] = {name: [] for name in DURATIONS}
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += d
            self_s[name] += selfs[i]
            if name in durations:
                durations[name].append(d)
        return {"root_s": total[ROOT], "spans": len(self.names),
                "negative_self": sum(s < -1e-9 for s in selfs),
                "calls": calls, "total_s": total, "self_s": self_s,
                "durations": durations, "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: run id, index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.run_id}\t{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


# spans whose duration percentiles are reported
DURATIONS = ("attack.cpm_perturb", "federated.run_round")

# primitives whose forward and backward self times are reported apart
PRIMITIVES = ("tensor.conv2d", "tensor.maxpool2", "tensor.relu", "tensor.dense")

# functions whose self time (forward and backward together) has its own metric
NAMED_SELF = {
    "tensor.softmax_cross_entropy", "tensor.sgd_step",
    "color.hue_shift", "color.channel_rescale", "color.contrast_jitter",
    "color.mean_delta_e", "color.write_ppm",
    "saliency.grad_cam", "saliency.grad_cam_pp", "saliency.ssim",
    "saliency.peak_overlap", "saliency.l1_distance", "saliency.save_pgm",
    "attack.cpm_perturb",
    "federated.compute_round_metrics", "federated.fedavg", "federated.fltrust",
    "data.generate_shapes", "data.partition",
    "harness.write_csv", ROOT,
}


def self_metric(span: str) -> str:
    """The one per-layer metric that holds a span's self time; spans without
    a metric of their own go to ``<module>.other.self_s``."""
    base = span.removesuffix(BWD)
    if base in PRIMITIVES:
        return f"{base}.{'bwd' if span.endswith(BWD) else 'fwd'}_self_s"
    if base == "tensor.tape.gradients":
        return "tensor.tape.gradients_self_s"
    if base in NAMED_SELF:
        return f"{base}.self_s"
    return f"{span.split('.', 1)[0]}.other.self_s"


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several calls into one."""
    out = {"root_s": 0.0, "spans": 0, "negative_self": 0, "calls": Counts(),
           "total_s": Counts(), "self_s": Counts(),
           "durations": {name: [] for name in DURATIONS}, "counts": Counts()}
    for s in summaries:
        for key in ("root_s", "spans", "negative_self"):
            out[key] += s[key]
        for key in ("calls", "total_s", "self_s", "counts"):
            for name, v in s[key].items():
                out[key][name] += v
        for name, ds in s["durations"].items():
            out["durations"][name].extend(ds)
    return out


def shares(summary: dict) -> dict:
    """Self time by span name as a share of the traced time, largest first."""
    self_s = summary["self_s"]
    return {name: self_s[name] / summary["root_s"]
            for name in sorted(self_s, key=self_s.get, reverse=True)}


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten values beyond it; the
    median when that statistic does not lie above the median (21 values or
    fewer)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    med = statistics.median(ordered)
    return max(ordered[len(ordered) - 11], med) if len(ordered) > 10 else med


def layer_metrics(summary: dict, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of a (merged) summary."""
    calls, total, c = summary["calls"], summary["total_s"], summary["counts"]
    m: dict[str, float] = Counts()
    # every self-time metric reads 0 where the workload does not reach it
    for span in (*PRIMITIVES, *(p + BWD for p in PRIMITIVES), "tensor.tape.gradients",
                 *NAMED_SELF):
        m[self_metric(span)] = 0.0
    for layer in TRACED_MODULES:
        m[f"{layer}.other.self_s"] = 0.0
    for name, s in summary["self_s"].items():
        m[self_metric(name)] += s

    for prim in PRIMITIVES:
        m[f"{prim}.fwd_calls"] = calls[prim]
        m[f"{prim}.bwd_calls"] = calls[prim + BWD]
    for prim in ("tensor.conv2d", "tensor.dense"):
        m[f"{prim}.fwd_gflop"] = c[f"{prim}.fwd_gflop"]
        m[f"{prim}.bwd_gflop"] = c[f"{prim}.bwd_gflop"]
    m["tensor.tape.gradients_calls"] = calls["tensor.tape.gradients"]
    m["tensor.tape.nodes_recorded"] = c["tensor.tape.nodes_recorded"]

    m["models.train.calls"] = calls["models.train"]
    m["models.train.images"] = c["models.train.images"]
    m["models.forward.calls"] = calls["models.forward"]
    m["models.predict_batch.images"] = c["models.predict_batch.images"]
    for fn in ("train", "forward", "predict_batch", "accuracy", "agreement"):
        m[f"models.{fn}.total_s"] = total[f"models.{fn}"]

    for fn in ("apply", "hue_shift", "mean_delta_e"):
        m[f"color.{fn}.calls"] = calls[f"color.{fn}"]
    m["color.apply.total_s"] = total["color.apply"]

    for fn in ("grad_cam", "grad_cam_pp"):
        m[f"saliency.{fn}.calls"] = calls[f"saliency.{fn}"]
        m[f"saliency.{fn}.maps"] = c[f"saliency.{fn}.maps"]
        m[f"saliency.{fn}.total_s"] = total[f"saliency.{fn}"]
    m["saliency.ssim.pairs"] = c["saliency.ssim.pairs"]

    cpm = "attack.cpm_perturb"
    cpm_ms = [1e3 * d for d in summary["durations"][cpm]]
    m[f"{cpm}.calls"] = calls[cpm]
    m[f"{cpm}.total_s"] = total[cpm]
    m[f"{cpm}.p50_ms"] = statistics.median(cpm_ms) if cpm_ms else 0.0
    m[f"{cpm}.tail_ms"] = tail(cpm_ms)
    scored = c["attack.candidates_scored"]
    m["attack.candidates_scored"] = scored
    m["attack.feasible_ratio"] = c["attack.candidates_feasible"] / scored if scored else 0.0
    m["attack.fallback_rate"] = c["attack.fallbacks"] / calls[cpm] if calls[cpm] else 0.0
    m["attack.poison_dataset.calls"] = calls["attack.poison_dataset"]
    m["attack.poison_dataset.images"] = c["attack.poison_dataset.images"]
    m["attack.poison_dataset.total_s"] = total["attack.poison_dataset"]

    rr = "federated.run_round"
    rounds = summary["durations"][rr]
    m[f"{rr}.calls"] = calls[rr]
    m[f"{rr}.total_s"] = total[rr]
    m[f"{rr}.p50_s"] = statistics.median(rounds) if rounds else 0.0
    m["federated.compute_round_metrics.total_s"] = total["federated.compute_round_metrics"]
    m["federated.fltrust.skipped_rounds"] = c["federated.fltrust.skipped_rounds"]

    m["data.generate_shapes.images"] = c["data.generate_shapes.images"]

    m["harness.prepare_data.total_s"] = total["harness.prepare_data"]
    m["harness.train_model.total_s"] = total["harness.train_model"]
    m["trace.overhead_pct"] = overhead_pct
    return {k: float(v) for k, v in m.items()}
