"""What the chromafl benchmark runs and measures, and what each number should move.

This module is the single source of ``BENCHMARK.json``.  After editing the
tables below, rewrite that file with::

    python3 perfbench/spec.py

``BENCHMARK.json`` carries only the keys its readers accept; the reason each
workload was chosen (``WORKLOADS[*].why``) fits there, but the prediction of
which end-to-end metric each per-layer metric should move lives only here
(``PER_LAYER[*].moves``).  A later performance issue cites those predictions
by metric name.

End-to-end metric names used in the predictions:

* ``run_s`` -- wall time of the command call (trace off);
* ``images_per_s`` -- images put through the grid search over ``run_s``
  (baseline: test images passed to ``cpm_perturb``; fl_attacked: shard
  images passed to ``poison_dataset``);
* ``rounds_per_min`` -- federated rounds per minute of ``run_s``;
* ``setup_s``, ``peak_rss_mb`` -- start-up time and peak resident memory.

``images_per_s`` and ``rounds_per_min`` are 0 on the workloads they do not
apply to, so ``run.py`` prints them but ``BENCHMARK.json`` gates on
``run_s``: each workload does a fixed amount of grid-search work per seed,
so on the workloads where they apply they are ``run_s`` rescaled.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

RUN_SECONDS = 30
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # set-up-only process starts per run, besides the measured calls

# fl_attacked picks, for each call, a config seed whose every round selects
# exactly this many adversarial clients, so every call poisons the same
# number of 40-image shards whatever the workload seed.
ATTACKED_SHARDS_PER_ROUND = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "baseline" or "fl"
    overrides: dict  # on top of the default config
    call_s: float  # nominal seconds per command call: a run makes seconds / call_s calls
    why: str


# A run makes several command calls, each on its own config seed derived from
# the workload seed: the attack's cost depends on how many candidates keep
# the label, which differs from model to model by 10-15%, so a run averages
# over several models rather than timing one.
WORKLOADS = {w.name: w for w in (
    Workload(
        "baseline", "baseline", {"attack": {"n_samples": 16}}, 10.0,
        why="Grid attack of 16 test images on each of 3 freshly trained models: "
            "cpm_perturb dominates, so attack, color and Grad-CAM work dominate; "
            "poison_dataset is not on its path."),
    Workload(
        "fl_benign", "fl",
        {"fl": {"adv_ratio": 0.0, "aggregator": "fltrust"},
         "metrics": {"heatmap_dumps": 0}},
        30.0,
        why="15 FLTrust rounds with no adversary: weight-gradient training and "
            "Grad-CAM/Grad-CAM++ round metrics use the tensor layer the other "
            "way round; attack-only changes must leave it unchanged."),
    Workload(
        "fl_attacked", "fl", {"fl": {"rounds": 2}}, 32.0,
        why="First 2 fedavg rounds, one 40-image shard per round re-poisoned via "
            "poison_dataset against barely-trained globals: shard-level attack cost, "
            "where batching images x candidates shows."),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    moves: str = ""  # per-layer only: which end-to-end metric, on which workload


END_TO_END = [
    Metric("run_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    # about three times the largest per-seed spread seen (0.022, baseline), so
    # batching that buys speed with 7% more memory fails
    Metric("peak_rss_mb", "MB", "lower", bound=0.07),
]


def _group(names, unit, better, moves):
    return [Metric(n, unit, better, moves=moves) for n in names]


_ATTACK_PATH = "images_per_s on baseline and fl_attacked; no change on fl_benign"
_TRAINING = "rounds_per_min on fl_benign (training); little effect on baseline"

PER_LAYER = [
    *_group(["tensor.conv2d.fwd_calls", "tensor.conv2d.bwd_calls"], "count", "lower",
            "images_per_s on baseline and fl_attacked (216 of 333 baseline bwd calls "
            "replay the tape past the Grad-CAM capture); on fl_benign only the "
            "round-metric share of run_s"),
    *_group(["tensor.conv2d.fwd_self_s", "tensor.conv2d.bwd_self_s"], "s", "lower",
            "images_per_s on baseline and fl_attacked; on fl_benign only the "
            "round-metric share of run_s, since training needs the weight gradients"),
    *_group(["tensor.conv2d.fwd_gflop", "tensor.conv2d.bwd_gflop"], "GFLOP", "lower",
            "computed from shapes, not counted by hardware; same prediction as "
            "tensor.conv2d.*_self_s"),
    *_group(["tensor.maxpool2.fwd_calls", "tensor.maxpool2.bwd_calls"], "count", "lower",
            "run_s on all three workloads"),
    *_group(["tensor.maxpool2.fwd_self_s", "tensor.maxpool2.bwd_self_s"], "s", "lower",
            "run_s on all three workloads (the forward pass is 24-27% of each)"),
    *_group(["tensor.relu.fwd_self_s", "tensor.relu.bwd_self_s",
             "tensor.dense.fwd_self_s", "tensor.dense.bwd_self_s",
             "tensor.softmax_cross_entropy.self_s", "tensor.sgd_step.self_s",
             "tensor.tape.gradients_self_s"], "s", "lower",
            "rounds_per_min on fl_benign (training)"),
    *_group(["tensor.dense.fwd_gflop", "tensor.dense.bwd_gflop"], "GFLOP", "lower",
            "computed from shapes; rounds_per_min on fl_benign (training)"),
    *_group(["tensor.tape.gradients_calls", "tensor.tape.nodes_recorded"], "count", "lower",
            "rounds_per_min on fl_benign (training)"),
    *_group(["models.train.calls", "models.train.images", "models.forward.calls"],
            "count", "lower", _TRAINING),
    *_group(["models.train.total_s", "models.forward.total_s",
             "models.predict_batch.total_s", "models.accuracy.total_s",
             "models.agreement.total_s"], "s", "lower", _TRAINING),
    *_group(["models.predict_batch.images"], "count", "lower", _TRAINING),
    *_group(["color.apply.calls", "color.hue_shift.calls", "color.mean_delta_e.calls"],
            "count", "lower", _ATTACK_PATH),
    *_group(["color.apply.total_s", "color.hue_shift.self_s",
             "color.channel_rescale.self_s", "color.contrast_jitter.self_s",
             "color.mean_delta_e.self_s", "color.write_ppm.self_s"], "s", "lower",
            _ATTACK_PATH + " (hue_shift is ~11% of baseline and fl_attacked)"),
    *_group(["saliency.grad_cam.calls", "saliency.grad_cam.maps",
             "saliency.grad_cam_pp.calls", "saliency.grad_cam_pp.maps",
             "saliency.ssim.pairs"], "count", "lower",
            "images_per_s through the attack; rounds_per_min on fl_benign through "
            "the round metrics"),
    *_group(["saliency.grad_cam.self_s", "saliency.grad_cam.total_s",
             "saliency.grad_cam_pp.self_s", "saliency.grad_cam_pp.total_s",
             "saliency.ssim.self_s", "saliency.peak_overlap.self_s",
             "saliency.l1_distance.self_s", "saliency.save_pgm.self_s"], "s", "lower",
            "images_per_s through the attack; rounds_per_min on fl_benign through "
            "the round metrics"),
    *_group(["attack.cpm_perturb.calls", "attack.candidates_scored"], "count", "lower",
            _ATTACK_PATH),
    *_group(["attack.cpm_perturb.self_s", "attack.cpm_perturb.total_s"], "s", "lower",
            _ATTACK_PATH),
    *_group(["attack.cpm_perturb.p50_ms", "attack.cpm_perturb.tail_ms"], "ms", "lower",
            _ATTACK_PATH + "; tail_ms is the highest percentile with at least ten "
            "calls beyond it (48 calls on baseline, 80 on fl_attacked)"),
    *_group(["attack.feasible_ratio"], "ratio", "lower",
            "candidates that keep the label over candidates rendered; sets the "
            "Grad-CAM batch, so a change to it moves images_per_s on baseline and "
            "fl_attacked without being an optimisation"),
    *_group(["attack.fallback_rate"], "ratio", "lower",
            "attack outcome, not speed: must not change under a perf PR"),
    *_group(["attack.poison_dataset.calls", "attack.poison_dataset.images"], "count",
            "lower", "images_per_s and peak_rss_mb on fl_attacked only"),
    *_group(["attack.poison_dataset.total_s"], "s", "lower",
            "images_per_s and peak_rss_mb on fl_attacked only"),
    *_group(["federated.run_round.calls"], "count", "lower",
            "rounds_per_min on fl_benign and fl_attacked"),
    *_group(["federated.run_round.total_s", "federated.run_round.p50_s",
             "federated.compute_round_metrics.self_s",
             "federated.compute_round_metrics.total_s"], "s", "lower",
            "rounds_per_min on fl_benign and fl_attacked"),
    # trimmed_mean and median run in no workload (a known gap), so their
    # self times would read 0 on every run and are left out
    *_group(["federated.fedavg.self_s", "federated.fltrust.self_s"], "s", "lower",
            "milliseconds: a regression guard, no end-to-end change expected"),
    *_group(["federated.fltrust.skipped_rounds"], "count", "lower",
            "fltrust 'round skipped' warnings; behaviour, not speed: must not change"),
    *_group(["data.generate_shapes.images"], "count", "lower",
            "about 1% of each workload; no end-to-end change expected"),
    *_group(["data.generate_shapes.self_s", "data.partition.self_s"], "s", "lower",
            "about 1% of each workload; no end-to-end change expected"),
    *_group(["harness.prepare_data.total_s", "harness.train_model.total_s",
             "harness.write_csv.self_s", "harness.cmd.self_s"], "s", "lower",
            "run_s on the workloads that call them; harness.cmd.self_s is command "
            "time that no traced span covers"),
    # every span's self time lands in exactly one *self_s metric; these hold
    # the spans without a metric of their own (e.g. color.hsv_to_rgb,
    # saliency.upsample_bilinear, the self time of models.forward)
    *_group([f"{layer}.other.self_s" for layer in ("tensor", "models", "color",
                                                   "saliency", "attack", "federated",
                                                   "data", "harness")], "s", "lower",
            "run_s on the workloads whose traced shares they grow in; together with "
            "the other *self_s metrics they add up to the traced run_s"),
    *_group(["trace.overhead_pct"], "%", "lower",
            "median traced run_s over the median untraced run_s of the same config "
            "seeds in the same run, minus 1; moves no end-to-end metric"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json document, with exactly the keys its readers accept."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
