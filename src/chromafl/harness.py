"""Experiment commands behind the CLI: train, attack, simulate, report.

Each command owns one subdirectory of the configured output directory and
emits CSV reports plus PGM/PPM image dumps.  Reports are deterministic for a
fixed (config, seed): re-running a command reproduces every CSV byte except
the leading ``# timestamp:`` comment line.
"""

from __future__ import annotations

import dataclasses
import datetime
import os

import numpy as np

from . import attack as A
from . import color as C
from . import data as D
from . import federated as F
from . import models as M
from . import saliency as S
from . import tensor as T
from .config import SHAPES, ConfigError, ExperimentConfig

# sub-seed tags for the independent random streams a command may open
_TAG_TRAIN = 0xD5E7
_TAG_TEST = 0x7E57
_TAG_ROOT = 0x0B07  # server root shard
_TAG_MODEL = 0x30DE
_TAG_MODEL_B = 0x30DF
_TAG_SKEW = 0x51E3


def _sub_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------- reporting


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9f}"
    return str(v)


def write_csv(path: str, header, rows) -> str:
    """Write rows with a fixed column order and a timestamp comment line."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [f"# timestamp: {stamp}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a report CSV, skipping ``#`` comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:] if ln]


def _outdir(cfg: ExperimentConfig, command: str) -> str:
    """Make ``<out>/<command>``; commands call it once their results are
    computed, so a config, data or numerical error leaves no empty directory
    behind."""
    path = os.path.join(cfg.out, command)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------- data/model


def prepare_data(cfg: ExperimentConfig) -> tuple[D.LabeledDataset, D.LabeledDataset, D.LabeledDataset]:
    """Build (train, test, server-root) splits for the configured dataset."""
    d = cfg.dataset
    if d.kind == SHAPES:
        train = D.generate_shapes(d.n_train, classes=d.classes, size=d.size,
                                  seed=_sub_seed(cfg.seed, _TAG_TRAIN))
        test = D.generate_shapes(d.n_test, classes=d.classes, size=d.size,
                                 seed=_sub_seed(cfg.seed, _TAG_TEST))
        root = D.generate_shapes(cfg.fl.root_size, classes=d.classes, size=d.size,
                                 seed=_sub_seed(cfg.seed, _TAG_ROOT))
        return train, test, root
    need = d.n_train + d.n_test + cfg.fl.root_size
    full = D.load_cifar10(d.path, limit=need)
    if len(full) < need:
        raise D.DataError(f"{d.path}: need {need} records "
                          f"(train {d.n_train} + test {d.n_test} + root "
                          f"{cfg.fl.root_size}), found {len(full)}")
    idx = np.arange(len(full))
    train = full.subset(idx[:d.n_train], name="cifar10-train")
    test = full.subset(idx[d.n_train:d.n_train + d.n_test], name="cifar10-test")
    root = full.subset(idx[d.n_train + d.n_test:need], name="cifar10-root")
    return train, test, root


def _model_spec(cfg: ExperimentConfig, model_cfg) -> M.ModelSpec:
    """The model section's spec at the dataset's image size and class count."""
    d = cfg.dataset
    size, classes = (d.size, d.classes) if d.kind == SHAPES else (32, 10)
    try:
        return model_cfg.to_spec(size, classes)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e


def train_model(cfg: ExperimentConfig, train_ds: D.LabeledDataset,
                model_cfg=None, tag: int = _TAG_MODEL):
    """Train a fresh model for this config; returns (spec, weights)."""
    spec = _model_spec(cfg, model_cfg if model_cfg is not None else cfg.model)
    init = M.build(spec, seed=_sub_seed(cfg.seed, tag))
    weights = M.train(spec, init, train_ds, cfg.train.epochs, lr=cfg.train.lr,
                      batch=cfg.train.batch, seed=_sub_seed(cfg.seed, tag, 1))
    return spec, weights


def _attack_set(test: D.LabeledDataset, n: int) -> D.LabeledDataset:
    return test.subset(np.arange(min(n, len(test))))


def _attack_images(spec: M.ModelSpec, weights, images, grid: A.GridSpec):
    """Grid-attack each image; returns (perturbed, outcomes, base_preds, pert_preds)."""
    results = [A.cpm_perturb(spec, weights, x, grid) for x in images]
    perturbed = np.stack([img for img, _ in results])
    outcomes = [o for _, o in results]
    base_preds = M.predict_labels(spec, weights, images)
    pert_preds = M.predict_labels(spec, weights, perturbed)
    return perturbed, outcomes, base_preds, pert_preds


def _dump_pair(out_dir: str, stem: str, image: np.ndarray, cam: np.ndarray) -> None:
    C.write_ppm(os.path.join(out_dir, f"{stem}.ppm"), image)
    S.save_pgm(os.path.join(out_dir, f"{stem}_cam.pgm"), cam)


# ---------------------------------------------------------------- baseline


def cmd_baseline(cfg: ExperimentConfig) -> dict:
    """Single-model attack: perturb test samples, report SSIM degradation."""
    train, test, _ = prepare_data(cfg)
    spec, weights = train_model(cfg, train)
    subset = _attack_set(test, cfg.attack.n_samples)
    perturbed, outcomes, base_preds, pert_preds = _attack_images(
        spec, weights, subset.images, cfg.grid)
    attack_acc = 100.0 * float((base_preds == pert_preds).mean())
    out = _outdir(cfg, "baseline")

    sample_rows = []
    for i, o in enumerate(outcomes):
        sample_rows.append((i, int(subset.labels[i]), o.label, o.ssim, o.delta_e,
                            o.fallback, o.n_feasible) + o.theta.as_row())
    samples_csv = write_csv(
        os.path.join(out, "samples.csv"),
        ("sample", "label", "pred", "ssim", "delta_e", "fallback", "n_feasible",
         "hue_delta", "alpha_r", "alpha_g", "alpha_b", "gamma", "beta"),
        sample_rows)

    stats = A.summarize_outcomes(outcomes)
    summary = {"n": stats["n"], "attack_acc_pct": attack_acc,
               "ssim_mean": stats["ssim_mean"], "ssim_std": stats["ssim_std"],
               "frac_below_0.7": stats["frac_below_0.7"],
               "success_pct": stats["attack_success_pct"],
               "delta_e_mean": stats["delta_e_mean"],
               "fallback_rate": stats["fallback_rate"]}
    summary_csv = write_csv(os.path.join(out, "summary.csv"),
                            tuple(summary), [tuple(summary.values())])

    order = np.argsort([o.ssim for o in outcomes], kind="stable")
    for rank in range(min(cfg.metrics.heatmap_dumps, len(outcomes))):
        i = int(order[rank])
        label = outcomes[i].label
        cam_orig = S.grad_cam(spec, weights, subset.images[i], label)
        cam_pert = S.grad_cam(spec, weights, perturbed[i], label)
        _dump_pair(out, f"worst_{rank:02d}_orig", subset.images[i], cam_orig)
        _dump_pair(out, f"worst_{rank:02d}_pert", perturbed[i], cam_pert)

    return {"out_dir": out, "samples_csv": samples_csv,
            "summary_csv": summary_csv, "summary": summary,
            "outcomes": outcomes}


# ---------------------------------------------------------------- federated


def _build_clients(train: D.LabeledDataset, cfg: ExperimentConfig,
                   roles: list[str]) -> list[F.ClientState]:
    shards = D.partition(train, cfg.fl.n_clients, cfg.fl.partition, seed=cfg.seed)
    return [F.ClientState(i, roles[i], train.subset(idx))
            for i, idx in enumerate(shards)]


def run_fl_streams(cfg: ExperimentConfig) -> dict:
    """Run the attacked stream and its benign twin round by round.

    The twin shares the seed, partition, selection, and local-training
    streams, differing only in that no client poisons its shard; at
    adv_ratio = 0 the two streams are the same computation bit for bit.
    Callers check first that every client gets a sample (``_check_clients_fit``).
    The result's ``heatmaps[t - 1]`` holds round t's Grad-CAMs of the first
    ``metrics.heatmap_dumps`` probe images on the attacked global, each for
    the twin's predicted class.
    """
    train, test, root = prepare_data(cfg)
    spec = _model_spec(cfg, cfg.model)

    roles = F.assign_roles(cfg.fl.n_clients, cfg.fl.adv_ratio, cfg.seed)
    adv_share = roles.count(F.ADVERSARIAL) / len(roles)
    clients = _build_clients(train, cfg, roles)
    twin_clients = [F.ClientState(c.cid, F.BENIGN, c.data) for c in clients]
    server_root = root if cfg.fl.aggregator == F.FLTRUST else None
    probe = test.images[:min(cfg.metrics.probe_size, len(test))]

    w_init = M.build(spec, seed=_sub_seed(cfg.seed, _TAG_MODEL))
    if cfg.fl.pretrain_epochs:
        # warm-started global, shared bit-for-bit by both streams
        w_init = M.train(spec, w_init, train, cfg.fl.pretrain_epochs,
                         lr=cfg.train.lr, batch=cfg.train.batch,
                         seed=_sub_seed(cfg.seed, _TAG_MODEL, 1))
    w_twin = w_main = w_init
    rounds: list[F.RoundMetrics] = []
    drift_rows = []
    heatmaps = []
    for t in range(1, cfg.fl.rounds + 1):
        w_twin = F.run_round(spec, w_twin, twin_clients, cfg.fl, cfg.grid,
                             cfg.seed, t, server_root=server_root)
        w_main = F.run_round(spec, w_main, clients, cfg.fl, cfg.grid,
                             cfg.seed, t, server_root=server_root)
        metrics, cams = F.compute_round_metrics(spec, w_twin, w_main, probe, test,
                                                round_index=t, adv_ratio=adv_share)
        rounds.append(metrics)
        drift_rows.append((t, cfg.fl.adv_ratio, 1.0 - metrics.ssim_gc_mean,
                           metrics.accuracy, metrics.reference_accuracy))
        # copies and a del, so no round's full probe stack outlives the round
        heatmaps.append([cam.copy() for cam in cams[:cfg.metrics.heatmap_dumps]])
        del cams

    series = [(t, r, d) for t, r, d, _, _ in drift_rows]
    try:
        alpha = F.fit_drift_slope(series)
        r_squared = F.drift_r_squared(series, alpha)
    except ValueError:
        alpha, r_squared = float("nan"), float("nan")

    return {"spec": spec, "weights": w_main, "twin_weights": w_twin,
            "rounds": rounds, "drift": drift_rows, "heatmaps": heatmaps,
            "alpha": alpha, "r_squared": r_squared, "probe": probe, "test": test}


def _check_clients_fit(cfg: ExperimentConfig) -> None:
    if cfg.fl.n_clients > cfg.dataset.n_train:
        raise ConfigError(f"fl.n_clients={cfg.fl.n_clients} exceeds "
                          f"dataset.n_train={cfg.dataset.n_train} (after --limit)")


def cmd_fl(cfg: ExperimentConfig) -> dict:
    """Federated attack run plus its vanilla twin; per-round CSV reports."""
    _check_clients_fit(cfg)
    res = run_fl_streams(cfg)
    out = _outdir(cfg, "fl")
    if cfg.metrics.heatmap_dumps:
        heat = os.path.join(out, "heatmaps")
        os.makedirs(heat, exist_ok=True)
        for t, cams in enumerate(res["heatmaps"], start=1):
            for j, cam in enumerate(cams):
                S.save_pgm(os.path.join(heat, f"round_{t:02d}_probe_{j:02d}.pgm"), cam)

    rounds_csv = write_csv(os.path.join(out, "rounds.csv"),
                           F.RoundMetrics.FIELDS,
                           [m.as_row() for m in res["rounds"]])
    drift_csv = write_csv(os.path.join(out, "drift.csv"),
                          ("round", "adv_ratio", "drift", "accuracy",
                           "twin_accuracy"), res["drift"])
    final = res["rounds"][-1]
    summary = {"rounds": cfg.fl.rounds, "adv_ratio": cfg.fl.adv_ratio,
               "aggregator": cfg.fl.aggregator, "alpha_hat": res["alpha"],
               "r_squared": res["r_squared"], "final_accuracy": final.accuracy,
               "final_twin_accuracy": res["drift"][-1][4],
               "final_ssim_gc": final.ssim_gc_mean,
               "final_peak_pct": final.peak_pct_mean, "final_l1": final.l1_mean}
    summary_csv = write_csv(os.path.join(out, "summary.csv"),
                            tuple(summary), [tuple(summary.values())])
    weights_path = os.path.join(out, "global_weights.cdwt")
    T.save_weights(weights_path, res["weights"])

    return {"out_dir": out, "rounds_csv": rounds_csv, "drift_csv": drift_csv,
            "summary_csv": summary_csv, "weights_path": weights_path,
            "summary": summary, **res}


# ---------------------------------------------------------------- ablation


def cmd_ablation(cfg: ExperimentConfig) -> dict:
    """Attack the same samples with single-operator grids and the full grid."""
    train, test, _ = prepare_data(cfg)
    spec, weights = train_model(cfg, train)
    subset = _attack_set(test, cfg.attack.n_samples)

    grids = (("hue", A.GridSpec.hue_only(cfg.grid.hue)),
             ("rescale", A.GridSpec.rescale_only(cfg.grid.alpha,
                                                 cfg.grid.per_channel)),
             ("jitter", A.GridSpec.jitter_only(cfg.grid.gamma, cfg.grid.beta)),
             ("combined", cfg.grid))
    rows = []
    by_operator = {}
    for name, grid in grids:
        outcomes = [A.cpm_perturb(spec, weights, x, grid)[1]
                    for x in subset.images]
        stats = A.summarize_outcomes(outcomes)
        rows.append((name, stats["n"], stats["ssim_mean"],
                     stats["attack_success_pct"]))
        by_operator[name] = stats
    out = _outdir(cfg, "ablation")
    ablation_csv = write_csv(os.path.join(out, "ablation.csv"),
                             ("operator", "n", "ssim_mean", "success_pct"), rows)
    return {"out_dir": out, "ablation_csv": ablation_csv, "rows": rows,
            "by_operator": by_operator}


# ---------------------------------------------------------------- compare


def _eval_skew(spec, weights, images, base_preds, cams_base, seed_root, scale,
               with_cams=True):
    skewed = np.stack([A.random_skew(x, seed=_sub_seed(seed_root, _TAG_SKEW, i),
                                     scale=scale)[0]
                       for i, x in enumerate(images)])
    delta_e = np.array([C.mean_delta_e(x, s) for x, s in zip(images, skewed)])
    preds = M.predict_labels(spec, weights, skewed)
    flips = int((preds != base_preds).sum())
    if not with_cams:
        return {"delta_e_mean": float(delta_e.mean()), "flips": flips}
    cams_skew = S.grad_cam(spec, weights, skewed, base_preds)
    ssim = S.ssim(cams_base, cams_skew)
    return {"delta_e_mean": float(delta_e.mean()), "flips": flips,
            "ssim_mean": float(ssim.mean()),
            "preserved_pct": 100.0 * float((preds == base_preds).mean())}


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Contrast the grid search against random color skew at matched ΔE00.

    The skew arm is reported twice: at full strength, and rescaled (by
    bisection on its strength knob) until its mean ΔE00 matches the grid
    attack's within the configured tolerance.
    """
    train, test, _ = prepare_data(cfg)
    spec, weights = train_model(cfg, train)
    subset = _attack_set(test, cfg.attack.compare_samples)
    images = subset.images
    _, outcomes, base_preds, pert_preds = _attack_images(spec, weights, images, cfg.grid)
    cpm = {"scale": float("nan"),
           "flips": int((pert_preds != base_preds).sum()),
           "preserved_pct": 100.0 * float((pert_preds == base_preds).mean()),
           "ssim_mean": float(np.mean([o.ssim for o in outcomes])),
           "delta_e_mean": float(np.mean([o.delta_e for o in outcomes]))}

    cams_base = S.grad_cam(spec, weights, images, base_preds)
    full = _eval_skew(spec, weights, images, base_preds, cams_base, cfg.seed, 1.0)
    full["scale"] = 1.0

    # bisect the skew strength until its mean recoloring magnitude matches
    target = cpm["delta_e_mean"]
    tol = cfg.attack.delta_e_tol
    if full["delta_e_mean"] <= target + tol:
        matched_scale = 1.0
    else:
        lo, hi = 0.0, 1.0
        matched_scale = 0.5
        for _ in range(40):
            matched_scale = 0.5 * (lo + hi)
            probe = _eval_skew(spec, weights, images, base_preds, cams_base,
                               cfg.seed, matched_scale, with_cams=False)
            if abs(probe["delta_e_mean"] - target) <= 0.25 * tol:
                break
            if probe["delta_e_mean"] > target:
                hi = matched_scale
            else:
                lo = matched_scale
    matched = _eval_skew(spec, weights, images, base_preds, cams_base,
                         cfg.seed, matched_scale)
    matched["scale"] = matched_scale

    header = ("arm", "scale", "n", "flips", "preserved_pct", "ssim_mean",
              "delta_e_mean")
    rows = [("cpm", cpm["scale"], len(images), cpm["flips"],
             cpm["preserved_pct"], cpm["ssim_mean"], cpm["delta_e_mean"]),
            ("skew_full", full["scale"], len(images), full["flips"],
             full["preserved_pct"], full["ssim_mean"], full["delta_e_mean"]),
            ("skew_matched", matched["scale"], len(images), matched["flips"],
             matched["preserved_pct"], matched["ssim_mean"],
             matched["delta_e_mean"])]
    out = _outdir(cfg, "compare")
    compare_csv = write_csv(os.path.join(out, "compare.csv"), header, rows)
    return {"out_dir": out, "compare_csv": compare_csv, "rows": rows,
            "cpm": cpm, "skew_full": full, "skew_matched": matched}


# ---------------------------------------------------------------- transfer


def cmd_transfer(cfg: ExperimentConfig) -> dict:
    """Craft attacks on one architecture, replay them on another."""
    train, test, _ = prepare_data(cfg)
    spec_a, w_a = train_model(cfg, train, cfg.model, tag=_TAG_MODEL)
    spec_b, w_b = train_model(cfg, train, cfg.transfer_model, tag=_TAG_MODEL_B)
    subset = _attack_set(test, cfg.attack.n_samples)
    images = subset.images
    perturbed, outcomes, preds_a, pert_a = _attack_images(spec_a, w_a, images, cfg.grid)
    same_row = ("same_arch", spec_a.arch,
                100.0 * float((pert_a == preds_a).mean()),
                float(np.mean([o.ssim for o in outcomes])))

    preds_b = M.predict_labels(spec_b, w_b, images)
    pert_b = M.predict_labels(spec_b, w_b, perturbed)
    cams_b = S.grad_cam(spec_b, w_b, images, preds_b)
    cams_b_pert = S.grad_cam(spec_b, w_b, perturbed, preds_b)
    cross_row = ("cross_arch", spec_b.arch,
                 100.0 * float((pert_b == preds_b).mean()),
                 float(S.ssim(cams_b, cams_b_pert).mean()))

    out = _outdir(cfg, "transfer")
    transfer_csv = write_csv(os.path.join(out, "transfer.csv"),
                             ("setting", "arch", "preserved_pct", "ssim_mean"),
                             [same_row, cross_row])
    return {"out_dir": out, "transfer_csv": transfer_csv,
            "rows": [same_row, cross_row],
            "same_arch": same_row, "cross_arch": cross_row}


# ---------------------------------------------------------------- robust


def cmd_robust(cfg: ExperimentConfig) -> dict:
    """Rerun the federated attack under each aggregator with shared seeds."""
    _check_clients_fit(cfg)
    if cfg.fl.select_k <= 2 * cfg.fl.trim_k:
        raise ConfigError(f"fl.select_k={cfg.fl.select_k} must exceed "
                          f"2*trim_k={2 * cfg.fl.trim_k} for trimmed_mean")
    rows = []
    runs = {}
    for agg in F.AGGREGATORS:
        sub = dataclasses.replace(cfg, fl=dataclasses.replace(cfg.fl, aggregator=agg))
        res = run_fl_streams(sub)
        final = res["rounds"][-1]
        rows.append((agg, final.accuracy, final.fidelity_pct,
                     final.ssim_gc_mean, final.ssim_gcpp_mean,
                     final.peak_pct_mean, final.l1_mean))
        runs[agg] = res
    out = _outdir(cfg, "robust")
    robust_csv = write_csv(os.path.join(out, "robust.csv"),
                           ("aggregator", "accuracy", "fidelity_pct", "ssim_gc",
                            "ssim_gcpp", "peak_pct", "l1"), rows)
    return {"out_dir": out, "robust_csv": robust_csv, "rows": rows, "runs": runs}


# ---------------------------------------------------------------- utilities


def cmd_gen_data(cfg: ExperimentConfig) -> dict:
    """Generate the synthetic shapes dataset and dump it as PPM + labels CSV."""
    out = _outdir(cfg, "gen_data")
    d = cfg.dataset
    ds = D.generate_shapes(d.n_train, classes=d.classes, size=d.size,
                           seed=_sub_seed(cfg.seed, _TAG_TRAIN))
    D.dump_ppm_dir(ds, out)
    return {"out_dir": out, "count": len(ds), "classes": d.classes}


def cmd_inspect(cfg: ExperimentConfig, sample_id: int = 0) -> dict:
    """Attack one test sample and dump its image/heatmap pair."""
    train, test, _ = prepare_data(cfg)
    if not 0 <= sample_id < len(test):
        raise ConfigError(f"sample id {sample_id} outside test set "
                          f"(0..{len(test) - 1})")
    spec, weights = train_model(cfg, train)
    x = test.images[sample_id]
    pert, outcome = A.cpm_perturb(spec, weights, x, cfg.grid)
    cam_orig = S.grad_cam(spec, weights, x, outcome.label)
    cam_pert = S.grad_cam(spec, weights, pert, outcome.label)
    out = _outdir(cfg, "inspect")
    _dump_pair(out, f"sample_{sample_id:05d}_orig", x, cam_orig)
    _dump_pair(out, f"sample_{sample_id:05d}_pert", pert, cam_pert)
    line = (f"sample {sample_id}: label={int(test.labels[sample_id])} "
            f"pred={outcome.label} ssim={outcome.ssim:.4f} "
            f"delta_e={outcome.delta_e:.2f} fallback={outcome.fallback} "
            f"theta={outcome.theta.as_row()}")
    return {"out_dir": out, "line": line, "outcome": outcome}
