"""Experiment commands behind the CLI: train, attack, simulate, report.

Each command owns one subdirectory of the configured output directory,
``<out>/<command>/``, and emits CSV reports plus PGM/PPM image dumps.  A
command computes all of its results first and then hands every file to
:func:`publish`, the one place that writes a report directory: it writes
them into a fresh sibling and swaps that in for the old directory whole, so
``<out>/<command>/`` holds exactly one run's files, and a run that fails
leaves it, and ``<out>``, as it found them.  Reports are deterministic for a
fixed (config, seed): re-running a command reproduces every CSV byte except
the leading ``# timestamp:`` comment line.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
import shutil
from pathlib import Path

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
    """Read back a report CSV, skipping ``#`` comment lines.  Not a test
    helper only: perfbench's ``child.py`` reads the reports it checks
    through it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:] if ln]


def nearest_existing(path: str) -> tuple[str, str | None]:
    """The nearest existing ancestor of ``path`` (or ``path`` itself), and
    the outermost directory ``os.makedirs(path)`` would create (None when
    ``path`` exists)."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.lexists(path):
        path, missing = os.path.dirname(path), path
    return path, missing


def _discard(path: str) -> None:
    """Remove whatever is at ``path``, if anything; a symlink is unlinked,
    never followed."""
    if os.path.islink(path) or os.path.isfile(path):
        os.unlink(path)
    else:
        shutil.rmtree(path, ignore_errors=True)


def publish(cfg: ExperimentConfig, command: str, files: dict) -> dict:
    """Make ``files`` the whole of ``<out>/<command>/``.

    ``files`` maps a path relative to that directory to a CSV as ``(header,
    rows)``, written by :func:`write_csv`, or to a writer called with the
    file's path.  Everything is written into the sibling
    ``<out>/.<command>.partial-<pid>/`` first; then the old directory (a
    symlink is unlinked, never followed) is renamed aside, the sibling is
    renamed into place and the old one is removed.  On any exception the
    old directory is put back, and the sibling and every ancestor of
    ``<out>`` this call made are removed; an ``OSError`` becomes a
    ``ConfigError`` naming ``<out>/<command>``.  Returns ``out_dir`` and,
    for each CSV, ``<stem>_csv``: the published paths."""
    final = os.path.join(cfg.out, command)
    stage = os.path.join(cfg.out, f".{command}.partial-{os.getpid()}")
    aside = stage + ".old"
    made = nearest_existing(cfg.out)[1]
    report = {"out_dir": final}
    moved = False
    try:
        _discard(stage)  # left by an earlier run that had this pid
        _discard(aside)
        os.makedirs(stage)
        for rel, content in files.items():
            path = os.path.join(stage, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if callable(content):
                content(path)
            else:
                write_csv(path, *content)
                stem = os.path.splitext(os.path.basename(rel))[0]
                report[f"{stem}_csv"] = os.path.join(final, rel)
        if os.path.lexists(final):
            os.rename(final, aside)
            moved = True
        os.rename(stage, final)
    except BaseException as e:
        if moved:
            os.rename(aside, final)
        _discard(stage)
        if made is not None:
            _discard(made)
        if isinstance(e, OSError):
            raise ConfigError(f"out: cannot write {final}: {e.strerror or e}") from e
        raise
    _discard(aside)
    return report


# ---------------------------------------------------------------- data/model


def prepare_data(cfg: ExperimentConfig,
                 root_size: int = 0) -> list[D.LabeledDataset]:
    """The train and test splits of the configured dataset, then a server-root
    split of ``root_size`` images unless that is 0.  CIFAR-10 splits are
    consecutive record slices in that order."""
    d = cfg.dataset
    parts = [("train", d.n_train, _TAG_TRAIN), ("test", d.n_test, _TAG_TEST)]
    if root_size:
        parts.append(("root", root_size, _TAG_ROOT))
    if d.kind == SHAPES:
        return [D.generate_shapes(n, classes=d.classes, size=d.size,
                                  seed=F._child_seed(cfg.seed, tag))
                for _, n, tag in parts]
    need = sum(n for _, n, _ in parts)
    full = D.load_cifar10(d.path, limit=need)
    if len(full) < need:
        counts = " + ".join(f"{name} {n}" for name, n, _ in parts)
        raise D.DataError(f"{d.path}: need {need} records ({counts}), found {len(full)}")
    edges = np.cumsum([0] + [n for _, n, _ in parts])
    return [full.subset(np.arange(lo, hi)) for lo, hi in zip(edges, edges[1:])]


def train_model(cfg: ExperimentConfig, train_ds: D.LabeledDataset, epochs: int,
                model_cfg=None, tag: int = _TAG_MODEL):
    """Build a fresh model for this config and train it for ``epochs`` (none
    at 0: the built weights come back as they are); returns (spec, weights).
    ``ExperimentConfig`` has checked that both model sections fit the data."""
    spec = (model_cfg or cfg.model).to_spec(cfg.dataset.size, cfg.dataset.classes)
    weights = M.build(spec, seed=F._child_seed(cfg.seed, tag))
    if epochs:
        weights = M.train(spec, weights, train_ds, epochs, lr=cfg.train.lr,
                          batch=cfg.train.batch, seed=F._child_seed(cfg.seed, tag, 1))
    return spec, weights


def _pair(stem: str, image: np.ndarray, cam: np.ndarray) -> dict:
    """An image and its heatmap, as :func:`publish` files."""
    return {f"{stem}.ppm": lambda path: C.write_ppm(path, image),
            f"{stem}_cam.pgm": lambda path: C.write_ppm(path, cam)}


# ---------------------------------------------------------------- baseline


def cmd_baseline(cfg: ExperimentConfig) -> dict:
    """Single-model attack: perturb test samples, report SSIM degradation."""
    train, test = prepare_data(cfg)
    spec, weights = train_model(cfg, train, cfg.train.epochs)
    images, truth = test.images[:cfg.attack.n_samples], test.labels[:cfg.attack.n_samples]
    perturbed, outcomes = A.attack_images(spec, weights, images, cfg.grid)
    # one pass per stack gives its labels and the maps the dumps need
    labels = [o.label for o in outcomes]
    base_preds, cams_orig, _ = S.predict_grad_cams(spec, weights, images, labels)
    pert_preds, cams_pert, _ = S.predict_grad_cams(spec, weights, perturbed, labels)
    attack_acc = 100.0 * M.hit_rate(pert_preds, base_preds)

    sample_rows = []
    for i, o in enumerate(outcomes):
        sample_rows.append((i, int(truth[i]), o.label, o.ssim, o.delta_e,
                            o.fallback, o.n_feasible) + o.theta.as_row())

    stats = A.summarize_outcomes(outcomes)
    summary = {"n": stats["n"], "attack_acc_pct": attack_acc, **stats}
    files = {"samples.csv": (("sample", "label", "pred", "ssim", "delta_e", "fallback",
                              "n_feasible", "hue_delta", "alpha_r", "alpha_g",
                              "alpha_b", "gamma", "beta"), sample_rows),
             "summary.csv": (tuple(summary), [tuple(summary.values())])}

    order = np.argsort([o.ssim for o in outcomes], kind="stable")
    for rank in range(min(cfg.metrics.heatmap_dumps, len(outcomes))):
        i = int(order[rank])
        files |= _pair(f"worst_{rank:02d}_orig", images[i], cams_orig[i])
        files |= _pair(f"worst_{rank:02d}_pert", perturbed[i], cams_pert[i])

    return {**publish(cfg, "baseline", files), "summary": summary, "outcomes": outcomes}


# ---------------------------------------------------------------- federated


def run_fl(cfg: ExperimentConfig, aggregators) -> dict[str, dict]:
    """Run the attacked stream and its benign twin round by round under each
    of ``aggregators``, in the order given, from one set of data splits,
    client shards, adversary ids, probe and initial global; the server-root
    split is built only when FLTrust, the one aggregator that reads it, is
    among them.  Each aggregator maps to its final ``weights`` and
    ``twin_weights``, its ``rounds`` and its ``heatmaps``.

    The twin is ``run_round`` with no adversaries: it shares the seed,
    shards, selection, and local-training streams, differing only in that
    no client poisons its shard; at adv_ratio = 0 the two streams are the
    same computation bit for bit.
    So a round that both streams start from the same global object and
    that selects no adversarial client is run once: the attacked global is
    the twin's new global object.  Its metrics then compute only the test
    accuracy, plus the Grad-CAMs of the heatmaps kept, and score no map
    against itself.  That is every round at adv_ratio = 0 and the leading
    adversary-free rounds of an attacked run; once the streams diverge,
    each runs its own rounds.
    ``heatmaps[t - 1]`` is the (n, H, W) stack of round t's Grad-CAMs of
    the first ``metrics.heatmap_dumps`` probe images on the attacked
    global, each for the twin's predicted class.
    """
    try:  # each aggregator's rules (trimmed_mean's trim_k) are FLConfig's checks
        fls = [dataclasses.replace(cfg.fl, aggregator=agg) for agg in aggregators]
    except ValueError as e:
        raise ConfigError(f"fl: {e}") from e
    if cfg.fl.n_clients > cfg.dataset.n_train:
        raise ConfigError(f"fl.n_clients={cfg.fl.n_clients} exceeds dataset.n_train="
                          f"{cfg.dataset.n_train}: each client needs a training image")
    train, test, *rest = prepare_data(
        cfg, cfg.fl.root_size if F.FLTRUST in aggregators else 0)
    root = rest[0] if rest else None
    # warm-started after pretrain_epochs, shared bit for bit by every stream
    spec, w_init = train_model(cfg, train, cfg.fl.pretrain_epochs)
    roles = F.assign_roles(cfg.fl.n_clients, cfg.fl.adv_ratio, cfg.seed)
    adversaries = frozenset(i for i, role in enumerate(roles) if role == F.ADVERSARIAL)
    parts = D.partition(train, cfg.fl.n_clients, cfg.fl.partition, seed=cfg.seed)
    shards = [train.subset(idx) for idx in parts]
    del train  # each shard is a copy, so the split need not outlive the rounds
    probe = test.images[:cfg.metrics.probe_size]
    adv_share = len(adversaries) / len(shards)
    runs = {}
    for fl in fls:
        w_twin = w_main = w_init
        rounds: list[F.RoundMetrics] = []
        heatmaps = []
        for t in range(1, fl.rounds + 1):
            same_start = w_main is w_twin
            w_twin = F.run_round(spec, w_twin, shards, (), fl, cfg.grid,
                                 cfg.seed, t, server_root=root)
            picked = F.select_clients(len(shards), fl.select_k, cfg.seed, t)
            if same_start and adversaries.isdisjoint(picked):
                w_main = w_twin
            else:
                w_main = F.run_round(spec, w_main, shards, adversaries, fl, cfg.grid,
                                     cfg.seed, t, server_root=root)
            metrics, cams = F.compute_round_metrics(
                spec, w_twin, w_main, probe, test, round_index=t, adv_ratio=adv_share,
                n_maps=cfg.metrics.heatmap_dumps)
            rounds.append(metrics)
            heatmaps.append(cams)
        runs[fl.aggregator] = {"weights": w_main, "twin_weights": w_twin,
                               "rounds": rounds, "heatmaps": heatmaps}
    return runs


def cmd_fl(cfg: ExperimentConfig) -> dict:
    """Federated attack run plus its vanilla twin; per-round CSV reports,
    and the drift series and its slope fit derived from the rounds at the
    realized adversary share (``summary.csv`` echoes ``fl.adv_ratio``)."""
    res = run_fl(cfg, [cfg.fl.aggregator])[cfg.fl.aggregator]
    drift = [(m.round, m.adv_ratio, 1.0 - m.ssim_gc_mean, m.accuracy,
              m.reference_accuracy) for m in res["rounds"]]
    series = [row[:3] for row in drift]
    try:
        alpha = F.fit_drift_slope(series)
        r_squared = F.drift_r_squared(series, alpha)
    except ValueError:
        alpha, r_squared = float("nan"), float("nan")
    final = res["rounds"][-1]
    summary = {"rounds": cfg.fl.rounds, "adv_ratio": cfg.fl.adv_ratio,
               "aggregator": cfg.fl.aggregator, "alpha_hat": alpha,
               "r_squared": r_squared, "final_accuracy": final.accuracy,
               "final_twin_accuracy": final.reference_accuracy,
               "final_ssim_gc": final.ssim_gc_mean,
               "final_peak_pct": final.peak_pct_mean, "final_l1": final.l1_mean}
    files = {f"heatmaps/round_{t:02d}_probe_{j:02d}.pgm":
             lambda path, cam=cam: C.write_ppm(path, cam)
             for t, cams in enumerate(res["heatmaps"], start=1)
             for j, cam in enumerate(cams)}
    files |= {"rounds.csv": (F.RoundMetrics.FIELDS, [m.as_row() for m in res["rounds"]]),
              "drift.csv": (("round", "adv_ratio", "drift", "accuracy", "twin_accuracy"),
                            drift),
              "summary.csv": (tuple(summary), [tuple(summary.values())]),
              "global_weights.cdwt": lambda path: T.save_weights(path, res["weights"])}
    return {**publish(cfg, "fl", files), "summary": summary, "drift": drift, **res}


# ---------------------------------------------------------------- ablation


def cmd_ablation(cfg: ExperimentConfig) -> dict:
    """Attack the same samples with single-operator grids and the full grid;
    each single-operator grid is ``cfg.grid`` with the other operators at
    identity (``GridSpec.single_operator``)."""
    train, test = prepare_data(cfg)
    spec, weights = train_model(cfg, train, cfg.train.epochs)
    images = test.images[:cfg.attack.n_samples]

    rows = []
    by_operator = {}
    for name, grid in [*cfg.grid.single_operator().items(), ("combined", cfg.grid)]:
        stats = A.summarize_outcomes(A.attack_images(spec, weights, images, grid)[1])
        rows.append((name, stats["n"], stats["ssim_mean"], stats["success_pct"]))
        by_operator[name] = stats
    files = {"ablation.csv": (("operator", "n", "ssim_mean", "success_pct"), rows)}
    return {**publish(cfg, "ablation", files), "rows": rows, "by_operator": by_operator}


# ---------------------------------------------------------------- compare


def _render_skew(images, seed: int, scale: float) -> tuple[np.ndarray, float]:
    """Every image's random skew at ``scale``, and their mean ΔE00."""
    skewed = np.stack([A.random_skew(x, seed=F._child_seed(seed, _TAG_SKEW, i), scale=scale)
                       for i, x in enumerate(images)])
    delta_e = np.array([C.mean_delta_e(x, s) for x, s in zip(images, skewed)])
    return skewed, float(delta_e.mean())


def _score_stack(spec, weights, recolored, base_preds, cams_base) -> dict:
    """Label flips, preserved share and mean CAM SSIM of a recolored stack
    against its originals' labels ``base_preds`` and maps ``cams_base`` on
    the same model; each recolored map is taken for the original's label."""
    preds, cams, _ = S.predict_grad_cams(spec, weights, recolored, base_preds)
    return {"flips": int((preds != base_preds).sum()),
            "ssim_mean": float(S.ssim(cams_base, cams).mean()),
            "preserved_pct": 100.0 * M.hit_rate(preds, base_preds)}


def cmd_compare(cfg: ExperimentConfig) -> dict:
    """Contrast the grid search against random color skew at matched ΔE00.

    The skew arm is reported twice: at full strength, and matched.  When
    the full-strength skew's mean ΔE00 exceeds the grid attack's by more
    than ``attack.delta_e_tol``, the matched arm's strength is bisected
    until its mean ΔE00 lies within a quarter of that tolerance of the
    attack's; a bisection probe only renders, and the matched arm scores
    the last probe's rendering.  Otherwise the matched arm is the full
    arm: the strength cannot exceed 1, so its ΔE00 can sit far below the
    attack's.
    """
    train, test = prepare_data(cfg)
    spec, weights = train_model(cfg, train, cfg.train.epochs)
    images = test.images[:cfg.attack.compare_samples]
    perturbed, outcomes = A.attack_images(spec, weights, images, cfg.grid)
    base_preds, cams_base, _ = S.predict_grad_cams(spec, weights, images)
    pert_preds = M.predict_labels(spec, weights, perturbed)
    stats = A.summarize_outcomes(outcomes)
    cpm = {"scale": float("nan"),
           "flips": int((pert_preds != base_preds).sum()),
           "preserved_pct": 100.0 * M.hit_rate(pert_preds, base_preds),
           "ssim_mean": stats["ssim_mean"], "delta_e_mean": stats["delta_e_mean"]}

    skewed, delta_e = _render_skew(images, cfg.seed, 1.0)
    full = {"scale": 1.0, "delta_e_mean": delta_e,
            **_score_stack(spec, weights, skewed, base_preds, cams_base)}
    matched = full

    # bisect the skew strength until its mean recoloring magnitude matches
    target = cpm["delta_e_mean"]
    tol = cfg.attack.delta_e_tol
    if delta_e > target + tol:
        lo, hi = 0.0, 1.0
        for _ in range(40):
            scale = 0.5 * (lo + hi)
            skewed, delta_e = _render_skew(images, cfg.seed, scale)
            if abs(delta_e - target) <= 0.25 * tol:
                break
            if delta_e > target:
                hi = scale
            else:
                lo = scale
        matched = {"scale": scale, "delta_e_mean": delta_e,
                   **_score_stack(spec, weights, skewed, base_preds, cams_base)}

    header = ("arm", "scale", "n", "flips", "preserved_pct", "ssim_mean",
              "delta_e_mean")
    rows = [(arm, r["scale"], len(images), r["flips"], r["preserved_pct"],
             r["ssim_mean"], r["delta_e_mean"])
            for arm, r in (("cpm", cpm), ("skew_full", full), ("skew_matched", matched))]
    return {**publish(cfg, "compare", {"compare.csv": (header, rows)}), "rows": rows,
            "cpm": cpm, "skew_full": full, "skew_matched": matched}


# ---------------------------------------------------------------- transfer


def cmd_transfer(cfg: ExperimentConfig) -> dict:
    """Craft attacks on one architecture, replay them on another."""
    train, test = prepare_data(cfg)
    spec_a, w_a = train_model(cfg, train, cfg.train.epochs)
    spec_b, w_b = train_model(cfg, train, cfg.train.epochs, cfg.transfer_model,
                              tag=_TAG_MODEL_B)
    images = test.images[:cfg.attack.n_samples]
    perturbed, outcomes = A.attack_images(spec_a, w_a, images, cfg.grid)
    preds_a = M.predict_labels(spec_a, w_a, images)
    pert_a = M.predict_labels(spec_a, w_a, perturbed)
    preds_b, cams_b, _ = S.predict_grad_cams(spec_b, w_b, images)
    cross = _score_stack(spec_b, w_b, perturbed, preds_b, cams_b)
    rows = [("same_arch", spec_a.arch, 100.0 * M.hit_rate(pert_a, preds_a),
             A.summarize_outcomes(outcomes)["ssim_mean"]),
            ("cross_arch", spec_b.arch, cross["preserved_pct"], cross["ssim_mean"])]
    files = {"transfer.csv": (("setting", "arch", "preserved_pct", "ssim_mean"), rows)}
    return {**publish(cfg, "transfer", files), "rows": rows}


# ---------------------------------------------------------------- robust


def cmd_robust(cfg: ExperimentConfig) -> dict:
    """Rerun the federated attack under each aggregator with shared seeds."""
    runs = run_fl(cfg, F.AGGREGATORS)
    finals = {agg: res["rounds"][-1] for agg, res in runs.items()}
    rows = [(agg, m.accuracy, m.fidelity_pct, m.ssim_gc_mean, m.ssim_gcpp_mean,
             m.peak_pct_mean, m.l1_mean) for agg, m in finals.items()]
    files = {"robust.csv": (("aggregator", "accuracy", "fidelity_pct", "ssim_gc",
                             "ssim_gcpp", "peak_pct", "l1"), rows)}
    return {**publish(cfg, "robust", files), "rows": rows, "runs": runs}


# ---------------------------------------------------------------- utilities


def cmd_gen_data(cfg: ExperimentConfig) -> dict:
    """Generate the synthetic shapes dataset and dump every image as
    ``sample_<i>.ppm``, plus a ``labels.csv`` index with no timestamp line."""
    d = cfg.dataset
    if d.kind != SHAPES:
        raise ConfigError(f"gen-data writes the synthetic {SHAPES} dataset only; "
                          f"dataset.kind is {d.kind!r}")
    ds = D.generate_shapes(d.n_train, classes=d.classes, size=d.size,
                           seed=F._child_seed(cfg.seed, _TAG_TRAIN))
    files = {f"sample_{i:05d}.ppm": lambda path, x=x: C.write_ppm(path, x)
             for i, x in enumerate(ds.images)}
    labels = "index,label\n" + "".join(f"{i},{int(y)}\n" for i, y in enumerate(ds.labels))
    files["labels.csv"] = lambda path: Path(path).write_text(labels, encoding="ascii")
    return {**publish(cfg, "gen_data", files),
            "summary": {"count": len(ds), "classes": d.classes}}


def cmd_inspect(cfg: ExperimentConfig, sample_id: int = 0) -> dict:
    """Attack one test sample and dump its image/heatmap pair."""
    if not 0 <= sample_id < cfg.dataset.n_test:
        raise ConfigError(f"sample id {sample_id} outside test set "
                          f"(0..{cfg.dataset.n_test - 1})")
    train, test = prepare_data(cfg)
    spec, weights = train_model(cfg, train, cfg.train.epochs)
    x = test.images[sample_id]
    (pert,), (outcome,) = A.attack_images(spec, weights, x[None], cfg.grid)
    _, cams, _ = S.predict_grad_cams(spec, weights, np.stack([x, pert]), outcome.label)
    files = (_pair(f"sample_{sample_id:05d}_orig", x, cams[0])
             | _pair(f"sample_{sample_id:05d}_pert", pert, cams[1]))
    line = (f"sample {sample_id}: label={int(test.labels[sample_id])} "
            f"pred={outcome.label} ssim={outcome.ssim:.4f} "
            f"delta_e={outcome.delta_e:.2f} fallback={outcome.fallback} "
            f"theta={outcome.theta.as_row()}")
    return {**publish(cfg, "inspect", files), "line": line, "outcome": outcome}
