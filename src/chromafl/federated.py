"""Federated rounds, robust aggregation, and saliency-drift measurement.

A run's clients are one list of shards, indexed by client id, and one set
of adversary ids.  A round selects a client subset, local-trains each from
the current global, lets the selected adversaries recolor their shards
against that same global first, and aggregates.  All randomness flows from
per-purpose seed sequences of (seed, tag, round, client), so a run is
reproducible bit-for-bit, and its all-benign twin, the same rounds with no
adversaries, shares every selection and shuffle with it.

``FLConfig`` is both the knob set of a run and the ``fl`` section of the
experiment config, so its checks are the config's checks.  The attack grid
and the seed live in their own config entries and reach ``run_round`` as
arguments; the round metrics are computed by the caller, which holds the
probe set and the reference weights.

The aggregators share one weight layout.  Each client's weight list,
flattened in list order and widened to float64, is one row of a clients x
parameters matrix (after one check that every list has the same shapes).
Each aggregator reduces that matrix over its rows, coordinate by coordinate,
and cuts the result back into the list's shapes and dtypes.  FLTrust
stacks the global and the server's update as two more rows and scores each
client row by its delta from the global's.

Drift is measured against a reference model (normally the twin at the same
round): Delta = mean over probe images of (1 - SSIM(reference CAM, current
CAM)), each CAM taken for the reference model's predicted class.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import attack as A
from . import data as D
from . import models as M
from . import parallel as P
from . import saliency as S

BENIGN = "benign"
ADVERSARIAL = "adversarial"

FEDAVG = "fedavg"
TRIMMED_MEAN = "trimmed_mean"
MEDIAN = "median"
FLTRUST = "fltrust"
AGGREGATORS = (FEDAVG, TRIMMED_MEAN, MEDIAN, FLTRUST)

# seed-stream tags so independent draws never collide
_TAG_SELECT = 0x51
_TAG_LOCAL = 0x7A
_TAG_SERVER = 0x5E
_TAG_ROLES = 0xA0


@dataclass(frozen=True)
class FLConfig:
    """Knobs for one federated run; also the ``fl`` section of the config."""

    n_clients: int = 10
    select_k: int = 5
    local_epochs: int = 1
    lr: float = 0.05
    batch: int = 32
    rounds: int = 15
    adv_ratio: float = 0.3
    aggregator: str = FEDAVG
    trim_k: int = 1
    partition: str = D.IID
    root_size: int = 32
    pretrain_epochs: int = 0

    def __post_init__(self):
        if not 0.0 <= self.adv_ratio <= 1.0:
            raise ValueError("adv_ratio must be in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.select_k < 1 or self.select_k > self.n_clients:
            raise ValueError("select_k must be in 1..n_clients")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}; "
                             f"choose from {AGGREGATORS}")
        if self.trim_k < 0:
            raise ValueError("trim_k must be >= 0")
        if self.aggregator == TRIMMED_MEAN and self.select_k <= 2 * self.trim_k:
            raise ValueError(f"select_k={self.select_k} must exceed "
                             f"2*trim_k={2 * self.trim_k} for trimmed_mean")
        if self.partition not in (D.IID, D.LABEL_SKEW):
            raise ValueError(f"partition must be {D.IID!r} or {D.LABEL_SKEW!r}")
        if self.root_size < 1:
            raise ValueError("root_size must be >= 1")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round report: utility plus interpretability degradation.

    ``FIELDS`` are the ``rounds.csv`` columns; ``reference_accuracy`` is the
    reference model's test accuracy, reported as ``drift.csv``'s
    ``twin_accuracy`` rather than in ``rounds.csv``.
    """

    round: int
    adv_ratio: float
    accuracy: float
    fidelity_pct: float
    ssim_gc_mean: float
    ssim_gc_std: float
    ssim_gcpp_mean: float
    ssim_gcpp_std: float
    peak_pct_mean: float
    l1_mean: float
    reference_accuracy: float

    FIELDS = ("round", "adv_ratio", "accuracy", "fidelity_pct",
              "ssim_gc_mean", "ssim_gc_std", "ssim_gcpp_mean",
              "ssim_gcpp_std", "peak_pct_mean", "l1_mean")

    def as_row(self) -> tuple:
        return tuple(getattr(self, f) for f in self.FIELDS)


def _child_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _rows(client_weights) -> np.ndarray:
    """One float64 row per client: its weights flattened in list order."""
    shapes = [np.shape(w) for w in client_weights[0]]
    if any([np.shape(w) for w in ws] != shapes for ws in client_weights[1:]):
        raise ValueError("client updates have mismatched weight shapes")
    rows = np.empty((len(client_weights), sum(np.size(w) for w in client_weights[0])))
    for row, ws in zip(rows, client_weights):
        np.concatenate([np.ravel(w) for w in ws], out=row)  # widened as it is copied
    return rows


def _unflatten(flat: np.ndarray, like) -> list[np.ndarray]:
    """``flat`` cut back into the shapes and dtypes of the arrays ``like``."""
    out, off = [], 0
    for w in map(np.asarray, like):
        out.append(flat[off:off + w.size].reshape(w.shape).astype(w.dtype, copy=False))
        off += w.size
    return out


# ---------------------------------------------------------------- aggregators

def fedavg(updates: list[tuple[list[np.ndarray], int]]) -> list[np.ndarray]:
    """Sample-count weighted average of client weights."""
    if not updates:
        raise ValueError("fedavg needs at least one update")
    counts = np.array([n for _, n in updates], dtype=np.float64)
    if (counts <= 0).any():
        raise ValueError("client sample counts must be positive")
    rows = _rows([ws for ws, _ in updates])
    acc = np.zeros(rows.shape[1], dtype=np.float64)
    for row, n in zip(rows, counts):
        acc += row * n
    return _unflatten(acc / counts.sum(), updates[0][0])


def trimmed_mean(client_weights: list[list[np.ndarray]], trim_k: int) -> list[np.ndarray]:
    """Coordinate-wise mean after dropping the trim_k lowest and highest."""
    n = len(client_weights)
    if trim_k < 0:
        raise ValueError("trim_k must be >= 0")
    if 2 * trim_k >= n:
        raise ValueError(f"trim_k={trim_k} removes every one of {n} updates")
    rows = _rows(client_weights)
    rows.sort(axis=0)
    return _unflatten(rows[trim_k: n - trim_k].mean(axis=0), client_weights[0])


def median(client_weights: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Coordinate-wise median across client weights."""
    if not client_weights:
        raise ValueError("median needs at least one update")
    return _unflatten(np.median(_rows(client_weights), axis=0, overwrite_input=True),
                      client_weights[0])


def fltrust(global_weights, client_weights: list[list[np.ndarray]],
            server_weights) -> list[np.ndarray]:
    """Trust-weighted aggregation anchored to a server-trained update.

    Client deltas are cosine-scored against the server delta (negative scores
    clip to zero trust) and rescaled to the server delta's norm.  A zero
    server delta or zero total trust leaves the global model unchanged.
    """
    g = [np.asarray(w) for w in global_weights]
    flat_g, flat_server, *rows = _rows([g, server_weights, *client_weights])
    server_delta = flat_server - flat_g
    server_norm = float(np.linalg.norm(server_delta))
    if server_norm == 0.0:
        warnings.warn("fltrust: server update is zero; round skipped")
        return [w.copy() for w in g]
    agg = np.zeros_like(server_delta)
    total_trust = 0.0
    for delta in rows:
        delta -= flat_g
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            continue
        trust = max(0.0, float(delta @ server_delta) / (norm * server_norm))
        if trust == 0.0:
            continue
        agg += trust * (delta * (server_norm / norm))
        total_trust += trust
    if total_trust == 0.0:
        warnings.warn("fltrust: no client earned trust; round skipped")
        return [w.copy() for w in g]
    agg /= total_trust
    return _unflatten(flat_g + agg, g)


# ---------------------------------------------------------------- rounds

def select_clients(n_clients: int, k: int, seed: int, round_index: int) -> np.ndarray:
    """Uniform without-replacement selection, deterministic per (seed, round)."""
    if k > n_clients:
        raise ValueError(f"cannot select {k} of {n_clients} clients")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_SELECT, round_index)))
    return np.sort(rng.choice(n_clients, size=k, replace=False))


def assign_roles(n_clients: int, adv_ratio: float, seed: int) -> list[str]:
    """Mark round(adv_ratio * n) clients adversarial, chosen by seeded draw."""
    if not 0.0 <= adv_ratio <= 1.0:
        raise ValueError(f"adv_ratio must be in [0, 1], got {adv_ratio}")
    n_adv = int(round(adv_ratio * n_clients))
    rng = np.random.default_rng(np.random.SeedSequence((seed, _TAG_ROLES)))
    adv = set(rng.permutation(n_clients)[:n_adv].tolist())
    return [ADVERSARIAL if i in adv else BENIGN for i in range(n_clients)]


def run_round(spec: M.ModelSpec, global_weights, shards: list[D.LabeledDataset],
              adversaries, fl: FLConfig, grid: A.GridSpec, seed: int, round_index: int,
              server_root: D.LabeledDataset | None = None,
              pool: P.Workers | None = None) -> list[np.ndarray]:
    """One federated round; returns the new global weights.

    ``shards[cid]`` is client ``cid``'s dataset.  A selected client whose id
    is in ``adversaries`` re-poisons its shard with ``grid`` against the
    incoming global every round, so the attack tracks the model as it drifts.
    The shards are poisoned first, each by one map over ``pool``
    (:class:`parallel.Workers`); then the selected clients' local
    trainings, and FLTrust's server update last, run as one more map, each
    job with its shard and the global weights pickled to its worker.  None
    of them reads another's result, so the new weights do not depend on the
    worker count.  With no ``pool`` every map runs serially here.
    A non-finite aggregated weight raises ``FloatingPointError`` naming the
    round and the aggregator.
    """
    if fl.aggregator == FLTRUST and server_root is None:
        raise ValueError("fltrust aggregation needs a server_root dataset")
    selected = select_clients(len(shards), fl.select_k, seed, round_index)
    jobs = []  # (dataset, seed) of each local training, then the server's
    for cid in selected.tolist():
        shard = shards[cid]
        if cid in adversaries:
            shard, _ = A.poison_dataset(spec, global_weights, shard, grid, pool=pool)
        jobs.append((shard, _child_seed(seed, _TAG_LOCAL, round_index, cid)))
    if fl.aggregator == FLTRUST:
        jobs.append((server_root, _child_seed(seed, _TAG_SERVER, round_index)))
    trained = (pool or P.Workers()).map(
        functools.partial(_train_job, spec, global_weights, fl), jobs)
    if fl.aggregator == FEDAVG:
        new = fedavg([(w_i, len(shard)) for w_i, (shard, _) in zip(trained, jobs)])
    elif fl.aggregator == TRIMMED_MEAN:
        new = trimmed_mean(trained, fl.trim_k)
    elif fl.aggregator == MEDIAN:
        new = median(trained)
    else:  # FLTRUST: the server's update is the last one trained
        new = fltrust(global_weights, trained[:-1], trained[-1])
    if not all(np.isfinite(w).all() for w in new):
        raise FloatingPointError(
            f"round {round_index}: {fl.aggregator} aggregation gave non-finite weights")
    return new


def _train_job(spec: M.ModelSpec, weights, fl: FLConfig, job) -> list[np.ndarray]:
    """One local training of ``run_round``: ``job`` is (dataset, seed)."""
    dataset, seed = job
    return M.train(spec, weights, dataset, fl.local_epochs, lr=fl.lr, batch=fl.batch,
                   seed=seed)


def compute_round_metrics(spec: M.ModelSpec, reference_weights, current_weights,
                          probe_images, test: D.LabeledDataset, round_index: int = 0,
                          adv_ratio: float = 0.0,
                          n_maps: int | None = None) -> tuple[RoundMetrics, np.ndarray]:
    """Compare the current global against a reference on fixed probe images.

    CAMs on both models target the reference model's predicted class per
    probe image, so the metric isolates explanation movement from label
    movement.  Each model runs once over the probe (labels, Grad-CAM and
    Grad-CAM++ maps from one taped pass) and once over the test set, whose
    predictions give both accuracy and fidelity.

    When ``current_weights is reference_weights`` (a round both streams
    share), only what the report reads is computed: one test-set pass,
    whose accuracy is also the reference accuracy, and no Grad-CAM++, SSIM,
    peak overlap or L1.  The comparison columns take their identity values,
    1.0 / 0.0 SSIM mean / std, 100.0 fidelity and peak overlap and 0.0 L1,
    which are what scoring a finite stack against itself gives bit for bit.
    The probe runs only when maps are asked for: one pass over the whole
    probe, whose first rows give the maps, so a row's bits do not depend on
    ``n_maps``.

    Returns the metrics and the current model's Grad-CAMs of the first
    ``n_maps`` probe images (all of them when ``None``, at most the probe's
    length), each for the reference's predicted class, as a fresh
    ``(n, H, W)`` array.
    """
    probe = np.asarray(probe_images)
    n = len(probe) if n_maps is None else min(n_maps, len(probe))
    ref_preds = M.predict_labels(spec, reference_weights, test.images)
    if current_weights is reference_weights:
        cur_preds = ref_preds
        scores = {"ssim_gc_mean": 1.0, "ssim_gc_std": 0.0, "ssim_gcpp_mean": 1.0,
                  "ssim_gcpp_std": 0.0, "peak_pct_mean": 100.0, "l1_mean": 0.0}
        if n:
            _, g, acts = S.label_grads(spec, current_weights, probe)
            gc_cur = S.grad_cam_maps(g[:n], acts[:n], spec.input_size)
        else:
            gc_cur = np.empty((0, spec.input_size, spec.input_size))
    else:
        ref_labels, gc_ref, gpp_ref = S.predict_grad_cams(spec, reference_weights, probe)
        _, gc_cur, gpp_cur = S.predict_grad_cams(spec, current_weights, probe, ref_labels)
        cur_preds = M.predict_labels(spec, current_weights, test.images)
        ssim_gc, ssim_gpp = S.ssim(gc_ref, gc_cur), S.ssim(gpp_ref, gpp_cur)
        scores = {"ssim_gc_mean": float(ssim_gc.mean()), "ssim_gc_std": float(ssim_gc.std()),
                  "ssim_gcpp_mean": float(ssim_gpp.mean()),
                  "ssim_gcpp_std": float(ssim_gpp.std()),
                  "peak_pct_mean": float(S.peak_overlap(gc_ref, gc_cur).mean()),
                  "l1_mean": float(S.l1_distance(gc_ref, gc_cur).mean())}

    return RoundMetrics(
        round=round_index,
        adv_ratio=float(adv_ratio),
        accuracy=100.0 * M.hit_rate(cur_preds, test.labels),
        fidelity_pct=100.0 * M.hit_rate(ref_preds, cur_preds),
        reference_accuracy=100.0 * M.hit_rate(ref_preds, test.labels),
        **scores,
    ), gc_cur[:n].copy()


def _drift_points(series) -> tuple[np.ndarray, np.ndarray]:
    """The (r * t, drift) arrays of (round, adversary_ratio, drift) triples."""
    pts = [(float(t) * float(r), float(d)) for t, r, d in series]
    if not pts:
        raise ValueError("drift series is empty")
    return tuple(np.array(col, dtype=np.float64) for col in zip(*pts))


def fit_drift_slope(series) -> float:
    """Least-squares slope of drift ~ alpha * (r * t) through the origin.

    ``series`` holds (round, adversary_ratio, drift) triples.
    """
    x, d = _drift_points(series)
    denom = float((x * x).sum())
    if denom == 0.0:
        raise ValueError("drift series has no attacked rounds (all r*t are zero)")
    return float((x * d).sum() / denom)


def drift_r_squared(series, alpha: float) -> float:
    """Uncentered R^2 of the through-origin drift fit."""
    x, d = _drift_points(series)
    total = float((d * d).sum())
    if total == 0.0:
        return 1.0
    resid = d - alpha * x
    return 1.0 - float((resid * resid).sum()) / total
