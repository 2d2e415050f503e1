"""Label-preserving color attacks on saliency.

The grid attack enumerates a deterministic candidate list of color transforms
for each image, keeps only candidates the attacked model still classifies the
same way, and returns the feasible candidate whose Grad-CAM is least similar
(SSIM) to the original image's.  The identity transform is always candidate
zero, so the search can never make a sample infeasible: when nothing else
survives the prediction check, the image passes through untouched with the
fallback flag raised.  This module owns only the search: the grid, the
feasibility rule and the argmin.  The labels, gradients and Grad-CAM maps
come from :mod:`saliency` (``label_grads``, ``grad_cam_maps``).
``attack_images`` is the one map over images: it runs ``cpm_perturb`` once
per image, on a worker pool when given one.  Every command attacks its test
images through it, and a federated adversary poisons its shard through
``poison_dataset``, which is ``attack_images`` plus the dataset wrap.

The random skew baseline draws a hue/saturation/per-channel recolor at
comparable perceptual strength but with no model in the loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import color as C
from . import data as D
from . import models as M
from . import parallel as P
from . import saliency as S


@dataclass(frozen=True)
class GridSpec:
    """Candidate values for the color-transform search.

    ``candidates()`` renders these into an ordered list of parameter sets:
    identity first, then hue shifts, channel rescales (uniform, then
    single-channel when ``per_channel``), contrast jitters, and finally
    pairwise composites of the non-identity values (hue x rescale, hue x
    jitter, rescale x jitter) when ``composites`` is on.  A repeated
    parameter set keeps only its first place, and the list is truncated to
    ``max_candidates`` entries, identity always surviving.
    ``single_operator()`` gives the ablation's one-operator grids.
    """

    hue: tuple[float, ...] = (0.0, 0.05, -0.05, 0.10, -0.10, 0.15, -0.15)
    alpha: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2, 1.4)
    per_channel: bool = True
    gamma: tuple[float, ...] = (0.8, 1.0, 1.2)
    beta: tuple[float, ...] = (-0.1, 0.0, 0.1)
    composites: bool = True
    max_candidates: int = 500

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        for a in self.alpha:
            if not 0.5 <= a <= 1.5:
                raise ValueError(f"alpha grid value {a} outside [0.5, 1.5]")
        for g in self.gamma:
            if g <= 0:
                raise ValueError(f"gamma grid value {g} must be positive")

    def candidates(self) -> list[C.PerturbationParams]:
        hues = [d for d in self.hue if d != 0.0]
        alphas = [a for a in self.alpha if a != 1.0]
        jitters = [(g, b) for g in self.gamma for b in self.beta
                   if not (g == 1.0 and b == 0.0)]

        out: list[C.PerturbationParams] = [C.PerturbationParams()]
        for d in hues:
            out.append(C.PerturbationParams(delta=d))
        for a in alphas:
            out.append(C.PerturbationParams(alpha=(a, a, a)))
        if self.per_channel:
            for ch in range(3):
                for a in alphas:
                    alpha = tuple(a if c == ch else 1.0 for c in range(3))
                    out.append(C.PerturbationParams(alpha=alpha))
        for g, b in jitters:
            out.append(C.PerturbationParams(gamma=g, beta=b))
        if self.composites:
            for d in hues:
                for a in alphas:
                    out.append(C.PerturbationParams(delta=d, alpha=(a, a, a)))
            for d in hues:
                for g, b in jitters:
                    out.append(C.PerturbationParams(delta=d, gamma=g, beta=b))
            for a in alphas:
                for g, b in jitters:
                    out.append(C.PerturbationParams(alpha=(a, a, a), gamma=g, beta=b))

        return list(dict.fromkeys(out))[:self.max_candidates]

    def single_operator(self) -> dict[str, GridSpec]:
        """The ablation's one-operator grids by name: this grid with the other
        operators at identity and no composites."""
        return {"hue": replace(self, composites=False, alpha=(1.0,), gamma=(1.0,),
                               beta=(0.0,)),
                "rescale": replace(self, composites=False, hue=(0.0,), gamma=(1.0,),
                                   beta=(0.0,)),
                "jitter": replace(self, composites=False, hue=(0.0,), alpha=(1.0,))}


@dataclass(frozen=True)
class AttackOutcome:
    """What the grid search decided for one sample."""

    theta: C.PerturbationParams
    ssim: float
    delta_e: float
    fallback: bool
    n_feasible: int
    n_candidates: int
    label: int


def cpm_perturb(spec: M.ModelSpec, weights, x, grid: GridSpec
                ) -> tuple[np.ndarray, AttackOutcome]:
    """Find the feasible transform that most degrades the image's Grad-CAM.

    Feasible means the model's predicted class is unchanged.  Ties in SSIM
    resolve to the earlier candidate in grid order; since identity is always
    candidate zero and always feasible, the worst case returns the original
    image with ``fallback`` set.
    """
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ValueError(f"cpm_perturb takes one (H, W, 3) image, got shape {arr.shape}")
    thetas = grid.candidates()
    imgs = C.apply_each(thetas, arr)
    # one taped pass gives the labels and every candidate's Grad-CAM gradient
    labels, g, acts = S.label_grads(spec, weights, imgs)
    base_label = int(labels[0])  # candidate 0 is the untouched image
    feasible = np.flatnonzero(labels == base_label)  # starts with candidate 0
    # the rows are selected in the capture dtype: only these get widened, and
    # the whole stack's g and acts are not kept alive while they are
    g, acts = g[feasible], acts[feasible]
    cams = S.grad_cam_maps(g, acts, spec.input_size)
    scores = S.ssim(cams, cams[0])
    best_pos = int(np.argmin(scores))  # the first of equal minima
    best_idx = int(feasible[best_pos])
    # a copy, so the returned image does not pin the whole candidate stack
    out_img = imgs[best_idx].copy()
    outcome = AttackOutcome(
        theta=thetas[best_idx],
        ssim=float(scores[best_pos]),
        delta_e=C.mean_delta_e(arr, out_img),
        fallback=(len(feasible) == 1),
        n_feasible=int(len(feasible)),
        n_candidates=len(thetas),
        label=base_label,
    )
    return out_img, outcome


def attack_images(spec: M.ModelSpec, weights, images, grid: GridSpec,
                  pool: P.Workers | None = None) -> tuple[np.ndarray, list[AttackOutcome]]:
    """Run the grid attack on each image of an (N, H, W, 3) stack, in image
    blocks mapped over ``pool`` (:class:`parallel.Workers`; serially here
    without one); returns the perturbed stack and one outcome per image."""
    results = (pool or P.Workers()).map(functools.partial(_perturb, spec, weights, grid),
                                        images)
    return np.stack([x for x, _ in results]), [o for _, o in results]


def _perturb(spec: M.ModelSpec, weights, grid: GridSpec, x):
    """:func:`cpm_perturb` with the image last, for a map."""
    return cpm_perturb(spec, weights, x, grid)


def poison_dataset(spec: M.ModelSpec, weights, dataset: D.LabeledDataset, grid: GridSpec,
                   pool: P.Workers | None = None
                   ) -> tuple[D.LabeledDataset, list[AttackOutcome]]:
    """:func:`attack_images` over every image of ``dataset``; labels pass
    through untouched."""
    images, outcomes = attack_images(spec, weights, dataset.images, grid, pool)
    return D.LabeledDataset(images, dataset.labels.copy(), dataset.classes), outcomes


def summarize_outcomes(outcomes: list[AttackOutcome]) -> dict:
    """Aggregate stats the reports care about, under the names and in the
    column order of ``baseline``'s ``summary.csv``."""
    ssims = np.array([o.ssim for o in outcomes], dtype=np.float64)
    de = np.array([o.delta_e for o in outcomes], dtype=np.float64)
    fallbacks = np.array([o.fallback for o in outcomes])
    return {
        "n": len(outcomes),
        "ssim_mean": float(ssims.mean()),
        "ssim_std": float(ssims.std()),
        "frac_below_0.7": float((ssims < 0.7).mean()),
        "success_pct": float(100.0 * (~fallbacks).mean()),
        "delta_e_mean": float(de.mean()),
        "fallback_rate": float(fallbacks.mean()),
    }


# random skew draws: hue shift in turns, saturation and channel factors
SKEW_HUE = 1.0 / 12.0
SKEW_SAT = (0.5, 1.5)
SKEW_CHAN = (0.8, 1.2)


def random_skew(x, seed: int, scale: float = 1.0) -> np.ndarray:
    """Model-blind recolor: a random non-empty subset of hue shift,
    saturation scale, and per-channel rescale, applied in that order.
    Each operator returns a new array, so the result never aliases ``x``.

    ``scale`` shrinks every range (``SKEW_HUE``, ``SKEW_SAT``,
    ``SKEW_CHAN``) linearly toward the identity, which lets a caller match
    the perceptual strength of another attack.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    out = np.asarray(x)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CE11)))
    mask = int(rng.integers(1, 8))  # non-empty subset of three bits
    if mask & 1:
        out = C.hue_shift(out, float(rng.uniform(-SKEW_HUE, SKEW_HUE)) * scale)
    if mask & 2:
        out = C.saturation_scale(out, 1.0 + (float(rng.uniform(*SKEW_SAT)) - 1.0) * scale)
    if mask & 4:
        draws = rng.uniform(*SKEW_CHAN, size=3)
        out = C.channel_rescale(out, tuple(1.0 + (float(a) - 1.0) * scale for a in draws))
    return out
