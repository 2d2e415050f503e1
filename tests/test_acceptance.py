"""Release acceptance gate: twelve numbered criteria, one verdict line each.

Every criterion is a bounded check against either an independent oracle
(gradients, map metrics, aggregators) or a frozen experiment configuration
whose behavior the package must reproduce run over run.  The experiment
configs here are deliberately small -- shapes at 16 or 32 pixels, a
2,000-record CIFAR-format subset -- so the whole gate runs on one core in a
few minutes, but each criterion states its own wall-clock budget and the
tests enforce it.

Criterion verdicts are collected on the pytest config and printed as a
summary block by tests/conftest.py.
"""

import os
import time

import numpy as np
import pytest

import chromafl.data as D
import chromafl.federated as F
import chromafl.harness as H
import chromafl.saliency as S
import chromafl.tensor as T
from chromafl.config import parse_config

import test_color as color_oracles
import test_saliency as map_oracles
import test_tensor as grad_oracles


# ------------------------------------------------------------- bookkeeping


def _verdict(request, num, ok, detail):
    lines = getattr(request.config, "_criterion_lines", None)
    if lines is None:
        lines = []
        request.config._criterion_lines = lines
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    lines.append(line)
    print(line)
    assert ok, line


def _strip_comments(path):
    with open(path, "rb") as fh:
        return b"\n".join(ln for ln in fh.read().split(b"\n")
                          if not ln.startswith(b"#"))


# ------------------------------------------------------- frozen experiment
# configs; calibrated once, then fixed.  Changing any value here invalidates
# the recorded margins in the project notes.

FL_SEEDS = (0, 1, 2)
ADV_RATIOS = (0.0, 0.1, 0.3, 0.5)
ROUNDS = 15
CHECKPOINTS = (5, 10, 15)


def _fl_doc(seed, adv_ratio, out):
    return {
        "dataset": {"kind": "shapes", "n_train": 480, "n_test": 180,
                    "classes": 6, "size": 16},
        "train": {"epochs": 3, "lr": 0.05},
        "fl": {"n_clients": 10, "select_k": 5, "local_epochs": 2,
               "rounds": ROUNDS, "adv_ratio": adv_ratio,
               "aggregator": "fedavg", "lr": 0.05, "pretrain_epochs": 3,
               "trim_k": 1, "root_size": 32},
        "grid": {"hue": [0.0, 0.08, -0.08, 0.15, -0.15],
                 "alpha": [0.85, 1.15], "per_channel": False,
                 "gamma": [1.0], "beta": [0.0], "composites": True},
        "metrics": {"probe_size": 64, "heatmap_dumps": 0},
        "seed": seed, "out": out,
    }


def _baseline_doc(out, **grid):
    doc = {
        "dataset": {"kind": "shapes", "n_train": 480, "n_test": 120,
                    "classes": 6, "size": 32},
        "train": {"epochs": 3, "lr": 0.05},
        "attack": {"n_samples": 64},
        "metrics": {"heatmap_dumps": 2},
        "seed": 0, "out": out,
    }
    if grid:
        doc["grid"] = grid
    return doc


def _cifar_doc(fixture_dir, out):
    return {
        "dataset": {"kind": "cifar10", "path": fixture_dir,
                    "n_train": 2000, "n_test": 200},
        "train": {"epochs": 3, "lr": 0.05},
        "attack": {"n_samples": 64},
        "metrics": {"heatmap_dumps": 0},
        "seed": 0, "out": out,
    }


def _compare_doc(out):
    return {
        "dataset": {"kind": "shapes", "n_train": 480, "n_test": 240,
                    "classes": 6, "size": 16},
        "train": {"epochs": 3, "lr": 0.05},
        "grid": {"hue": [0.0, 0.04, -0.04, 0.07, -0.07],
                 "alpha": [0.92, 1.08], "per_channel": False,
                 "gamma": [1.0], "beta": [0.0], "composites": True},
        "attack": {"compare_samples": 200, "delta_e_tol": 2.0},
        "seed": 0, "out": out,
    }


def _ablation_doc(out):
    # default grid: full operator ranges, pairwise composites
    return {
        "dataset": {"kind": "shapes", "n_train": 480, "n_test": 120,
                    "classes": 6, "size": 32},
        "train": {"epochs": 3, "lr": 0.05},
        "attack": {"n_samples": 64},
        "metrics": {"heatmap_dumps": 0},
        "seed": 0, "out": out,
    }


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def fl_sweep(outroot):
    """cmd_fl for every (seed, adversarial ratio); shared by criteria 5-7."""
    t0 = time.time()
    runs = {}
    for seed in FL_SEEDS:
        for r in ADV_RATIOS:
            out = str(outroot / f"fl_s{seed}_r{int(r * 10)}")
            runs[(seed, r)] = H.cmd_fl(parse_config(_fl_doc(seed, r, out)))
    return {"runs": runs, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def shapes_baseline(outroot):
    t0 = time.time()
    rep = H.cmd_baseline(parse_config(_baseline_doc(str(outroot / "base"))))
    return {"report": rep, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def identity_baseline(outroot):
    doc = _baseline_doc(str(outroot / "base_id"),
                        hue=[0.0], alpha=[1.0], per_channel=False,
                        gamma=[1.0], beta=[0.0], composites=False)
    return H.cmd_baseline(parse_config(doc))


@pytest.fixture(scope="session")
def cifar_fixture_dir(outroot):
    """Synthetic 32x32 records in the CIFAR-10 binary batch layout."""
    d = outroot / "cifar_records"
    d.mkdir()
    ds = D.generate_shapes(2300, size=32, classes=10, seed=777)
    D.write_cifar10(str(d / "data_batch_1.bin"), ds)
    return str(d)


@pytest.fixture(scope="session")
def cifar_baseline(outroot, cifar_fixture_dir):
    t0 = time.time()
    doc = _cifar_doc(cifar_fixture_dir, str(outroot / "base_cifar"))
    rep = H.cmd_baseline(parse_config(doc))
    return {"report": rep, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def compare_report(outroot):
    return H.cmd_compare(parse_config(_compare_doc(str(outroot / "cmp"))))


@pytest.fixture(scope="session")
def ablation_report(outroot):
    return H.cmd_ablation(parse_config(_ablation_doc(str(outroot / "abl"))))


@pytest.fixture(scope="session")
def robust_report(outroot):
    t0 = time.time()
    rep = H.cmd_robust(parse_config(_fl_doc(0, 0.5, str(outroot / "rob"))))
    return {"report": rep, "elapsed": time.time() - t0}


# ------------------------------------------------- 1: gradient correctness


def test_criterion_01_finite_difference_gradients(request):
    """Every differentiable primitive vs central differences, 20 cases each."""
    t0 = time.time()
    h, rel = 1e-4, 1e-3
    fd = grad_oracles.finite_diff
    close = grad_oracles.rel_close
    failures = []

    def check(name, seed, got, f, x):
        if not close(got, fd(f, x, h=h), rel=rel):
            failures.append(f"{name}[{seed}]")

    for seed in range(20):
        rng = np.random.default_rng(9_000 + seed)

        # conv2d: gradients w.r.t. input, kernel and bias
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2)) * 0.5
        b = rng.normal(size=2) * 0.1
        labels = rng.integers(0, 2, size=1)

        def conv_loss(xv, wv, bv):
            out = T.global_avg_pool(None, T.conv2d(
                None, T.Tensor(xv), T.Tensor(wv), T.Tensor(bv)))
            return T.softmax_cross_entropy(None, out, labels).item()

        tape = T.Tape()
        tx, tw, tb = T.Tensor(x), T.Tensor(w), T.Tensor(b)
        loss = T.softmax_cross_entropy(
            tape, T.global_avg_pool(tape, T.conv2d(tape, tx, tw, tb)), labels)
        gx, gw, gb = tape.gradients(loss, [tx, tw, tb])
        check("conv2d/x", seed, gx, lambda v: conv_loss(v, w, b), x)
        check("conv2d/w", seed, gw, lambda v: conv_loss(x, v, b), w)
        check("conv2d/b", seed, gb, lambda v: conv_loss(x, w, v), b)

        # dense + softmax cross-entropy
        xd = rng.normal(size=(2, 5))
        wd = rng.normal(size=(5, 3)) * 0.5
        bd = rng.normal(size=3) * 0.1
        ld = rng.integers(0, 3, size=2)

        def dense_loss(xv, wv, bv):
            out = T.dense(None, T.Tensor(xv), T.Tensor(wv), T.Tensor(bv))
            return T.softmax_cross_entropy(None, out, ld).item()

        tape = T.Tape()
        tx, tw, tb = T.Tensor(xd), T.Tensor(wd), T.Tensor(bd)
        loss = T.softmax_cross_entropy(tape, T.dense(tape, tx, tw, tb), ld)
        gx, gw, gb = tape.gradients(loss, [tx, tw, tb])
        check("dense/x", seed, gx, lambda v: dense_loss(v, wd, bd), xd)
        check("dense/w", seed, gw, lambda v: dense_loss(xd, v, bd), wd)
        check("softmax_xent/b", seed, gb, lambda v: dense_loss(xd, wd, v), bd)

        # relu -> maxpool2 chain (inputs nudged off the kinks)
        xr = grad_oracles.nudged(rng, (1, 4, 4, 2))
        wr = rng.normal(size=(2 * 2 * 2, 3)) * 0.3
        br = rng.normal(size=3) * 0.1
        lr = rng.integers(0, 3, size=1)

        def pool_loss(xv):
            hmap = T.maxpool2(None, T.relu(None, T.Tensor(xv)))
            out = T.dense(None, hmap, T.Tensor(wr), T.Tensor(br))
            return T.softmax_cross_entropy(None, out, lr).item()

        tape = T.Tape()
        tx = T.Tensor(xr)
        hmap = T.maxpool2(tape, T.relu(tape, tx))
        loss = T.softmax_cross_entropy(
            tape, T.dense(tape, hmap, T.Tensor(wr), T.Tensor(br)), lr)
        check("relu+maxpool2/x", seed, T.grad_wrt(tape, loss, tx),
              pool_loss, xr)

        # global_avg_pool -> class_score head
        xg = rng.normal(size=(2, 4, 4, 3))
        ids = rng.integers(0, 3, size=2)

        def score(xv):
            pooled = T.global_avg_pool(None, T.Tensor(xv))
            return T.class_score(None, pooled, ids).item()

        tape = T.Tape()
        tx = T.Tensor(xg)
        out = T.class_score(tape, T.global_avg_pool(tape, tx), ids)
        check("gap+class_score/x", seed, T.grad_wrt(tape, out, tx), score, xg)

    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _verdict(request, 1, ok,
             f"7 primitives x 20 instances, h={h}, rel={rel}; "
             f"failures={failures or 'none'}; {elapsed:.1f}s (<60s)")


# ------------------------------------------------------- 2: metric oracles


def test_criterion_02_metric_oracles(request):
    rng = np.random.default_rng(4242)

    # SSIM vs brute-force sliding window on 50 random pairs
    worst_ssim = 0.0
    for _ in range(50):
        h, w = int(rng.integers(11, 20)), int(rng.integers(11, 20))
        a = rng.uniform(0, 1, size=(h, w))
        b = rng.uniform(0, 1, size=(h, w))
        diff = abs(float(S.ssim(a, b)) - map_oracles.ssim_bruteforce(a, b))
        worst_ssim = max(worst_ssim, diff)

    # L1 and peak overlap vs naive loops
    l1_ok, peak_ok = True, True
    for _ in range(20):
        a = rng.uniform(0, 1, size=(12, 12))
        b = rng.uniform(0, 1, size=(12, 12))
        naive = sum(abs(a[y, x] - b[y, x])
                    for y in range(12) for x in range(12)) / 144.0
        l1_ok &= abs(float(S.l1_distance(a, b)) - naive) <= 1e-12
        k = int(np.floor(0.1 * a.size + 0.5))
        expect = 100.0 * len(map_oracles.topk_bruteforce(a, k)
                             & map_oracles.topk_bruteforce(b, k)) / k
        peak_ok &= float(S.peak_overlap(a, b, 0.1)) == expect

    # CIEDE2000 vs an independently coded scalar reference
    worst_de = 0.0
    for _ in range(10):
        l1v, l2v = rng.uniform(0, 100, size=2)
        a1, a2, b1, b2 = rng.uniform(-80, 80, size=4)
        ref = color_oracles.ciede2000_ref(l1v, a1, b1, l2v, a2, b2)
        got = float(color_oracles.C.delta_e2000_lab(
            np.array([l1v, a1, b1]), np.array([l2v, a2, b2])))
        worst_de = max(worst_de, abs(got - ref))

    ok = worst_ssim <= 1e-6 and l1_ok and peak_ok and worst_de <= 1e-4
    _verdict(request, 2, ok,
             f"ssim max|err|={worst_ssim:.2e} (<=1e-6) on 50 pairs; "
             f"l1 exact={l1_ok}; peak exact={peak_ok}; "
             f"dE00 max|err|={worst_de:.2e} (<=1e-4) on 10 pairs")


# ------------------------------------------- 3: prediction preservation


def test_criterion_03_prediction_preservation(request, shapes_baseline,
                                              cifar_baseline):
    s_acc = shapes_baseline["report"]["summary"]["attack_acc_pct"]
    c_acc = cifar_baseline["report"]["summary"]["attack_acc_pct"]
    elapsed = shapes_baseline["elapsed"] + cifar_baseline["elapsed"]
    ok = s_acc == 100.0 and c_acc == 100.0 and elapsed < 600
    _verdict(request, 3, ok,
             f"preserved: shapes {s_acc:.1f}%, cifar-subset {c_acc:.1f}% "
             f"(both ==100.0 exactly); {elapsed:.0f}s (<600s)")


# ------------------------------------------- 4: saliency degradation


def test_criterion_04_saliency_degradation(request, shapes_baseline,
                                           identity_baseline):
    s = shapes_baseline["report"]["summary"]
    ident = identity_baseline["summary"]["ssim_mean"]
    elapsed = shapes_baseline["elapsed"]
    ok = (ident == 1.0 and s["ssim_mean"] < 0.85 and s["ssim_mean"] < ident
          and s["frac_below_0.7"] >= 0.20 and elapsed < 600)
    _verdict(request, 4, ok,
             f"mean ssim={s['ssim_mean']:.3f} (<0.85, < identity {ident:.1f}); "
             f"frac<0.7={s['frac_below_0.7']:.2f} (>=0.20); "
             f"{elapsed:.0f}s (<600s)")


# ------------------------------------------------- 5: clean-run exactness


def test_criterion_05_clean_rounds_are_exact(request, fl_sweep):
    bad = []
    for seed in FL_SEEDS:
        rep = fl_sweep["runs"][(seed, 0.0)]
        for m in rep["rounds"]:
            if not (m.ssim_gc_mean == 1.0 and m.ssim_gcpp_mean == 1.0
                    and m.peak_pct_mean == 100.0 and m.l1_mean == 0.0):
                bad.append((seed, m.round))
        rows = [ln.split(",") for ln in
                _strip_comments(rep["rounds_csv"]).decode().splitlines()][1:]
        for row in rows:
            if (row[4] != "1.000000000" or row[8] != "100.000000000"
                    or row[9] != "0.000000000"):
                bad.append((seed, "csv", row[0]))
    ok = not bad
    _verdict(request, 5, ok,
             f"r=0, {len(FL_SEEDS)} seeds x {ROUNDS} rounds: ssim=1.000, "
             f"peak=100.0, l1=0.00 exactly; violations={bad or 'none'}")


# ------------------------------------------------- 6: drift accumulation


def test_criterion_06_drift_accumulation(request, fl_sweep):
    runs = fl_sweep["runs"]

    def mean_drift(r):
        per_seed = [[row[2] for row in runs[(s, r)]["drift"]]
                    for s in FL_SEEDS]
        return np.mean(per_seed, axis=0)

    by_r = {r: mean_drift(r) for r in ADV_RATIOS}
    final = [by_r[r][ROUNDS - 1] for r in ADV_RATIOS]
    r_monotone = all(final[i] <= final[i + 1] for i in range(len(final) - 1))
    cps = [by_r[0.5][t - 1] for t in CHECKPOINTS]
    t_monotone = all(cps[i] <= cps[i + 1] for i in range(len(cps) - 1))

    series = [(t, r, by_r[r][t - 1])
              for r in ADV_RATIOS for t in range(1, ROUNDS + 1)]
    alpha = F.fit_drift_slope(series)
    r2 = F.drift_r_squared(series, alpha)

    elapsed = fl_sweep["elapsed"]
    ok = (r_monotone and t_monotone and r2 >= 0.6 and elapsed < 1800)
    _verdict(request, 6, ok,
             f"drift@T={ROUNDS} by r: "
             + "/".join(f"{v:.3f}" for v in final)
             + f" nondecr={r_monotone}; r=0.5 @{CHECKPOINTS}: "
             + "/".join(f"{v:.3f}" for v in cps)
             + f" nondecr={t_monotone}; fit alpha={alpha:.4f} "
             f"R2={r2:.3f} (>=0.6); {elapsed:.0f}s (<1800s)")


# ------------------------------------------- 7: accuracy under attack


def test_criterion_07_accuracy_preserved_under_attack(request, fl_sweep):
    runs = fl_sweep["runs"]
    gaps = {}
    for r in ADV_RATIOS:
        acc = np.mean([runs[(s, r)]["drift"][-1][3] for s in FL_SEEDS])
        twin = np.mean([runs[(s, r)]["drift"][-1][4] for s in FL_SEEDS])
        gaps[r] = abs(acc - twin)
    ok = all(g <= 3.0 for g in gaps.values())
    _verdict(request, 7, ok,
             "final-round |attacked - twin| accuracy by r: "
             + ", ".join(f"r={r}: {g:.2f}" for r, g in gaps.items())
             + " (all <=3.0 points)")


# ------------------------------------------------- 8: random-skew contrast


def test_criterion_08_random_skew_contrast(request, compare_report):
    cpm = compare_report["cpm"]
    full = compare_report["skew_full"]
    matched = compare_report["skew_matched"]
    n = compare_report["rows"][0][2]
    de_gap = abs(matched["delta_e_mean"] - cpm["delta_e_mean"])
    ok = (n == 200 and cpm["flips"] == 0 and full["flips"] >= 1
          and de_gap <= 2.0 and cpm["ssim_mean"] < matched["ssim_mean"])
    _verdict(request, 8, ok,
             f"n={n}: cpm flips={cpm['flips']} (==0), "
             f"skew flips={full['flips']} (>=1); matched dE gap="
             f"{de_gap:.2f} (<=2.0); cpm ssim={cpm['ssim_mean']:.3f} < "
             f"skew ssim={matched['ssim_mean']:.3f}")


# ------------------------------------------------- 9: operator ablation


def test_criterion_09_operator_ablation(request, ablation_report):
    rows = {r[0]: {"ssim": r[2], "success": r[3]}
            for r in ablation_report["rows"]}
    combined = rows.pop("combined")
    singles_ok = all(v["success"] <= 100.0 for v in rows.values())
    dominated = all(combined["ssim"] <= v["ssim"] for v in rows.values())
    strict = any(combined["ssim"] < v["ssim"] for v in rows.values())
    ok = (combined["success"] == 100.0 and singles_ok and dominated
          and strict)
    _verdict(request, 9, ok,
             f"combined ssim={combined['ssim']:.3f} success="
             f"{combined['success']:.0f}%; singles "
             + ", ".join(f"{k}={v['ssim']:.3f}" for k, v in rows.items())
             + f"; dominated={dominated} strict={strict}")


# ------------------------------------------- 10: robust aggregation


def test_criterion_10_robust_aggregation_persistence(request, robust_report):
    rows = {r[0]: r for r in robust_report["report"]["rows"]}
    fedavg_ssim = rows["fedavg"][3]
    accs = [r[1] for r in rows.values()]
    spread = max(accs) - min(accs)
    robust = {k: rows[k][3] for k in ("trimmed_mean", "median", "fltrust")}
    above = all(v > fedavg_ssim for v in robust.values())
    below_one = all(v < 1.0 for v in robust.values())
    elapsed = robust_report["elapsed"]
    ok = above and below_one and spread <= 5.0 and elapsed < 2700
    _verdict(request, 10, ok,
             f"r=0.5 final ssim: fedavg={fedavg_ssim:.4f}, "
             + ", ".join(f"{k}={v:.4f}" for k, v in robust.items())
             + f" (each >fedavg and <1.0); acc spread={spread:.2f} (<=5); "
             f"{elapsed:.0f}s (<2700s)")


# ------------------------------------------- 11: aggregator equivalences


def test_criterion_11_aggregator_oracles(request):
    rng = np.random.default_rng(1234)
    shapes = [(3, 4), (6,), (2, 2, 2)]
    stacks = [[rng.normal(size=s) for s in shapes] for _ in range(5)]

    # trim_k=0 equals unweighted averaging
    trim0 = F.trimmed_mean(stacks, 0)
    plain = F.fedavg([(ws, 1) for ws in stacks])
    trim0_gap = max(float(np.abs(a - b).max()) for a, b in zip(trim0, plain))

    # coordinate-wise loop oracles over the 5 client stacks
    exact = True
    got_med = F.median(stacks)
    got_trim = F.trimmed_mean(stacks, 1)
    got_avg = F.fedavg(list(zip(stacks, [2, 3, 1, 5, 4])))
    for li, shape in enumerate(shapes):
        vals = np.stack([ws[li] for ws in stacks])
        flat = vals.reshape(5, -1)
        med = np.empty(flat.shape[1])
        trim = np.empty(flat.shape[1])
        avg = np.empty(flat.shape[1])
        for j in range(flat.shape[1]):
            col = np.sort(flat[:, j])
            med[j] = col[2]
            trim[j] = col[1:4].mean()
            avg[j] = sum(w * flat[i, j] for i, w in
                         enumerate([2, 3, 1, 5, 4])) / 15.0
        exact &= bool(np.array_equal(got_med[li].reshape(-1), med))
        exact &= bool(np.array_equal(got_trim[li].reshape(-1), trim))
        exact &= bool(np.allclose(got_avg[li].reshape(-1), avg,
                                  rtol=0, atol=1e-12))

    # fltrust against its closed definition on random vectors
    g = [rng.normal(size=s) for s in shapes]
    server = [w + rng.normal(size=w.shape) * 0.1 for w in g]
    clients = [[w + rng.normal(size=w.shape) * 0.1 for w in g]
               for _ in range(5)]
    got_ft = F.fltrust(g, clients, server)
    flat_g = np.concatenate([w.ravel() for w in g])
    sd = np.concatenate([w.ravel() for w in server]) - flat_g
    sn = float(np.linalg.norm(sd))
    agg = np.zeros_like(sd)
    total = 0.0
    for ws in clients:
        delta = np.concatenate([w.ravel() for w in ws]) - flat_g
        norm = float(np.linalg.norm(delta))
        trust = max(0.0, float(delta @ sd) / (norm * sn))
        agg += trust * (delta * (sn / norm))
        total += trust
    want = flat_g + agg / total
    ft_gap = float(np.abs(np.concatenate([w.ravel() for w in got_ft])
                          - want).max())

    ok = trim0_gap <= 1e-9 and exact and ft_gap <= 1e-12
    _verdict(request, 11, ok,
             f"trim0 vs fedavg max|diff|={trim0_gap:.2e} (<=1e-9); "
             f"median/trim/avg loop oracles exact={exact}; "
             f"fltrust max|diff|={ft_gap:.2e}")


# ------------------------------------------------- 12: reproducibility


def test_criterion_12_reruns_are_byte_identical(request, outroot,
                                                shapes_baseline, fl_sweep):
    base2 = H.cmd_baseline(parse_config(_baseline_doc(str(outroot / "base2"))))
    fl2 = H.cmd_fl(parse_config(_fl_doc(0, 0.5, str(outroot / "fl2"))))
    first_fl = fl_sweep["runs"][(0, 0.5)]
    first_base = shapes_baseline["report"]

    pairs = [(first_base["samples_csv"], base2["samples_csv"]),
             (first_base["summary_csv"], base2["summary_csv"]),
             (first_fl["rounds_csv"], fl2["rounds_csv"]),
             (first_fl["drift_csv"], fl2["drift_csv"]),
             (first_fl["summary_csv"], fl2["summary_csv"])]
    mismatched = [os.path.basename(a) for a, b in pairs
                  if _strip_comments(a) != _strip_comments(b)]
    ok = not mismatched
    _verdict(request, 12, ok,
             f"re-ran baseline and fl with identical config+seed: "
             f"{len(pairs)} CSVs byte-identical (timestamp excluded); "
             f"mismatches={mismatched or 'none'}")
