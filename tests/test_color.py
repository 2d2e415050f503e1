"""Color operator and CIEDE2000 checks.

The CIEDE2000 expectations are the published verification pairs (Sharma,
Wu & Dalal); the package implementation must hit them to 1e-4, and must also
agree with an independently coded scalar reference on random Lab inputs.
HSV conversions are checked against the standard library's colorsys.
"""

import colorsys
import math

import numpy as np
import pytest

from chromafl import color as C
from readers import read_ppm


# ---------------------------------------------------------------- HSV

def test_hsv_roundtrip_within_1e6():
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 1, size=(16, 16, 3))
    back = C.hsv_to_rgb(C._rgb_to_hsv64(img))
    assert np.abs(back - img).max() < 1e-6


def test_hsv_roundtrip_float32_pipeline():
    rng = np.random.default_rng(12)
    img = rng.uniform(0, 1, size=(8, 8, 3)).astype(np.float32)
    back = C.hue_shift(img, 0.0)  # RGB -> float64 HSV -> RGB, cast back
    assert back.dtype == np.float32
    assert np.abs(back.astype(np.float64) - img).max() < 1e-6


def test_rgb_to_hsv_matches_colorsys():
    rng = np.random.default_rng(13)
    pix = rng.uniform(0, 1, size=(50, 3))
    ours = C._rgb_to_hsv64(pix)
    for k in range(50):
        h, s, v = colorsys.rgb_to_hsv(*pix[k])
        assert ours[k] == pytest.approx((h, s, v), abs=1e-12)


def test_hsv_to_rgb_matches_colorsys():
    rng = np.random.default_rng(14)
    hsv = rng.uniform(0, 1, size=(50, 3))
    ours = C.hsv_to_rgb(hsv)
    for k in range(50):
        assert ours[k] == pytest.approx(colorsys.hsv_to_rgb(*hsv[k]), abs=1e-12)


def test_achromatic_pixels_have_zero_hue():
    grays = np.stack([np.full(3, v) for v in (0.0, 0.25, 1.0)])
    hsv = C._rgb_to_hsv64(grays)
    assert np.array_equal(hsv[:, 0], np.zeros(3))
    assert np.array_equal(hsv[:, 1], np.zeros(3))


def test_out_of_range_input_is_clamped():
    assert np.array_equal(C._rgb_to_hsv64(np.array([1.2, -0.1, 0.5])),
                          C._rgb_to_hsv64(np.array([1.0, 0.0, 0.5])))


# ---------------------------------------------------------------- operators

def test_hue_shift_zero_is_identity_within_1e6():
    rng = np.random.default_rng(15)
    img = rng.uniform(0, 1, size=(8, 8, 3))
    assert np.abs(C.hue_shift(img, 0.0) - img).max() < 1e-6


def test_hue_shift_rotates_primaries():
    red = np.array([1.0, 0.0, 0.0])
    assert C.hue_shift(red, 1.0 / 3.0) == pytest.approx([0, 1, 0], abs=1e-6)
    assert C.hue_shift(red, 0.5) == pytest.approx([0, 1, 1], abs=1e-6)
    assert C.hue_shift(red, 1.0) == pytest.approx([1, 0, 0], abs=1e-6)


def test_hue_shift_composes_additively():
    rng = np.random.default_rng(16)
    img = rng.uniform(0, 1, size=(6, 6, 3))
    once = C.hue_shift(img, 0.35)
    twice = C.hue_shift(C.hue_shift(img, 0.15), 0.20)
    assert np.abs(once - twice).max() < 1e-6



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hue_shift_of_many_deltas_stacks_the_single_shifts_bytes(dtype):
    rng = np.random.default_rng(17)
    img = rng.uniform(0, 1, size=(9, 7, 3)).astype(dtype)
    img[0, 0] = 0.5  # achromatic
    img[0, 1] = [1.2, -0.1, 0.3]  # clamped on the way in
    deltas = [0.05, -0.05, 0.1, -0.1, 0.15, -0.15, 0.0, 1.25]
    want = np.stack([C.hue_shift(img, d) for d in deltas])
    for given in (deltas, np.array(deltas)):
        got = C.hue_shift(img, given)
        assert got.dtype == want.dtype and got.shape == (len(deltas), 9, 7, 3)
        assert got.tobytes() == want.tobytes()
    assert C.hue_shift(img, [0.1])[0].tobytes() == C.hue_shift(img, 0.1).tobytes()
    pixel = np.array([1.0, 0.0, 0.0])
    assert C.hue_shift(pixel, [0.0, 0.5]).tolist() == [[1.0, 0.0, 0.0],
                                                       C.hue_shift(pixel, 0.5).tolist()]
    with pytest.raises(ValueError, match="1-D"):
        C.hue_shift(img, [[0.1]])


def test_operators_read_an_integer_image_as_float64():
    img = np.ones((2, 2, 3), np.uint8)
    ops = [C.hsv_to_rgb, lambda x: C.hue_shift(x, 0.1),
           lambda x: C.saturation_scale(x, 0.5),
           lambda x: C.channel_rescale(x, (0.8,) * 3),
           lambda x: C.contrast_jitter(x, 1.0, -0.2)]
    for op in ops:
        got, want = op(img), op(img.astype(np.float64))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert np.allclose(C.channel_rescale(img, (0.8,) * 3), 0.8)


def test_channel_rescale_arithmetic_and_clipping():
    x = np.array([[[0.8, 0.5, 0.2]]])
    out = C.channel_rescale(x, (1.5, 1.0, 0.5))
    assert np.allclose(out, [[[1.0, 0.5, 0.1]]])


def test_channel_rescale_rejects_out_of_range_alpha():
    x = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match=r"\[0.5, 1.5\]"):
        C.channel_rescale(x, (0.4, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"\[0.5, 1.5\]"):
        C.channel_rescale(x, (1.0, 1.6, 1.0))
    with pytest.raises(ValueError, match=r"alpha must have three entries, got shape \(2,\)"):
        C.channel_rescale(x, (1.0, 1.0))
    with pytest.raises(ValueError, match=r"trailing RGB axis of size 3, got shape \(2, 2, 4\)"):
        C.channel_rescale(np.zeros((2, 2, 4)), (1.0, 1.0, 1.0))


def test_contrast_jitter_formula():
    x = np.array([[[0.4, 0.5, 0.6]]])  # mean is 0.5
    assert np.allclose(C.contrast_jitter(x, 2.0, 0.0), [[[0.3, 0.5, 0.7]]])
    assert np.allclose(C.contrast_jitter(x, 1.0, 0.1), [[[0.5, 0.6, 0.7]]])
    assert np.allclose(C.contrast_jitter(x, 4.0, 0.0), [[[0.1, 0.5, 0.9]]])


def test_contrast_jitter_clamps_and_validates():
    x = np.array([[[0.1, 0.5, 0.9]]])
    out = C.contrast_jitter(x, 3.0, 0.0)
    assert out.min() >= 0.0 and out.max() <= 1.0
    with pytest.raises(ValueError, match="positive"):
        C.contrast_jitter(x, 0.0, 0.1)


def test_apply_identity_is_exact():
    rng = np.random.default_rng(17)
    img = rng.uniform(0, 1, size=(8, 8, 3)).astype(np.float32)
    out = C.apply(C.PerturbationParams(), img)
    assert np.array_equal(out, img)
    assert out is not img  # fresh array, no aliasing into datasets


def test_apply_single_operator_matches_that_operator():
    rng = np.random.default_rng(18)
    img = rng.uniform(0, 1, size=(8, 8, 3))
    th = C.PerturbationParams(delta=0.1)
    assert np.array_equal(C.apply(th, img), C.hue_shift(img, 0.1))
    th = C.PerturbationParams(alpha=(0.8, 1.0, 1.2))
    assert np.array_equal(C.apply(th, img), C.channel_rescale(img, (0.8, 1.0, 1.2)))
    th = C.PerturbationParams(gamma=1.2, beta=-0.1)
    assert np.array_equal(C.apply(th, img), C.contrast_jitter(img, 1.2, -0.1))


def test_apply_composes_in_fixed_order():
    rng = np.random.default_rng(19)
    img = rng.uniform(0, 1, size=(8, 8, 3))
    th = C.PerturbationParams(delta=0.08, alpha=(1.2, 0.9, 1.0), gamma=1.1, beta=0.05)
    manual = C.contrast_jitter(
        C.channel_rescale(C.hue_shift(img, 0.08), (1.2, 0.9, 1.0)), 1.1, 0.05)
    assert np.array_equal(C.apply(th, img), manual)


def test_apply_rejects_out_of_range_params():
    img = np.full((4, 4, 3), 0.5)
    with pytest.raises(ValueError, match="channel scales"):
        C.apply(C.PerturbationParams(alpha=(0.3, 1.0, 1.0)), img)
    with pytest.raises(ValueError, match="gamma"):
        C.apply(C.PerturbationParams(gamma=-1.0), img)


def test_saturation_scale_desaturates_to_gray():
    img = np.array([[[0.9, 0.3, 0.1]]])
    out = C.saturation_scale(img, 0.0)
    assert out[0, 0, 0] == pytest.approx(out[0, 0, 1], abs=1e-12)
    assert out[0, 0, 1] == pytest.approx(out[0, 0, 2], abs=1e-12)
    assert np.array_equal(C.saturation_scale(img, 1.0), np.clip(
        C.hsv_to_rgb(C._rgb_to_hsv64(img)), 0, 1))
    with pytest.raises(ValueError, match="saturation factor must be non-negative, got -0.5"):
        C.saturation_scale(img, -0.5)


# ---------------------------------------------------------------- CIEDE2000

def ciede2000_ref(L1, a1, b1, L2, a2, b2):
    """Scalar CIEDE2000 written independently from the package version."""
    C1 = math.hypot(a1, b1)
    C2 = math.hypot(a2, b2)
    Cbar = 0.5 * (C1 + C2)
    G = 0.5 * (1.0 - math.sqrt(Cbar ** 7 / (Cbar ** 7 + 25.0 ** 7)))
    a1p, a2p = (1 + G) * a1, (1 + G) * a2
    C1p, C2p = math.hypot(a1p, b1), math.hypot(a2p, b2)

    def hdeg(a, b):
        if a == 0 and b == 0:
            return 0.0
        h = math.degrees(math.atan2(b, a))
        return h + 360.0 if h < 0 else h

    h1p, h2p = hdeg(a1p, b1), hdeg(a2p, b2)
    dLp = L2 - L1
    dCp = C2p - C1p
    if C1p * C2p == 0:
        dhp = 0.0
    elif abs(h2p - h1p) <= 180:
        dhp = h2p - h1p
    elif h2p - h1p > 180:
        dhp = h2p - h1p - 360.0
    else:
        dhp = h2p - h1p + 360.0
    dHp = 2.0 * math.sqrt(C1p * C2p) * math.sin(math.radians(dhp) / 2.0)
    Lbp = 0.5 * (L1 + L2)
    Cbp = 0.5 * (C1p + C2p)
    if C1p * C2p == 0:
        hbp = h1p + h2p
    elif abs(h1p - h2p) <= 180:
        hbp = 0.5 * (h1p + h2p)
    elif h1p + h2p < 360:
        hbp = 0.5 * (h1p + h2p + 360.0)
    else:
        hbp = 0.5 * (h1p + h2p - 360.0)

    def cosd(d):
        return math.cos(math.radians(d))

    T = (1 - 0.17 * cosd(hbp - 30) + 0.24 * cosd(2 * hbp)
         + 0.32 * cosd(3 * hbp + 6) - 0.20 * cosd(4 * hbp - 63))
    dtheta = 30.0 * math.exp(-(((hbp - 275.0) / 25.0) ** 2))
    RC = 2.0 * math.sqrt(Cbp ** 7 / (Cbp ** 7 + 25.0 ** 7))
    SL = 1 + 0.015 * (Lbp - 50) ** 2 / math.sqrt(20 + (Lbp - 50) ** 2)
    SC = 1 + 0.045 * Cbp
    SH = 1 + 0.015 * Cbp * T
    RT = -math.sin(math.radians(2 * dtheta)) * RC
    return math.sqrt((dLp / SL) ** 2 + (dCp / SC) ** 2 + (dHp / SH) ** 2
                     + RT * (dCp / SC) * (dHp / SH))


# Published verification pairs: (L1, a1, b1, L2, a2, b2, dE2000).
CIEDE2000_PAIRS = [
    (50.0, 2.6772, -79.7751, 50.0, 0.0, -82.7485, 2.0425),
    (50.0, 3.1571, -77.2803, 50.0, 0.0, -82.7485, 2.8615),
    (50.0, 2.8361, -74.0200, 50.0, 0.0, -82.7485, 3.4412),
    (50.0, -1.3802, -84.2814, 50.0, 0.0, -82.7485, 1.0000),
    (50.0, -1.1848, -84.8006, 50.0, 0.0, -82.7485, 1.0000),
    (50.0, -0.9009, -85.5211, 50.0, 0.0, -82.7485, 1.0000),
    (50.0, 0.0, 0.0, 50.0, -1.0, 2.0, 2.3669),
    (50.0, -1.0, 2.0, 50.0, 0.0, 0.0, 2.3669),
    (50.0, 2.49, -0.001, 50.0, -2.49, 0.0009, 7.1792),
    (50.0, 2.49, -0.001, 50.0, -2.49, 0.0010, 7.1792),
    (50.0, 2.49, -0.001, 50.0, -2.49, 0.0011, 7.2195),
    (50.0, 2.49, -0.001, 50.0, -2.49, 0.0012, 7.2195),
    (50.0, -0.001, 2.49, 50.0, 0.0009, -2.49, 4.8045),
    (50.0, -0.001, 2.49, 50.0, 0.0010, -2.49, 4.8045),
    (50.0, -0.001, 2.49, 50.0, 0.0011, -2.49, 4.7461),
    (50.0, 2.5, 0.0, 50.0, 0.0, -2.5, 4.3065),
    (50.0, 2.5, 0.0, 73.0, 25.0, -18.0, 27.1492),
    (50.0, 2.5, 0.0, 61.0, -5.0, 29.0, 22.8977),
    (50.0, 2.5, 0.0, 56.0, -27.0, -3.0, 31.9030),
    (50.0, 2.5, 0.0, 58.0, 24.0, 15.0, 19.4535),
    (50.0, 2.5, 0.0, 50.0, 3.1736, 0.5854, 1.0000),
    (50.0, 2.5, 0.0, 50.0, 3.2972, 0.0, 1.0000),
    (50.0, 2.5, 0.0, 50.0, 1.8634, 0.5757, 1.0000),
    (50.0, 2.5, 0.0, 50.0, 3.2592, 0.3350, 1.0000),
    (60.2574, -34.0099, 36.2677, 60.4626, -34.1751, 39.4387, 1.2644),
    (63.0109, -31.0961, -5.8663, 62.8187, -29.7946, -4.0864, 1.2630),
    (61.2901, 3.7196, -5.3901, 61.4292, 2.2480, -4.9620, 1.8731),
    (35.0831, -44.1164, 3.7933, 35.0232, -40.0716, 1.5901, 1.8645),
    (22.7233, 20.0904, -46.6940, 23.0331, 14.9730, -42.5619, 2.0373),
    (36.4612, 47.8580, 18.3852, 36.2715, 50.5065, 21.2231, 1.4146),
    (90.8027, -2.0831, 1.4410, 91.1528, -1.6435, 0.0447, 1.4441),
    (90.9257, -0.5406, -0.9208, 88.6381, -0.8985, -0.7239, 1.5381),
    (6.7747, -0.2908, -2.4247, 5.8714, -0.0985, -2.2286, 0.6377),
    (2.0776, 0.0795, -1.1350, 0.9033, -0.0636, -0.5514, 0.9082),
]


@pytest.mark.parametrize("pair", CIEDE2000_PAIRS, ids=range(1, 35))
def test_ciede2000_published_pairs(pair):
    L1, a1, b1, L2, a2, b2, expected = pair
    got = float(C.delta_e2000_lab(np.array([L1, a1, b1]), np.array([L2, a2, b2])))
    assert got == pytest.approx(expected, abs=1e-4)
    assert ciede2000_ref(L1, a1, b1, L2, a2, b2) == pytest.approx(expected, abs=1e-4)


def test_ciede2000_matches_scalar_reference_on_random_lab():
    rng = np.random.default_rng(20)
    for _ in range(200):
        l1, l2 = rng.uniform(0, 100, 2)
        a1, a2 = rng.uniform(-90, 90, 2)
        b1, b2 = rng.uniform(-90, 90, 2)
        ref = ciede2000_ref(l1, a1, b1, l2, a2, b2)
        got = float(C.delta_e2000_lab(np.array([l1, a1, b1]), np.array([l2, a2, b2])))
        assert got == pytest.approx(ref, abs=1e-9)


def test_ciede2000_identity_and_symmetry():
    rng = np.random.default_rng(21)
    lab1 = C.srgb_to_lab(rng.uniform(0, 1, size=3))
    lab2 = C.srgb_to_lab(rng.uniform(0, 1, size=3))
    assert C.delta_e2000_lab(lab1, lab1) == 0.0
    assert C.delta_e2000_lab(lab1, lab2) == pytest.approx(
        C.delta_e2000_lab(lab2, lab1), abs=1e-9)


def test_srgb_to_lab_white_and_black():
    lab_white = C.srgb_to_lab(np.ones(3))
    assert lab_white[0] == pytest.approx(100.0, abs=1e-3)
    assert abs(lab_white[1]) < 0.01 and abs(lab_white[2]) < 0.01
    assert C.srgb_to_lab(np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_mean_delta_e_reduces_to_scalar_on_constant_images():
    a = np.full((4, 4, 3), 0.3)
    b = np.full((4, 4, 3), 0.6)
    assert C.mean_delta_e(a, a) == 0.0
    assert C.mean_delta_e(a, b) == pytest.approx(C.delta_e2000_lab(
        C.srgb_to_lab(np.full(3, 0.3)), C.srgb_to_lab(np.full(3, 0.6))), abs=1e-9)


def test_mean_delta_e_shape_mismatch():
    with pytest.raises(ValueError, match="differ"):
        C.mean_delta_e(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))


# ---------------------------------------------------------------- PPM

def test_quantize_rounds_half_up():
    # 127.5/255 must round to 128, not banker's 127 (wait: half-up -> 128).
    assert C.quantize_u8(np.array([127.5 / 255.0]))[0] == 128
    assert C.quantize_u8(np.array([0.5 / 255.0]))[0] == 1
    assert C.quantize_u8(np.array([0.0]))[0] == 0
    assert C.quantize_u8(np.array([1.0]))[0] == 255
    assert C.quantize_u8(np.array([2.0]))[0] == 255  # clamps first


def test_ppm_roundtrip_bytes_are_stable(tmp_path):
    rng = np.random.default_rng(22)
    img = rng.uniform(0, 1, size=(5, 7, 3)).astype(np.float32)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    C.write_ppm(p1, img)
    decoded = read_ppm(p1)
    C.write_ppm(p2, decoded)
    assert p1.read_bytes() == p2.read_bytes()
    # decoded values survive a second decode exactly
    assert np.array_equal(read_ppm(p2), decoded)


def test_ppm_header_and_errors(tmp_path):
    img = np.zeros((3, 4, 3))
    path = tmp_path / "z.ppm"
    C.write_ppm(path, img)
    assert path.read_bytes() == b"P6\n4 3\n255\n" + b"\x00" * 36
    for bad in (np.zeros((2, 3, 4, 3)), np.zeros((3, 4, 4))):
        with pytest.raises(ValueError, match="PPM export expects"):
            C.write_ppm(tmp_path / "bad.ppm", bad)
