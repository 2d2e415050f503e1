"""Readers for the files the package writes, used by the tests to read
reports back: binary P6 PPM images (``color.write_ppm``) and the ``.cdwt``
weights container (``tensor.save_weights``).  They accept exactly what the
writers produce and assert on anything else."""

import struct

import numpy as np

from chromafl import tensor as T


def read_ppm(path) -> np.ndarray:
    """A binary P6 PPM with maxval 255 as an (H, W, 3) float32 image in [0,1]."""
    with open(path, "rb") as f:
        blob = f.read()
    # the header is three lines; a whitespace split could eat pixel bytes
    magic, dims, maxval, raw = blob.split(b"\n", 3)
    assert (magic, maxval) == (b"P6", b"255")
    w, h = map(int, dims.split())
    assert len(raw) == h * w * 3
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return img.astype(np.float32) / np.float32(255.0)


def load_weights(path) -> list[np.ndarray]:
    """The float32 tensors of a ``.cdwt`` container, in the layout
    ``tensor.save_weights`` documents."""
    with open(path, "rb") as f:
        blob = f.read()
    assert blob[:4] == T.WEIGHTS_MAGIC
    version, count = struct.unpack_from("<II", blob, 4)
    assert version == T.WEIGHTS_VERSION
    off = 12
    out = []
    for _ in range(count):
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank
        n = int(np.prod(dims))
        out.append(np.frombuffer(blob, dtype="<f4", count=n, offset=off)
                   .reshape(dims).astype(np.float32))
        off += 4 * n
    assert off == len(blob)
    return out
