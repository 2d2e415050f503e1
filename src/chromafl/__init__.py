"""chromafl: federated learning on small CNNs plus color-space attacks on saliency.

The package is organized bottom-up:

* :mod:`chromafl.tensor` -- dense tensors with reverse-mode differentiation.
* :mod:`chromafl.models` -- the two small CNN architectures and training loop.
* :mod:`chromafl.color` -- HSV color operators, CIEDE2000, PPM export.
* :mod:`chromafl.saliency` -- Grad-CAM and Grad-CAM++ plus map-comparison metrics.
* :mod:`chromafl.data` -- CIFAR-10 binary I/O, synthetic shapes, partitioning.
* :mod:`chromafl.attack` -- grid-search color perturbation of training data.
* :mod:`chromafl.federated` -- rounds, aggregators, saliency-drift metrics.
* :mod:`chromafl.harness` / :mod:`chromafl.cli` -- experiment drivers.

Importing any part of the package pins glibc's allocator thresholds (see
:func:`_pin_malloc_thresholds`).  This module imports no numpy, so that
:mod:`chromafl.cli` can still set the BLAS thread variables before numpy loads.
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds(libc=None) -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    These are the values glibc's dynamic rule reaches after one 32 MiB free.
    Left dynamic, they stay low until some pass frees a large array, and
    until then every training step maps, faults in and unmaps its buffers
    afresh; pinned, speed no longer depends on which array was freed first.
    Without a C library or a ``mallopt`` (not glibc) this does nothing.
    No report byte depends on it.
    """
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()
