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
"""

__version__ = "0.1.0"
