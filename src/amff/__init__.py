"""Multi-scale feature fusion and multi-task quality scoring toolkit.

Library plus CLI for training and evaluating a three-task quality model
on pre-extracted encoder features: adaptive fusion of three scale
features, two regression heads, a text/image similarity score, fidelity
and MSE losses with hand-derived gradients, and the full
SRCC/PLCC/KRCC evaluation protocol.  The package exports what the
README's library sketch uses; everything else lives in its module.
"""

from .dataio import split_random, synth_generate
from .tensor import make_rng
from .trainer import TrainConfig, evaluate_model, train

__version__ = "0.1.0"
