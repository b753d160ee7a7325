"""A from-scratch numpy deep-learning framework (the Darknet substitute).

Implements everything the paper's prototype takes from Darknet: convolution,
max/average pooling, dropout, dense, softmax and cost layers; mini-batch SGD
with momentum and backpropagation; Gaussian weight initialization; a
Darknet-style ``.cfg`` parser; and the exact Table I / Table II CIFAR-10
architectures in :mod:`repro.nn.zoo`.

Data layout is NHWC (batch, height, width, channels), matching the paper's
``width x height / stride`` table notation.
"""

from repro.nn.config import network_from_config, network_to_config
from repro.nn.initializers import gaussian_init
from repro.nn.layers import (
    AvgPoolLayer,
    BatchNormLayer,
    ConvLayer,
    CostLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    Layer,
    MaxPoolLayer,
    ResidualBlockLayer,
    SoftmaxLayer,
)
from repro.nn.network import Network
from repro.nn.optimizers import Optimizer, PerExampleDpSgd, Sgd
from repro.nn.privacy import RdpAccountant, dp_sgd_epsilon
from repro.nn.pruning import apply_masks, prune_by_magnitude, sparsity
from repro.nn.zoo import cifar10_10layer, cifar10_18layer, face_recognition_net, tiny_testnet

__all__ = [
    "Layer",
    "ConvLayer",
    "MaxPoolLayer",
    "AvgPoolLayer",
    "DropoutLayer",
    "DenseLayer",
    "FlattenLayer",
    "BatchNormLayer",
    "ResidualBlockLayer",
    "SoftmaxLayer",
    "CostLayer",
    "Network",
    "Optimizer",
    "Sgd",
    "PerExampleDpSgd",
    "RdpAccountant",
    "dp_sgd_epsilon",
    "prune_by_magnitude",
    "apply_masks",
    "sparsity",
    "gaussian_init",
    "network_from_config",
    "network_to_config",
    "cifar10_10layer",
    "cifar10_18layer",
    "face_recognition_net",
    "tiny_testnet",
]
