"""Spiking convolutional network engine with unsupervised plasticity.

Pipeline: retina-style latency encoding -> spiking convolution with lateral
inhibition, winner-take-all competition, and homeostasis -> pooling ->
classifier heads, plus the diagnostic experiments (pattern-in-noise learning,
reward-modulated head sensitivity, sequential-task forgetting, kernel
reconstruction) and a CLI that drives all of it from a JSON config.
"""

__version__ = "0.1.0"

from .core import ConvKernel, InhibitionConfig, init_kernel, load_kernel, save_kernel
from .encode import SpikeTensor, encode_dataset, load_idx_images
from .heads import FcnHead, FeatureMatrix, RstdpHead
from .train import ConvPipeline, TrainPlan, extract_features, train_conv_layer

__all__ = [
    "ConvKernel", "InhibitionConfig", "init_kernel", "load_kernel", "save_kernel",
    "SpikeTensor", "encode_dataset", "load_idx_images",
    "FcnHead", "FeatureMatrix", "RstdpHead",
    "ConvPipeline", "TrainPlan", "extract_features", "train_conv_layer",
    "__version__",
]
