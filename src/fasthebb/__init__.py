"""Hebbian deep-learning toolkit.

Soft winner-takes-all and Hebbian-PCA update rules in both a naive reference
form and a fused-matmul form that contracts the batch index early, plus
convolutional layers via patch extraction, a semi-supervised pretrain/probe
pipeline, and a benchmark harness for the naive-vs-fast comparison.
"""

__version__ = "0.1.0"
