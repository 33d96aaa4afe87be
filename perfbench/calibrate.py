"""A fixed pure-Python workload that measures how fast the machine runs
right now.

The machine's speed drifts by tens of percent over a few seconds when other
tenants load the host, and that drift moves every timing alike. The runner
times this loop next to every op and scales the op's time by
`REFERENCE_S / calibration time`, which takes most of the drift out while
leaving the program's own speed in. The loop imitates the program's
interpreter-bound work: deep copies of a tree of small objects, recursive
`isinstance` dispatch, string keys and exact `Fraction` arithmetic. It uses
no code of the program, so a change to the program never moves it; changing
it redefines every scaled metric.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# median time of `calibrate()` on the machine the benchmark was defined on
# (2-vCPU x86_64 VM at 2.1 GHz, CPython 3.11); scaled times are in its ms
REFERENCE_S = 0.015


@dataclass
class _Node:
    op: str
    left: object
    right: object


def _build(depth, i):
    if depth == 0:
        return Fraction(i % 7 + 1, 3)
    return _Node("+-*"[i % 3], _build(depth - 1, 2 * i),
                 _build(depth - 1, 2 * i + 1))


def _eval(node):
    if isinstance(node, Fraction):
        return node
    left, right = _eval(node.left), _eval(node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    product = left * right
    return product if abs(product) < 1000 else left


def _key(node):
    if isinstance(node, Fraction):
        return str(node)
    return f"({node.op} {_key(node.left)} {_key(node.right)})"


_TREE = _build(10, 1)


def calibrate():
    """Seconds one pass of the loop takes now."""
    t0 = perf_counter()
    tree = copy.deepcopy(_TREE)
    _eval(tree)
    _key(tree)
    return perf_counter() - t0
