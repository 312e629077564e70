"""Canonical table blocks by one scan per right node; imports nothing from balex.

The amplifier's block for a right node z is the first Delta distinct left
neighbors of z over every edge label, ascending, repeated cyclically when
fewer exist (and then flagged as padded).  ``pref`` holds the truncated
image of edge (x, y) at index ``(x << d) | y``.
"""

import numpy as np


def block(pref: np.ndarray, d: int, z: int, Delta: int) -> tuple[list[int], bool]:
    xs = sorted({int(e) >> d for e in np.flatnonzero(pref == z)})
    return [xs[j % len(xs)] for j in range(Delta)], len(xs) < Delta


def amplified(pref: np.ndarray, d: int, x: int, Delta: int):
    """Elements, segment labels and padded labels of the two-step list of x."""
    labels = [int(pref[(x << d) | y]) for y in range(1 << d)]
    blocks = [block(pref, d, z, Delta) for z in labels]
    elements = [e for b, _ in blocks for e in b]
    return elements, labels, [y for y, (_, padded) in enumerate(blocks) if padded]
