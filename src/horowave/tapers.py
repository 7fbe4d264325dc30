"""Taper (cutoff) windows used for conditionally convergent horocycle integrals."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TaperSpec"]

_KINDS = ("gaussian", "cosine", "hard")


@dataclass(frozen=True)
class TaperSpec:
    """Even, non-increasing window with value 1 at the origin.

    gaussian: exp(-s^2 / (2 width^2)); cosine: raised cosine on
    [-width, width]; hard: indicator of [-width, width].
    """

    kind: str
    width: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown taper kind {self.kind!r}, expected one of {_KINDS}")
        if not self.width > 0:
            raise ValueError("taper width must be positive")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (s / self.width) ** 2)
        if self.kind == "cosine":
            inside = np.abs(s) <= self.width
            return np.where(inside, np.cos(0.5 * np.pi * s / self.width) ** 2, 0.0)
        return (np.abs(s) <= self.width).astype(float)

    @property
    def support_radius(self) -> float:
        """Integration cutoff: 7 width for the Gaussian, width for the compact kinds.

        Beyond 7 width the Gaussian holds erfc(7 / sqrt 2) = 2.6e-12 of its
        integral width * sqrt(2 pi), so the cut moves a tapered integral of
        f by at most 6.4e-12 width max|f| there; for the phi line integrals
        of ``moire`` it is at most 2.3e-12 (against mpmath at lambda in
        {0.5, 2, 7.5} and width in {4, 12, 96}, ``tests/data/moire_refs.json``).
        """
        return 7.0 * self.width if self.kind == "gaussian" else self.width
