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
        """Integration cutoff: the window is negligible beyond this."""
        return 6.0 * self.width if self.kind == "gaussian" else self.width
