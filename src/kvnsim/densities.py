"""Catalog initial phase-space densities with exact samplers.

These are product-form gaussians (and mixtures of them) in (q, p), used as
analytic initial conditions for the solvers and as exactly sampleable
distributions for the Monte Carlo oracle.  All are callables f(q, p) that
broadcast over coordinate arrays and expose their total mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GaussianDensity", "GaussianMixture", "CatalogDensity"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianDensity:
    """Product gaussian: mass * N(q; q0, sq) * N(p; p0, sp)."""

    q_center: float = 0.0
    p_center: float = 0.0
    q_sigma: float = 1.0
    p_sigma: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not self.q_sigma > 0:
            raise ValueError("q_sigma must be > 0")
        if not self.p_sigma > 0:
            raise ValueError("p_sigma must be > 0")
        if self.mass < 0:
            raise ValueError("mass must be >= 0")

    def __call__(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        gq = np.exp(-0.5 * ((q - self.q_center) / self.q_sigma) ** 2)
        gp = np.exp(-0.5 * ((p - self.p_center) / self.p_sigma) ** 2)
        norm = self.mass * _INV_SQRT_2PI**2 / (self.q_sigma * self.p_sigma)
        return norm * gq * gp

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. (q, p) samples as an (n, 2) array."""
        q = rng.normal(self.q_center, self.q_sigma, size=n)
        p = rng.normal(self.p_center, self.p_sigma, size=n)
        return np.column_stack([q, p])


@dataclass(frozen=True)
class GaussianMixture:
    """Convex mixture of product gaussians; weights need not be normalized."""

    components: tuple[GaussianDensity, ...]
    weights: tuple[float, ...]
    mass: float = field(init=False)

    def __post_init__(self):
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and equal length")
        for i, w in enumerate(self.weights):
            if w < 0:
                raise ValueError(f"weights[{i}] must be >= 0")
        total = sum(self.weights)
        if total <= 0:
            raise ValueError("weights must not all vanish")
        object.__setattr__(self, "weights", tuple(w / total for w in self.weights))
        object.__setattr__(
            self, "mass", float(sum(w * c.mass for w, c in zip(self.weights, self.components)))
        )

    def __call__(self, q, p):
        out = self.weights[0] * self.components[0](q, p)
        for w, c in zip(self.weights[1:], self.components[1:]):
            out = out + w * c(q, p)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # component masses scale sample weights so unit-mass mixtures sample exactly
        probs = np.array([w * c.mass for w, c in zip(self.weights, self.components)])
        probs = probs / probs.sum()
        counts = rng.multinomial(n, probs)
        parts = [c.sample(k, rng) for c, k in zip(self.components, counts) if k > 0]
        return np.concatenate(parts, axis=0)


CatalogDensity = GaussianDensity | GaussianMixture
