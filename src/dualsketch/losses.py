"""Smooth convex margin losses, their gradients and Fenchel conjugates.

Three losses are supported:

- ``square``:          l(z) = (1 - z)^2 / 2
- ``logistic``:        l(z) = log(1 + exp(-z))
- ``smoothed_hinge``:  quadratic smoothing of the hinge with parameter mu:
                       0 for z >= 1, 1 - z - mu/2 for z <= 1 - mu,
                       (1 - z)^2 / (2 mu) in between.

Every loss carries a gradient-Lipschitz (smoothness) constant and the
interval on which its conjugate is finite; dual vectors produced by the
gradient always land inside that interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LossSpec", "square_loss", "logistic_loss", "smoothed_hinge_loss", "parse_loss"]

KINDS = ("square", "logistic", "smoothed_hinge")

# slack when testing membership of a dual value in the conjugate domain
DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class LossSpec:
    """A smooth convex loss with its conjugate and dual-domain metadata.

    Attributes
    ----------
    kind : str
        One of ``square``, ``logistic``, ``smoothed_hinge``.
    smoothing : float
        Smoothing parameter mu; only meaningful for ``smoothed_hinge``.
    gamma : float
        Smoothness constant (Lipschitz constant of the gradient).
    dual_domain : tuple
        Closed interval on which the conjugate is evaluated; gradients of
        the loss always lie inside it.
    """

    kind: str
    smoothing: float = 1.0
    gamma: float = field(init=False)
    dual_domain: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {KINDS}")
        if not 0 < self.smoothing < np.inf:
            raise ValueError("smoothing parameter must be positive and finite")
        if self.kind == "square":
            gamma, domain = 1.0, (-np.inf, np.inf)
        elif self.kind == "logistic":
            gamma, domain = 0.25, (-1.0, 0.0)
        else:
            gamma, domain = 1.0 / self.smoothing, (-1.0, 0.0)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "dual_domain", domain)

    def value(self, z):
        """Loss value, elementwise over arrays, overflow-safe."""
        z = np.asarray(z, dtype=float)
        if self.kind == "square":
            return 0.5 * (1.0 - z) ** 2
        if self.kind == "logistic":
            return np.logaddexp(0.0, -z)
        mu = self.smoothing
        mid = (1.0 - z) ** 2 / (2.0 * mu)
        out = np.where(z >= 1.0, 0.0, np.where(z <= 1.0 - mu, 1.0 - z - mu / 2.0, mid))
        return out if out.ndim else float(out)

    def grad(self, z):
        """Exact derivative of :meth:`value`, elementwise."""
        z = np.asarray(z, dtype=float)
        if self.kind == "square":
            return z - 1.0
        if self.kind == "logistic":
            with np.errstate(over="ignore"):  # e^z = inf gives the limit -0
                return -1.0 / (1.0 + np.exp(z))
        mu = self.smoothing
        out = np.where(z >= 1.0, 0.0, np.where(z <= 1.0 - mu, -1.0, (z - 1.0) / mu))
        return out if out.ndim else float(out)

    def curvature(self, z):
        """Second derivative (generalized at kinks); used by Newton solvers."""
        z = np.asarray(z, dtype=float)
        if self.kind == "square":
            return np.ones_like(z)
        if self.kind == "logistic":
            with np.errstate(over="ignore"):  # e^-z = inf gives the limit 0
                s = 1.0 / (1.0 + np.exp(-z))
            return s * (1.0 - s)
        mu = self.smoothing
        out = np.where((z < 1.0) & (z > 1.0 - mu), 1.0 / mu, 0.0)
        return out if out.ndim else float(out)

    def conjugate(self, alpha):
        """Fenchel conjugate l*(alpha); rejects alpha outside the dual domain."""
        alpha = np.asarray(alpha, dtype=float)
        if not self.in_dual_domain(alpha):
            lo, hi = self.dual_domain
            raise ValueError(
                f"dual value outside conjugate domain [{lo}, {hi}] of {self.kind} loss"
            )
        if self.kind == "square":
            return alpha + alpha**2 / 2.0
        if self.kind == "logistic":
            # clip absorbs roundoff at the endpoints
            a = np.clip(alpha, -1.0, 0.0)
            return _xlogx(-a) + _xlogx(1.0 + a)
        return alpha + self.smoothing * alpha**2 / 2.0

    def in_dual_domain(self, alpha) -> bool:
        alpha = np.asarray(alpha, dtype=float)
        lo, hi = self.dual_domain
        return bool(np.all(alpha >= lo - DOMAIN_TOL) and np.all(alpha <= hi + DOMAIN_TOL))

    def label(self) -> str:
        """Inverse of :func:`parse_loss`."""
        if self.kind == "smoothed_hinge":
            return f"smoothed_hinge:{self.smoothing:g}"
        return self.kind


def _xlogx(x):
    """x log x, elementwise, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(x))


def square_loss() -> LossSpec:
    return LossSpec("square")


def logistic_loss() -> LossSpec:
    return LossSpec("logistic")


def smoothed_hinge_loss(mu: float = 1.0) -> LossSpec:
    return LossSpec("smoothed_hinge", smoothing=mu)


def parse_loss(text: str) -> LossSpec:
    """Parse a loss selector: ``square``, ``logistic`` or ``smoothed_hinge:<mu>``."""
    text = text.strip()
    if text in ("square", "logistic"):
        return LossSpec(text)
    if text == "smoothed_hinge":
        return LossSpec("smoothed_hinge")
    if text.startswith("smoothed_hinge:"):
        raw = text.split(":", 1)[1]
        try:
            mu = float(raw)
        except ValueError:
            raise ValueError(f"bad smoothing parameter {raw!r} in loss selector") from None
        return LossSpec("smoothed_hinge", smoothing=mu)
    raise ValueError(
        f"unknown loss {text!r}; expected square | logistic | smoothed_hinge:<mu>"
    )
