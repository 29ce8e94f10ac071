"""Finite real Fourier series in one and two variables.

All model data (conformal factor, magnetic intensity, abstract curvature
profiles) is carried as truncated Fourier series so that derivatives and
integrals are exact, with no finite-difference noise anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class FourierSeries2D:
    """f(x, y) = const + sum over modes (m, n) of a*cos(w) + b*sin(w),
    with w = 2*pi*(m*x/Lx + n*y/Ly).

    ``cos_coeffs`` and ``sin_coeffs`` map (m, n) integer pairs to real
    amplitudes. The (0, 0) mode lives in ``const``. The tables are read
    into ``modes`` at the first evaluation and must not change after it.
    """

    Lx: float = 1.0
    Ly: float = 1.0
    const: float = 0.0
    cos_coeffs: dict = field(default_factory=dict)
    sin_coeffs: dict = field(default_factory=dict)

    @cached_property
    def modes(self):
        """(m, n, a, b) per mode, with a and b the cos and sin amplitudes."""
        return tuple((m, n, self.cos_coeffs.get((m, n), 0.0),
                      self.sin_coeffs.get((m, n), 0.0))
                     for (m, n) in set(self.cos_coeffs) | set(self.sin_coeffs))

    def jet(self, x, y):
        """(f, df/dx, df/dy, laplacian f) at (x, y) from one cos/sin pass;
        scalars and arrays alike."""
        zero = 0.0 * (np.asarray(x) + np.asarray(y))
        val, fx, fy, lap = self.const + zero, zero, zero, zero
        for m, n, a, b in self.modes:
            w = 2.0 * np.pi * (m * x / self.Lx + n * y / self.Ly)
            c, s = np.cos(w), np.sin(w)
            val = val + a * c + b * s
            d = -a * s + b * c
            fx = fx + 2.0 * np.pi * m / self.Lx * d
            fy = fy + 2.0 * np.pi * n / self.Ly * d
            w2 = (2.0 * np.pi) ** 2 * ((m / self.Lx) ** 2 + (n / self.Ly) ** 2)
            lap = lap - w2 * (a * c + b * s)
        return val, fx, fy, lap

    def __call__(self, x, y):
        return self.jet(x, y)[0]

    def scaled(self, c: float) -> "FourierSeries2D":
        """The series c * f, every amplitude multiplied by c."""
        return FourierSeries2D(
            Lx=self.Lx, Ly=self.Ly, const=c * self.const,
            cos_coeffs={k: c * v for k, v in self.cos_coeffs.items()},
            sin_coeffs={k: c * v for k, v in self.sin_coeffs.items()},
        )

    @property
    def max_mode(self):
        return max((max(abs(m), abs(n)) for m, n, _a, _b in self.modes), default=0)


@dataclass(frozen=True)
class FourierSeries1D:
    """f(t) = const + sum over j>=1 of a_j*cos(j*omega*t) + b_j*sin(j*omega*t).

    The tables are read into ``harmonics`` at the first evaluation and
    must not change after it.
    """

    const: float = 0.0
    omega: float = 1.0
    cos_coeffs: dict = field(default_factory=dict)
    sin_coeffs: dict = field(default_factory=dict)

    @cached_property
    def harmonics(self):
        """(j, a, b) per harmonic, with a and b the cos and sin amplitudes."""
        return tuple((j, self.cos_coeffs.get(j, 0.0), self.sin_coeffs.get(j, 0.0))
                     for j in set(self.cos_coeffs) | set(self.sin_coeffs))

    @property
    def bounds(self) -> tuple:
        """A certified (lower, upper) pair with lower <= f(t) <= upper for
        every t: const -/+ sum_j hypot(a_j, b_j). Each harmonic
        a cos + b sin reaches exactly -/+ hypot(a, b), so the pair is exact
        per harmonic, and shifting or reflecting the series keeps it."""
        spread = sum(math.hypot(a, b) for _j, a, b in self.harmonics)
        return self.const - spread, self.const + spread

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.const + 0.0 * t
        for j, a, b in self.harmonics:
            w = j * self.omega * t
            out = out + a * np.cos(w) + b * np.sin(w)
        return out

    def at(self, ts) -> list:
        """f at each time of the list ts, as a list of floats: ``__call__``'s
        sums in its order, with ``math.cos`` and ``math.sin`` in place of
        numpy's, which read the same doubles. An infinite argument, where
        ``math`` raises and numpy reads NaN, is read by ``__call__``."""
        cos, sin = math.cos, math.sin
        out = [self.const + 0.0 * t for t in ts]
        try:
            for j, a, b in self.harmonics:
                jw = j * self.omega
                out = [v + a * cos(jw * t) + b * sin(jw * t) for v, t in zip(out, ts)]
        except ValueError:
            return self(ts).tolist()
        return out

    def shifted(self, t0):
        """The series t -> f(t0 + t), again as a finite Fourier series."""
        cos_out, sin_out = {}, {}
        for j, a, b in self.harmonics:
            c, s = math.cos(j * self.omega * t0), math.sin(j * self.omega * t0)
            # cos(w + jw0) and sin(w + jw0) expanded
            cos_out[j] = a * c + b * s
            sin_out[j] = -a * s + b * c
        return FourierSeries1D(self.const, self.omega, cos_out, sin_out)

    def reflected(self):
        """The series t -> f(-t)."""
        sin_out = {j: -b for j, b in self.sin_coeffs.items()}
        return FourierSeries1D(self.const, self.omega, dict(self.cos_coeffs), sin_out)
