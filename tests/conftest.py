"""Shared test helpers."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, kv

from multiboson import coherent as ch


def _erratum_weight(al: float):
    """The printed radial weight, both indices one above the shipped one:
    rho^al K_al(2 rho) / (2 pi Gamma(al)), 0 for rho <= 0; in log space
    where the direct product is not finite (0 * inf near rho = 0 from al
    near 60 on)."""
    den = math.pi * math.exp(gammaln(al))

    def positive(r):
        with np.errstate(over="ignore", invalid="ignore"):
            out = 0.5 * r ** al * kv(al, 2.0 * r) / den
        bad = ~np.isfinite(out)
        out[bad] = np.exp(math.log(0.5 / math.pi) - gammaln(al) + al * np.log(r[bad])
                          + ch._ln_bessel_k(al, 2.0 * r[bad]))
        return out
    return lambda rho: ch._where_positive(rho, positive)


def _erratum_moment_ratios(al: float, k_max: int) -> np.ndarray:
    """Moments k = 0..k_max of the printed weight over their targets
    k! (al)_k, as one vector integral by ``coherent._integrate`` on the
    substitution the shipped weight's moments use (rho = t^m,
    m = max(2, 1 / al))."""
    k = np.arange(1.0, k_max + 1)
    step = k * (al + k - 1.0)    # target_k / target_{k-1}
    m = max(2.0, 1.0 / al)
    weight = _erratum_weight(al)

    def f(t):
        rho = t ** m
        cols = np.empty((t.size, k_max + 1))
        cols[:, 0] = 2.0 * math.pi * m * rho * rho / t * weight(rho)
        cols[:, 1:] = (rho * rho)[:, None] / step
        return np.cumprod(cols, axis=1)
    return ch._integrate(f, 0.0, math.inf)


@pytest.fixture
def erratum_moment_ratios():
    """(al, k_max) -> the k = 0..k_max moments of the printed radial weight
    over k! (al)_k; the erratum is that ratio k is (al + k) / 4."""
    return _erratum_moment_ratios
