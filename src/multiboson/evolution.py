"""Time evolution under H_F = H0 + interaction, observables, and presets.

Schroedinger solutions factor as psi(t) = exp(-i H0 t) exp(-i H t) psi(0)
with H0 the free number Hamiltonian (diagonal phases).  The interaction
factor is one loop, ``InteractionEvolver.apply``, over the invariant blocks
the state occupies, each evolved on a whole time grid in one product by
``_evolved_blocks``, whose three block sources are: a one-mode interaction,
one block from ``onemode.evolve`` (closed-form eigenpairs in the discrete
cases); a generic two-mode interaction with no aligned block structure, one
block from a divide-and-conquer eigendecomposition of its whole truncated
matrix (``jacobi.dense_eigh``, in place, the dense form of the tridiagonal
oracle); and a canonical interaction, one block per Manley-Rowe charge
block in which the state has amplitude, each a LAPACK tridiagonal
eigendecomposition with energies scale * w + offset (``twomode.charges``
labels each window position, ``twomode.window_block`` gives a block's
positions and Jacobi operator).  Blocks the state does not occupy are not
solved and stay exactly zero.  Every source applies its real eigenvectors
through ``jacobi.spectral_coeffs`` and ``jacobi.spectral_apply``, with no
complex copy of them; ``spectral_apply`` forms its phases e^{-iEt} and
refuses a time whose phases overflow.

An evolved state is carried as the pair (indices, amplitudes): the
flattened positions of the blocks it occupies, block by block in ascending
charge, and its amplitudes there, one row per time
(``InteractionEvolver.apply``).  A one-mode or a generic interaction is one
block over the whole basis; a canonical state lives on a few charge blocks
of at most n positions each, out of n^2.  No reader depends on the order:
the tail check and the observables read only those positions, and only
``evolve_full`` scatters the pair into a full amplitude array.

A state is a 1-d array of amplitudes over the model's whole flattened
basis, n^modes entries.  ``run_series``, ``evolve_full``,
``interaction_energy`` and the dense form of ``observables`` check it where
it enters (``_checked_state``): the right length, and 0 < |psi| < inf, so
every entry is finite and some entry nonzero.

H0 is diagonal in the Fock basis, so its phases change no |amplitude|: the
occupation observables of ``run_series`` and the tail check are taken from
exp(-i H t) psi(0) alone, and only ``evolve_full`` forms the free phases.
Every observable is an exactly rounded sum, equal bit for bit to
``math.fsum`` of the same float64 terms, for the whole grid and every
moment in one pass: an extended-precision sum is accepted where a rounding
certificate proves it rounds to the exact value, and ``math.fsum`` takes
the other rows (``_exact_sums``).

Which model is evolved depends on the source.  A generic two-mode
interaction, every canonical charge block and the continuous one-mode
classes 1-4 evolve the truncated window's own operator, which is unitary,
so norms and the block labels (Manley-Rowe charges) are conserved to
roundoff.  The discrete one-mode classes 5-8 evolve the untruncated chain
by its closed-form eigenpairs, restricted to the window (``onemode.evolve``):
their amplitudes are the infinite model's on the window's levels, and the
norm the state carries past the window is lost from it.  The diagonal
class 9 is both.  Whether the truncated model tracks the infinite one is
a separate question monitored in one place, ``_evolve_grid``, through the
state's tail fraction: the
norm-squared share of the positions where some mode sits in the last 10%
of its window (``FullModel.tail_tol``).  Models whose interactions pump
quanta without bound (all four presets at large t) leave any fixed
window, and runs probing conservation laws rather than asymptotic
occupations should declare a lax ``tail_tol``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, TruncationOverflowError
from .jacobi import JacobiOperator, dense_eigh, oracle_eigh, spectral_apply, spectral_coeffs
from .onemode import OneModeHamiltonian, evolve as evolve_onemode
from .onemode import jacobi as onemode_jacobi
from .rep import MultibosonRep
from .twomode import (CANONICAL_TWISTS, TwoModeHamiltonian, TwoModeRep, _kron_sum,
                      build_h_matrix, charges, window_block)

__all__ = [
    "CanonicalInteraction",
    "FullModel",
    "PresetModel",
    "preset",
    "evolve_full",
    "observables",
    "ObservableRecord",
    "ObservableSeries",
    "run_series",
    "interaction_energy",
    "basis_state",
]


@dataclass(frozen=True)
class CanonicalInteraction:
    """scale * (canonical D- or C-form interaction) + offset on a sector;
    ParameterError names scale and offset unless both are finite."""

    kind: str
    reps: TwoModeRep
    sector: tuple[int, int]
    n_per_mode: int
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in CANONICAL_TWISTS:
            raise ValueError(f"kind must be 'D' or 'C', got {self.kind!r}")
        if self.n_per_mode < 2:
            raise ParameterError(("n_per_mode",), "need n_per_mode >= 2")
        if not (math.isfinite(self.scale) and math.isfinite(self.offset)):
            raise ParameterError(("scale", "offset"), "need a finite scale and offset, got "
                                 f"{self.scale} and {self.offset}")

    def alpha0(self) -> float:
        return self.reps.rep0.alpha0_init[self.sector[0]]

    def beta0(self) -> float:
        return self.reps.rep1.alpha0_init[self.sector[1]]


@dataclass(frozen=True)
class FullModel:
    """Free frequencies plus an interaction handle.

    ``interaction`` is a OneModeHamiltonian, a CanonicalInteraction, or a
    TwoModeHamiltonian (generic: one divide-and-conquer eigendecomposition
    of its whole dense truncated matrix, ``twomode.build_h_matrix``).  Only
    a generic interaction takes ``n_per_mode``, and needs it, to fix its
    truncation; the other two carry their own window.  ``omega`` has one
    entry per mode.
    ``tail_tol`` bounds the evolved state's tail fraction at every time: the
    norm-squared share of the positions where some mode's window index k
    is at least ceil(0.9 n), n the levels per mode (k1 counts as well as
    k0).  It is the package's only tail monitor, and must be positive, not
    NaN; inf switches it off.  Every frequency must be finite.
    """

    interaction: object
    omega: tuple[float, ...]
    tail_tol: float = 1e-8
    n_per_mode: int | None = None

    def __post_init__(self):
        n_modes = len(_layout(self)[0])
        if len(self.omega) != n_modes or not all(map(math.isfinite, self.omega)):
            raise ParameterError(("omega",), f"need {n_modes} finite frequencies")
        if not self.tail_tol > 0:
            raise ParameterError(("tail_tol",), f"must be > 0, got {self.tail_tol}")
        generic = isinstance(self.interaction, TwoModeHamiltonian)
        if generic and self.n_per_mode is None:
            raise ValueError("a generic two-mode interaction needs n_per_mode")
        if not generic and self.n_per_mode is not None:
            raise ValueError(f"a {type(self.interaction).__name__} carries its own "
                             "window; only a generic interaction takes n_per_mode")

    def occupations(self, positions: np.ndarray | None = None) -> list[np.ndarray]:
        """Physical occupation numbers per mode at the flattened basis
        ``positions`` (an integer array; None reads the whole basis)."""
        ls, rs, n = _layout(self)
        flat = np.arange(n ** len(ls)) if positions is None else np.asarray(positions)
        ks = np.unravel_index(flat, (n,) * len(ls))
        return [k * l + r for k, l, r in zip(ks, ls, rs)]


def _layout(model: FullModel) -> tuple[tuple[int, ...], tuple[int, ...], int | None]:
    """How a flattened basis index maps to occupations: the cluster size l
    and the sector residue r of each mode, and the window n of levels k per
    mode; position sum_i k_i n^(modes-1-i) holds occupations k_i l_i + r_i."""
    h = model.interaction
    if isinstance(h, OneModeHamiltonian):
        s = h.sector
        return (s.rep.l,), (s.r,), s.n_levels
    if isinstance(h, CanonicalInteraction):
        n = h.n_per_mode
    elif isinstance(h, TwoModeHamiltonian):
        n = model.n_per_mode
    else:
        raise TypeError(f"unsupported interaction {type(h).__name__}")
    return (h.reps.rep0.l, h.reps.rep1.l), tuple(h.sector), n


class InteractionEvolver:
    """Applies exp(-i H t) for the supported interaction kinds, by the block
    sources of the module docstring; nothing is solved before ``apply``."""

    def __init__(self, model: FullModel):
        self.model = model

    def apply(self, psi: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """exp(-i H t) psi as the pair (indices, amplitudes), one loop over
        the blocks of ``_evolved_blocks``.

        ``indices`` are the flattened positions of the blocks where psi is
        nonzero, block by block in ascending charge and ascending within
        each block (the whole basis for a one-mode or a generic
        interaction); ``amplitudes`` holds the evolved state there, shape
        (m,) at a scalar t, or (n_times, m) with one row per time of a 1-d
        array t.  Every other position stays exactly zero and is not stored.
        ParameterError names t at an overflowing time (``jacobi.spectral_apply``),
        and scale and offset where a canonical block's energies overflow.
        """
        psi = np.asarray(psi, dtype=complex)
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError("t must be a scalar or a 1-d array of times")
        ts = np.atleast_1d(times)
        empty = (np.zeros(0, dtype=np.intp), np.empty((ts.size, 0), dtype=complex))
        indices, amps = zip(empty, *_evolved_blocks(self.model, psi, ts))
        out = np.concatenate(amps, axis=1)
        return np.concatenate(indices), (out[0] if times.ndim == 0 else out)


def _evolved_blocks(model: FullModel, psi: np.ndarray, ts: np.ndarray):
    """(indices, (n_times, m) amplitudes of exp(-i H t) psi) for each block
    psi occupies, from the block source of the interaction's kind (module
    docstring); a generic matrix is solved in place (``jacobi.dense_eigh``)."""
    h = model.interaction
    if isinstance(h, OneModeHamiltonian):
        yield np.arange(psi.size), evolve_onemode(h, psi, ts)
    elif isinstance(h, TwoModeHamiltonian):
        if psi.any():
            w, v = dense_eigh(build_h_matrix(h, model.n_per_mode))
            yield np.arange(psi.size), spectral_apply(v, w, spectral_coeffs(v, psi), ts)
    else:
        for idx, op in _occupied_charge_blocks(h, psi):
            w, v = oracle_eigh(op)
            with np.errstate(over="ignore", invalid="ignore"):   # refused below
                energies = h.scale * w + h.offset
            if not np.isfinite(energies).all():
                raise ParameterError(("scale", "offset"), "the block energies scale * w + offset "
                                     f"overflow at scale {h.scale}, offset {h.offset}")
            yield idx, spectral_apply(v, energies, spectral_coeffs(v, psi[idx]), ts)


def _occupied_charge_blocks(h: CanonicalInteraction, psi: np.ndarray):
    """(indices, Jacobi operator) of each charge block where psi is nonzero,
    in ascending charge, as ``twomode.window_block`` gives them."""
    n = h.n_per_mode
    for q in np.unique(charges(h.kind, n, np.flatnonzero(psi))).tolist():
        yield window_block(h.kind, q, h.alpha0(), h.beta0(), n)


def _evolve_grid(model: FullModel, psi0: np.ndarray, times: np.ndarray,
                 name: str) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) psi0 at every time of a 1-d grid, as the pair (indices,
    (n_times, m) amplitudes) of ``InteractionEvolver.apply``, from one
    spectral solve of the blocks psi0 occupies; the free phases
    exp(-i H0 t) are left out.  Raises ParameterError naming the grid
    parameter ``name`` at the first time whose phases are not finite (an
    energy times t past the double range, which ``jacobi.spectral_apply``
    refuses), and TruncationOverflowError at the first time whose tail
    fraction exceeds ``model.tail_tol``."""
    try:
        indices, amps = InteractionEvolver(model).apply(psi0, times)
    except ParameterError as exc:
        if exc.names != ("t",):
            raise
        raise ParameterError((name,), f"the evolved state at t = {times[exc.row].item()} "
                             "is not finite: energy times t overflows float64") from None
    p = np.abs(amps) ** 2
    total = p.sum(axis=1)
    tail = p[:, _tail_mask(model, indices)].sum(axis=1)
    fractions = np.divide(tail, total, out=np.zeros_like(total), where=total > 0)
    over = np.flatnonzero(fractions > model.tail_tol)
    if over.size:
        i = int(over[0])
        raise TruncationOverflowError(
            f"tail fraction {fractions[i]:.2e} exceeds "
            f"{model.tail_tol:.2e} at t = {times[i].item()}; increase the truncation")
    return indices, amps


def _tail_mask(model: FullModel, cols: np.ndarray) -> np.ndarray:
    """Which flattened positions ``cols`` have some mode's window index
    k >= ceil(0.9 n), n the levels per mode."""
    ls, _, n = _layout(model)
    cut = max(1, math.ceil(0.9 * n))
    return np.logical_or.reduce([k >= cut for k in np.unravel_index(cols, (n,) * len(ls))])


def _checked_state(model: FullModel, psi, name: str) -> tuple[np.ndarray, float]:
    """psi as a complex amplitude array over the model's basis, and its norm;
    ParameterError naming ``name`` unless psi is 1-d with n^modes entries and
    0 < |psi| < inf (every entry finite, some entry nonzero)."""
    ls, _, n = _layout(model)
    amps = np.asarray(psi, dtype=complex)
    if amps.shape != (n ** len(ls),):
        raise ParameterError((name,), f"need a 1-d state of {n ** len(ls)} amplitudes "
                             f"for this model's window, got shape {amps.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if not 0.0 < norm < math.inf:
        raise ParameterError((name,), f"need 0 < |{name}| < inf, got {norm}")
    return amps, norm


def evolve_full(model: FullModel, psi0, t: float) -> np.ndarray:
    """psi(t) = exp(-i H0 t) exp(-i H t) psi0, with tail monitoring: the
    interaction factor as in ``run_series``, then the free phases at the
    occupied positions, scattered into a full complex amplitude array.  The
    time t must be finite, and so must every phase it gives: ParameterError
    names t when an energy times t leaves the double range, and t and omega
    when a free phase does."""
    amps0, _ = _checked_state(model, psi0, "psi0")
    t = float(t)
    if not math.isfinite(t):
        raise ParameterError(("t",), f"the time must be finite, got {t}")
    indices, amps = _evolve_grid(model, amps0, np.array([t]), "t")
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(w * n for w, n in zip(model.omega, model.occupations(indices)))
        phases = np.exp(-1j * t * total)
    if not np.isfinite(phases).all():
        raise ParameterError(("t", "omega"), f"the free phases at t = {t} are not "
                             "finite: omega times occupation times t overflows float64")
    out = np.zeros(amps0.size, dtype=complex)
    out[indices] = amps[0] * phases
    return out


@dataclass(frozen=True)
class ObservableRecord:
    means: tuple[float, ...]
    variances: tuple[float, ...]
    fanos: tuple[float, ...]   # nan marks an undefined (zero-mean) Fano factor
    norm: float


def observables(psi: np.ndarray | tuple[np.ndarray, np.ndarray],
                model: FullModel) -> ObservableRecord | list[ObservableRecord]:
    """Mean occupations, variances and Fano factors per mode.

    ``psi`` is a state over the model's whole basis (one record, read at its
    nonzero positions; checked as in ``run_series``) or the pair (indices,
    amplitudes) of ``InteractionEvolver.apply``: one record for (m,)
    amplitudes, a list of records, one per row, for (n_times, m).  Only the
    positions ``indices`` are read (``FullModel.occupations(indices)``).
    Each row's norm and its first and second occupation moments per mode are
    exactly rounded sums, bit for bit ``math.fsum``, of p = |amplitudes|^2
    times 1, n_i and n_i^2, all taken in one ``_exact_sums`` call.
    ParameterError names psi and the first row whose squared norm is 0 or
    not finite (a NaN or inf amplitude, or one whose square overflows).
    """
    if isinstance(psi, tuple):
        indices, amps = psi
    else:
        dense, _ = _checked_state(model, psi, "psi")
        indices = np.flatnonzero(dense)
        amps = dense[indices]
    single = np.ndim(amps) == 1
    with np.errstate(over="ignore"):
        p = np.abs(np.atleast_2d(amps)) ** 2
        if p.ndim != 2:
            raise ValueError("amplitudes must have shape (m,) or (n_times, m)")
        norm2 = p.sum(axis=1)
    bad = np.flatnonzero(~((norm2 > 0.0) & (norm2 < math.inf)))
    if bad.size:
        i = int(bad[0])
        raise ParameterError(("psi",), f"row {i} of psi has squared norm {norm2[i]}: "
                             "need 0 < |psi|^2 < inf")
    occs = [occ.astype(float) for occ in model.occupations(indices)]
    # the rows p, then p n_i and p n_i^2 for each mode, summed in one pass
    sums = _exact_sums(np.concatenate([p] + [p * f for n in occs for f in (n, n * n)]))
    sums = sums.reshape(-1, p.shape[0])
    total = sums[0]
    means, variances, fanos = [], [], []
    for s1, s2 in zip(sums[1::2], sums[2::2]):
        m1 = s1 / total
        m2 = s2 / total
        var = np.maximum(m2 - m1 * m1, 0.0)
        means.append(m1.tolist())
        variances.append(var.tolist())
        fanos.append(np.divide(var, m1, out=np.full_like(var, math.nan),
                               where=m1 > 1e-12).tolist())
    records = [ObservableRecord(*fields, norm)
               for *fields, norm in zip(zip(*means), zip(*variances), zip(*fanos),
                                        np.sqrt(total).tolist())]
    return records[0] if single else records


# the wide type of _exact_sums: 80-bit extended on x86 Linux builds, float64
# where numpy has no wider type (then every row of more than one term takes
# math.fsum)
_WIDE = np.longdouble


def _exact_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-d array of nonnegative float64 values, with at
    least one column, exactly rounded: bit for bit ``math.fsum`` of the row.

    The rows are summed in ``_WIDE`` by halving the columns: on a
    transposed, C-contiguous copy, the trailing half of the remaining
    columns is added onto the leading half, one contiguous slab at a time,
    so each term passes through at most d = ceil(log2 m) rounded additions.
    One call serves any number of rows, all in the same pass.  No term is
    negative, so the wide sum S differs from the exact sum s by at most
    ((1 + u)^d - 1) s, u the unit roundoff of ``_WIDE`` (its arithmetic
    rounds to nearest at full precision), and 2 d u S bounds that.  The
    float64 rounding r of S is the rounding of s when |S - r| plus the bound
    is below half the smaller of r's two float64 spacings: s then lies
    strictly inside r's rounding interval, off any tie.  The other rows take
    ``math.fsum``.
    """
    m = x.shape[1]
    wide = np.ascontiguousarray(x.T, dtype=_WIDE)
    width = m
    while width > 1:
        half = width // 2
        wide[:half] += wide[width - half:width]
        width -= half
    s = wide[0]
    out = s.astype(np.float64)
    spacing = np.minimum(out - np.nextafter(out, -np.inf), np.nextafter(out, np.inf) - out)
    bound = (m - 1).bit_length() * np.finfo(_WIDE).eps * s   # 2 d u S
    for i in np.flatnonzero(~(abs(s - out) + bound < spacing / 2)).tolist():
        out[i] = math.fsum(x[i].tolist())
    return out


@dataclass
class ObservableSeries:
    times: list[float]
    records: list[ObservableRecord]
    norm_errors: list[float] = field(default_factory=list)


def run_series(model: FullModel, psi0, t_grid) -> ObservableSeries:
    """Observables along a time grid.

    The normalized psi0 is evolved to every time at once: one spectral solve
    per block it occupies (one per run for a one-mode or a generic
    interaction), whatever the grid length, then one product per block for
    the whole grid.  The state is carried as (indices, amplitudes): n_times x m
    amplitudes, m the positions of the occupied blocks, from which
    ``observables`` forms five more such arrays and a long-double copy, about
    150 bytes per time and position in all (n_times x n^2 for a state spread
    over the window).  The free phases are not formed, since no occupation
    observable sees them.  The tail of every time is checked in one pass, and
    every record comes from
    one ``observables`` call on the pair: certified exact sums over the
    block positions.  The grid must hold at least one time, every one
    finite, and the evolved state must be finite at each: ParameterError
    names t_grid when an energy times t leaves the double range.

    ``norm_errors`` holds |norm - 1| at each time.  On the routes that evolve
    the truncated window (two-mode interactions, one-mode classes 1-4 and 9)
    it is roundoff; on one-mode classes 5-8, which evolve the untruncated
    chain (module docstring), it is also 1 minus the norm the exact
    evolution leaves on the window.
    """
    amps, norm = _checked_state(model, psi0, "psi0")
    times = np.asarray(t_grid, dtype=float).reshape(-1)
    if times.size == 0 or not np.isfinite(times).all():
        raise ParameterError(("t_grid",), "need at least one time, every time finite")
    # a unit-norm state is evolved as it is: dividing by 1.0 changes no bit,
    # and skipping it spares a copy of the whole basis
    psi = amps if norm == 1.0 else amps / norm
    records = observables(_evolve_grid(model, psi, times, "t_grid"), model)
    return ObservableSeries(times.tolist(), records,
                            [abs(rec.norm - 1.0) for rec in records])


def interaction_energy(model: FullModel, psi) -> float:
    """<psi| H |psi> / <psi|psi> for the interaction factor (per the stripped
    state exp(+i H0 t) psi(t), this is conserved along any run).

    A canonical interaction is summed over the charge blocks psi occupies,
    scale * sum_b psi_b^H J_b psi_b + offset * |psi|^2 with J_b the block's
    Jacobi operator, and a one-mode one is the Jacobi quadratic form; neither
    builds a matrix.  A generic two-mode interaction multiplies psi by its
    sparse matrix (``twomode._kron_sum``), never made dense.  ParameterError
    names scale and offset where the canonical energy is not finite.
    """
    h = model.interaction
    amps, _ = _checked_state(model, psi, "psi")
    norm2 = np.vdot(amps, amps).real
    if isinstance(h, OneModeHamiltonian):
        energy = _jacobi_form(onemode_jacobi(h), amps)
    elif isinstance(h, CanonicalInteraction):
        form = 0.0
        for idx, op in _occupied_charge_blocks(h, amps):
            form += _jacobi_form(op, amps[idx])
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            energy = h.scale * form + h.offset * norm2
        if not math.isfinite(energy):
            raise ParameterError(("scale", "offset"), "the energy scale * form + offset "
                                 f"* |psi|^2 overflows at scale {h.scale}, offset {h.offset}")
    else:
        energy = np.vdot(amps, _kron_sum(h, model.n_per_mode) @ amps).real
    return float(energy / norm2)


def _jacobi_form(op: JacobiOperator, x: np.ndarray) -> float:
    """x^H J x for the Jacobi operator J at its size, x of op.size entries."""
    d = op.diag_array()
    e = op.offdiag_array()
    return float(d @ (np.abs(x) ** 2) + 2.0 * (e @ (x[:-1].conj() * x[1:]).real))


def basis_state(model: FullModel, occupations: tuple[int, ...]) -> np.ndarray:
    """Fock basis state |n0[, n1]> as a complex amplitude array over the
    model's basis; ParameterError unless each mode's occupation n is in its
    sector and window."""
    ls, rs, n = _layout(model)
    occupations = tuple(occupations)
    if len(occupations) != len(ls):
        raise ParameterError(("occupations",), f"need one per mode, got {occupations}")
    if any(occ % l != r for occ, l, r in zip(occupations, ls, rs)):
        raise ParameterError(("occupations",), f"{occupations} not in sector {rs} (l = {ls})")
    ks = tuple(occ // l for occ, l in zip(occupations, ls))
    if not all(0 <= k < n for k in ks):
        window = "n_levels" if len(ls) == 1 else "n_per_mode"
        raise ParameterError(("occupations", window), f"{occupations} outside the "
                             f"window: each n // l must be in 0..{n - 1}")
    amps = np.zeros(n ** len(ks), dtype=complex)
    amps[np.ravel_multi_index(ks, (n,) * len(ks))] = 1.0
    return amps


# ---------------------------------------------------------------------------
# preset interaction Hamiltonians

@dataclass(frozen=True)
class PresetModel:
    """Preset interaction on the cutoff-``n_per_mode`` product basis, and the
    cluster-model parameters reproducing it:

        matrix = mapping.scale * canonical_matrix(mapping.kind, ...)
                 + mapping.offset * Id

    The mapping's kind names its twists in ``twomode.CANONICAL_TWISTS``.
    Evolution needs only ``mapping``.  ``csr`` is the preset's expansion
    assembled once, on first access, as a sum of sparse Kronecker terms.
    ``matrix``, a dense n_per_mode^2 x n_per_mode^2 array, is that CSR
    densified (peak memory one dense result); both are kept.
    """

    name: str
    n_per_mode: int
    mapping: CanonicalInteraction

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.csr.toarray()

    @cached_property
    def csr(self) -> sp.csr_matrix:
        n = self.n_per_mode
        a, ad, num = _ladder(n)
        eye = np.eye(n)
        k = partial(sp.kron, format="csr")
        sq = np.diag(np.sqrt(np.arange(n, dtype=float)))
        if self.name == "HI":
            x = k(a @ a, a @ a)
        elif self.name == "HII":
            x = k(a @ a, ad @ ad)
        elif self.name == "HIII":
            x = k(sq @ ad, a @ a)
        else:  # HIV
            x = k(sq @ ad, sq @ ad)
        return k(num, eye) + k(eye, num) + 2.0 * k(num, num) + x + x.T


def _ladder(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)
    return a, a.T.copy(), np.diag(np.arange(n, dtype=float))


# each preset as (canonical kind, cluster sizes of the two modes, scale); its
# window holds ceil(n / l) cluster states per mode, l the larger cluster size
_PRESETS = {"HI": ("C", (2, 2), -4.0), "HII": ("D", (2, 2), 4.0),
            "HIII": ("D", (1, 2), 2.0), "HIV": ("C", (1, 1), -1.0)}
_CLUSTER_REPS = {1: MultibosonRep(1, (1.0,)), 2: MultibosonRep(2, (0.5, 1.5))}


def preset(name: str, n_per_mode: int) -> PresetModel:
    """The four model interactions, built from raw ladder matrices.

    H_I   = n0 + n1 + 2 n0 n1 + a0^2 a1^2 + h.c.
    H_II  = n0 + n1 + 2 n0 n1 + a0^2 (a1*)^2 + h.c.   (defined as the
            symmetric completion X + h.c. of the conversion term)
    H_III = n0 + n1 + 2 n0 n1 + sqrt(n0) a0* a1^2 + sqrt(n0+1) a0 (a1*)^2
    H_IV  = n0 + n1 + 2 n0 n1 + sqrt(n0 n1) a0* a1* + sqrt((n0+1)(n1+1)) a0 a1

    Every one is an affine image of a canonical D- or C-form on cluster
    representations; the returned mapping reproduces the matrix entrywise.
    Only the mapping is built here; the matrix is assembled when first read
    (``PresetModel.matrix``).  Raises ``ParameterError`` for an unknown name or
    a cutoff whose window holds fewer than two cluster states: below 3 (HI,
    HII, HIII) or 2 (HIV).
    """
    if name not in _PRESETS:
        raise ParameterError(("name",), f"unknown preset {name!r}; use HI, HII, HIII or HIV")
    kind, (l0, l1), scale = _PRESETS[name]
    l = max(l0, l1)
    # ceil(n / l) >= 2 holds from n = l + 1 on
    if n_per_mode < l + 1:
        raise ParameterError(("n_per_mode",), f"preset {name} needs n_per_mode >= "
                             f"{l + 1}, got {n_per_mode}")
    reps = TwoModeRep(_CLUSTER_REPS[l0], _CLUSTER_REPS[l1])
    mapping = CanonicalInteraction(kind, reps, (0, 0), -(-n_per_mode // l),
                                   scale=scale, offset=-0.5)
    return PresetModel(name, n_per_mode, mapping)
