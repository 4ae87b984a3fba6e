"""Cross-module invariant suite behind the ``validate`` CLI command.

Each check returns a measured deviation and its tolerance, and the wall
time of the section that produced it; a check passes when the deviation is
within the tolerance.  The suite doubles as the machine-readable face of the
test suite's acceptance criteria: every closed form is held against an
independent matrix oracle.

A check lives in one section function, which takes no argument, and the
table ``SECTIONS`` runs them in one loop (``run_sections``) whose order is
only the order of the report.  A section that draws random labels starts
its own generator from ``SEED``, so a section run alone gives the checks it
gives in the suite, deviations bit for bit.

The ladder generators enter as weighted shifts, not dense matrices: A0 is
diagonal and A-, A+ each sit on one off-diagonal, so the commutator and
Casimir residuals, the implementer images U X and the coherent residual
A- psi are formed from the coefficient streams (``rep.generator_weights``,
``rep.sector_coeffs``, ``rep.apply_lowering``), each entry the one nonzero
product that a dense matrix product forms beside exact zeros, so every
deviation is the dense one bit for bit.  The Casimir-invariance check keeps
the dense Fock-space generators of ``rep`` as the one dense reference.

No check forms an n^2 x n^2 array at a preset's cutoff.  The HIV preset is
held to its canonical C-form on CSR entries at cutoff 40; the dense
``twomode.canonical_matrix`` is built only at n_per_mode 12, where it is the
oracle for the charge blocks that evolution solves (both folded into
``evolution.hiv_framework_equality``).
"""

import math
from dataclasses import asdict, dataclass, replace
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from . import bogoliubov, coherent, evolution, onemode, orthopoly, rep, twomode
from .jacobi import JacobiOperator, oracle_eigh

__all__ = ["CheckResult", "SECTIONS", "run_sections", "run_all", "format_report"]

SEED = 20240817   # of every section's own generator


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    note: str = ""
    seconds: float = 0.0   # wall time of the section behind the check

    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["status"] = self.status()
        return d


def _check(name, deviation, tolerance, note=""):
    return CheckResult(name, float(deviation), float(tolerance),
                       bool(deviation <= tolerance), note)


def _shift_squares(l: int, table: tuple[float, ...], n: int):
    """(r, d, u, uu, vv) for the generators on Fock levels 0..n-1, with
    (d, u) from ``rep.generator_weights`` and the diagonals of A- A+ and
    A+ A- on the interior levels i < n - 2l: uu_i = u_i u_i and
    vv_i = u_{i-l} u_{i-l} (0 for i < l).  A product of weighted shifts is a
    weighted shift, so each entry is the one nonzero product that the dense
    matrix product forms beside exact zeros, bit for bit."""
    r = rep.MultibosonRep(l, table)
    d, u = rep.generator_weights(r, n)
    interior = n - 2 * l
    uu = u[:interior] * u[:interior]
    vv = np.concatenate([np.zeros(l), uu[:interior - l]])
    return r, d, u, uu, vv


def _commutator_residual(l: int, table: tuple[float, ...], n: int) -> float:
    """Largest interior entry of [A-, A+] - A0, [A0, A-] + 2 A-, and
    [A0, A+] - 2 A+, from the weights: the first is diagonal, the others sit
    at (i, i + l) and (i + l, i)."""
    _, d, u, uu, vv = _shift_squares(l, table, n)
    k = n - 3 * l               # interior entries off the diagonal
    dev = np.abs(uu - vv - d[:n - 2 * l]).max()
    for lhs, rhs in (
        (d[:k] * u[:k] - u[:k] * d[l:l + k], -2 * u[:k]),
        (d[l:l + k] * u[:k] - u[:k] * d[:k], 2 * u[:k]),
    ):
        dev = max(dev, np.abs(lhs - rhs).max())
    return dev


def _difference_eq_residual(l: int, table: tuple[float, ...], n_max: int) -> float:
    r = rep.MultibosonRep(l, table)
    n = np.arange(n_max + 1)
    a0 = rep.alpha0(r, n)
    am = rep.alpha_minus(r, n)
    a2 = orthopoly.pochhammer(n + 1.0, l) * am ** 2
    prev = np.zeros(n.size)
    prev[l:] = orthopoly.pochhammer(n[:-l] + 1.0, l) * am[:-l] ** 2
    dev = np.abs(a2 - prev - a0) / np.maximum(1.0, a0)
    return float(max(dev.max(), np.abs((a0[l:] - a0[:-l] - 2.0) * am[:-l]).max()))


def _casimir_residual(l: int, table: tuple[float, ...], n: int) -> float:
    """Largest interior entry of (1/2) A0^2 - A- A+ - A+ A- minus the
    sector scalar, from the weights: every term is diagonal."""
    r, d, _, uu, vv = _shift_squares(l, table, n)
    interior = n - 2 * l
    cas = 0.5 * d[:interior] * d[:interior] - uu - vv
    return np.abs(cas - [rep.casimir_value(r, m % l) for m in range(interior)]).max()


def _times_generators(u: np.ndarray, d: np.ndarray, b: np.ndarray):
    """u A0, u A- and u A+ in turn, for the sector generators A0 = diag(d)
    and A-[k, k+1] = A+[k+1, k] = b[k]: a column scaling and two column
    shifts of u, each entry the one nonzero product of the dense u @ X."""
    yield u * d
    out = np.zeros_like(u)
    out[:, 1:] = u[:, :-1] * b
    yield out
    out = np.zeros_like(u)
    out[:, :-1] = u[:, 1:] * b
    yield out


def _tridiagonal_gap(p: np.ndarray, coeffs: np.ndarray, d: np.ndarray,
                     b: np.ndarray) -> float:
    """Largest entry of |p - X| for the leading block X of coeffs[0] A0 +
    coeffs[1] A- + coeffs[2] A+ (generators as in ``_times_generators``),
    subtracted in place on p's three diagonals; each X entry is the one
    nonzero term of the dense sum, bit for bit."""
    ii = p.shape[0]
    p.flat[::ii + 1] -= coeffs[0] * d[:ii]
    p.flat[1::ii + 1] -= coeffs[1] * b[:ii - 1]
    p.flat[ii::ii + 1] -= coeffs[2] * b[:ii - 1]
    return np.abs(p).max()


def _printed_hd_block_jacobi(block: twomode.DBlock) -> JacobiOperator:
    """The D-block with the erratum's (K-k+beta0) in the last off-diagonal
    factor instead of (K-k+beta0-1) (see the ``twomode`` docstring)."""
    a0, b0, K = block.alpha0, block.beta0, block.K
    return JacobiOperator(twomode.hd_block_jacobi(block).diag,
                          lambda k: np.sqrt((k + 1.0) * (k + a0) * (K - k) * (K - k + b0)),
                          K + 1)


def _framework_deviation(name: str, n: int) -> float:
    """Largest entry of |preset - mapping| for the preset ``name`` at cutoff
    n, on CSR entries: the canonical form at the mapping's twists comes from
    the one assembler (``twomode._kron_sum``), is scaled, offset on its
    diagonal, and the preset's CSR at the mapping's occupations is subtracted.
    Each entry is the float arithmetic of the dense scale * canonical_matrix
    + offset * Id - preset, and no n^2 x n^2 array is formed."""
    pm = evolution.preset(name, n)
    m = pm.mapping
    h = twomode.TwoModeHamiltonian(m.reps, *twomode.CANONICAL_TWISTS[m.kind], m.sector)
    canon = twomode._kron_sum(h, m.n_per_mode) * m.scale
    n0, n1 = evolution.FullModel(m, (1.0, 1.0)).occupations()
    window = n0 * n + n1
    dev = (canon + sp.identity(canon.shape[0], format="csr") * m.offset
           - pm.csr[window][:, window])
    return float(abs(dev).max())


def _charge_block_gap(ci: evolution.CanonicalInteraction, m: np.ndarray) -> float:
    """Largest gap, relative to its largest entry, between the dense
    canonical matrix m of ``ci`` and the Manley-Rowe charge blocks that
    evolution solves: both scaled and offset as ``InteractionEvolver.apply``
    does, each block against scale * J + offset, J its Jacobi operator
    (``twomode.window_block``); inf when an entry between two blocks is not
    exactly 0."""
    size, n = m.shape[0], ci.n_per_mode
    q = twomode.charges(ci.kind, n, np.arange(size))
    if m[q[:, None] != q[None, :]].any():
        return math.inf
    got = ci.scale * m
    got[np.diag_indices(size)] += ci.offset
    want = np.zeros_like(got)
    for charge in np.unique(q).tolist():
        idx, op = twomode.window_block(ci.kind, charge, ci.alpha0(), ci.beta0(), n)
        want[np.ix_(idx, idx)] = ci.scale * op.dense() + ci.offset * np.eye(idx.size)
    return float(np.abs(got - want).max() / np.abs(want).max())


def _canonical_block_deviation(n: int) -> float:
    """Worst ``_charge_block_gap`` of the four presets' canonical
    interactions (two D-forms, two C-forms) at n_per_mode n.  The dense
    ``twomode.canonical_matrix`` is built only here, so n stays small."""
    worst = 0.0
    for name in ("HI", "HII", "HIII", "HIV"):
        ci = replace(evolution.preset(name, n).mapping, n_per_mode=n)
        m = twomode.canonical_matrix(ci.kind, ci.reps, ci.sector, n)
        worst = max(worst, _charge_block_gap(ci, m))
    return worst


def _ladder_algebra():
    """The sl(2) commutators, difference equations and Casimir scalar of
    random alpha0 tables at l = 1, 2, 3."""
    rng = np.random.default_rng(SEED)
    dev_c = dev_d = dev_cas = 0.0
    for l in (1, 2, 3):
        for _ in range(3):
            table = tuple(rng.uniform(0.2, 3.0, size=l))
            dev_c = max(dev_c, _commutator_residual(l, table, 64))
            dev_d = max(dev_d, _difference_eq_residual(l, table, 100))
            dev_cas = max(dev_cas, _casimir_residual(l, table, 64))
    return [_check("rep.commutators.interior", dev_c, 1e-10),
            _check("rep.difference_equations", dev_d, 1e-10),
            _check("rep.casimir.sector_scalar", dev_cas, 1e-10)]


def _casimir_invariance():
    """The Casimir under random generator actions, on the dense generators."""
    rng = np.random.default_rng(SEED)
    r1 = rep.MultibosonRep(1, (1.3,))
    a0m, amm, apm = rep.build_generators_full(r1, 64)
    worst = 0.0
    for _ in range(10):
        g = bogoliubov.GroupElement(float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))),
                                    int(rng.choice((-1, 1))))
        m = bogoliubov.action_matrix(g)
        x0 = m[0, 0] * a0m + m[0, 1] * amm + m[0, 2] * apm
        xm = m[1, 0] * a0m + m[1, 1] * amm + m[1, 2] * apm
        xp = m[2, 0] * a0m + m[2, 1] * amm + m[2, 2] * apm
        cas = 0.5 * x0 @ x0 - xm @ xp - xp @ xm
        interior = 64 - 4
        worst = max(worst, np.abs(cas[:interior, :interior]
                                  - rep.casimir_value(r1, 0) * np.eye(interior)).max())
    return [_check("bogoliubov.casimir_invariance", worst, 1e-9)]


def _group_law():
    """The group homomorphism and the structure constants."""
    rng = np.random.default_rng(SEED)
    f = bogoliubov.structure_constants()
    dev_h = dev_s = 0.0
    for _ in range(50):
        g = bogoliubov.GroupElement(float(rng.uniform(0.3, 3.0) * rng.choice((-1, 1))),
                                    int(rng.choice((-1, 1))))
        h = bogoliubov.GroupElement(float(rng.uniform(0.3, 3.0) * rng.choice((-1, 1))),
                                    int(rng.choice((-1, 1))))
        mg = bogoliubov.action_matrix(g)
        mh = bogoliubov.action_matrix(h)
        mgh = bogoliubov.action_matrix(bogoliubov.multiply(g, h))
        dev_h = max(dev_h, np.abs(mgh - mg @ mh).max())
        lhs = np.einsum("ip,jq,pqr->ijr", mg, mg, f)
        rhs = np.einsum("ijk,kr->ijr", f, mg)
        dev_s = max(dev_s, np.abs(lhs - rhs).max())
    return [_check("bogoliubov.homomorphism", dev_h, 1e-12),
            _check("bogoliubov.structure_constants", dev_s, 1e-12)]


def _implementers():
    """Implementing unitaries: a and 1/a, and both sigma, share a Meixner
    block (one per (alpha0, c)), taken in turn from the one-entry memo."""
    n = 240
    dev_u = dev_cj = 0.0
    for al in (0.5, 1.0, 2.7):
        sector = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, n)
        diag, lowering, _ = rep.sector_coeffs(sector)
        k = np.arange(n, dtype=float)
        d, b = diag(k), lowering(k[1:])
        for a in (1 / 3, 3.0, 0.5, 2.0):
            for sg in (1, -1):
                g = bogoliubov.GroupElement(a, sg)
                u, info = bogoliubov.implementer(g, al, n)
                nc = info.converged_cols
                dev_u = max(dev_u, np.abs(u[:, :nc].T @ u[:, :nc] - np.eye(nc)).max())
                m = bogoliubov.action_matrix(g)
                # only the interior block of U X U* is checked, so only
                # its rows of U enter: ii n^2 work instead of n^3
                ii = info.interior_rows
                ui = u[:ii]
                for i, ux in enumerate(_times_generators(ui, d, b)):
                    dev_cj = max(dev_cj, _tridiagonal_gap(ux @ ui.T, m[i], d, b))
    return [_check("bogoliubov.implementer_unitarity", dev_u, 1e-8),
            _check("bogoliubov.implementer_conjugation", dev_cj, 1e-7)]


def _onemode_diagonal():
    """The one-mode diagonal case (class 9)."""
    atoms = onemode.classify(-3.0, -3.0, 2.0).atoms(40)
    expected = -3.0 * (2 * np.arange(40) + 2.0)
    return [_check("onemode.case9.diagonal_spectrum",
                   np.abs(atoms - expected).max(), 1e-12)]


def _onemode_meixner():
    """The one-mode Meixner case (class 5) against the oracle."""
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 100)
    h5 = onemode.OneModeHamiltonian(4.0, 1.0, sec)
    chain, op = onemode.classify(4.0, 1.0, sec.alpha0), onemode.jacobi(h5)
    dev_w = chain.oracle_delta(op, 5)
    _, vecs = oracle_eigh(op)
    # the five closed-form columns from one kernel call, each normalized
    # by its own norm; each overlap reads a strided column, so BLAS sums it
    # in one fixed order
    raw = chain.eigenvectors(op, sec.n_levels, 5)
    closed = np.column_stack([v / np.linalg.norm(v) for v in raw.T])
    worst = 0.0
    for m in range(5):
        worst = max(worst, 1.0 - abs(float(np.dot(closed[:, m], vecs[:, m]))))
    return [_check("onemode.case5.eigenvalues", dev_w, 1e-8),
            _check("onemode.case5.eigenvector_overlap", worst, 1e-8)]


def _hd_spectra():
    """Finite two-mode blocks: closed form vs oracle, and the erratum's
    shifted off-diagonal still missing the closed form (regression pin)."""
    blocks = [twomode.DBlock(K, a0, b0) for K in range(7)
              for a0 in (0.5, 1.0, 2.7) for b0 in (0.5, 1.0, 2.7)]
    worst = max(twomode.hd_chain(b).oracle_delta(twomode.hd_block_jacobi(b)) for b in blocks)
    blk = twomode.DBlock(1, 1.0, 1.0)
    gap = twomode.hd_chain(blk).oracle_delta(_printed_hd_block_jacobi(blk))
    return [_check("twomode.hd.closed_vs_oracle", worst, 1e-9),
            _check("twomode.hd.regression_pin_gap", 0.1, gap,
                   note="shifted b_k variant must stay wrong by >= 0.1")]


def _hd_eigenvectors():
    """D-block eigenvectors, sign included: the signed overlap 1 - <c_n, v_n>
    of the columns v_n of ``Chain.eigenvectors`` (one solve per block) with
    the normalized dual Hahn columns c_n, terminating 3F2 sums, over the
    labels of ``_hd_spectra`` at K 3 and 6."""
    worst = 0.0
    for K in (3, 6):
        for a0 in (0.5, 1.0, 2.7):
            for b0 in (0.5, 1.0, 2.7):
                blk = twomode.DBlock(K, a0, b0)
                c = np.array([[(-1.0) ** k * math.sqrt(
                    orthopoly.pochhammer(a0, k) * orthopoly.pochhammer(b0, K - k)
                    / (math.factorial(k) * math.factorial(K - k)))
                    * orthopoly.hyp3f2_terminating(k, -n, n + a0 + b0 - 1.0, a0, -float(K))
                    for n in range(K + 1)] for k in range(K + 1)])
                c /= np.linalg.norm(c, axis=0)
                v = twomode.hd_chain(blk).eigenvectors(twomode.hd_block_jacobi(blk),
                                                       K + 1, K + 1)
                worst = max(worst, 1.0 - float((c * v).sum(axis=0).min()))
    return [_check("twomode.hd.eigenvector_overlap", worst, 1e-9)]


def _hc_bound_state():
    """The C-form bound state."""
    blk = twomode.CBlock(0, 0.3, 0.3, n_levels=4000)
    fam = twomode.hc_chain(blk).family
    chk = twomode.hc_truncation_check(blk)
    return [_check("twomode.hc.uvw",
                   max(abs(fam.u + 0.2), abs(fam.v - 0.5), abs(fam.w - 0.5)), 1e-14),
            _check("twomode.hc.bound_state_energy",
                   abs(chk.extrapolated[-1] - 0.045), 1e-3,
                   note=f"raw top at N=4000: {chk.top_full[-1]:.6f}"),
            _check("twomode.hc.richardson_agreement", chk.agreement, 1e-3),
            _check("twomode.hc.continuum_edge",
                   float(chk.top_full[-2]), 0.005,
                   note="second eigenvalue must stay below the continuum edge")]


def _gram():
    """Orthonormality of the discrete and continuous families."""
    dev_d = max(orthopoly.gram_check(orthopoly.DualHahn(0.0, 0.0, 3), 3),
                orthopoly.gram_check(orthopoly.Meixner(1.0, 1.0 / 9.0), 8))
    dev_cont = max(orthopoly.gram_check(orthopoly.Laguerre(-0.5), 10),
                   orthopoly.gram_check(orthopoly.MeixnerPollaczek(0.75, math.pi / 2), 6),
                   orthopoly.gram_check(orthopoly.ContinuousDualHahn(-0.2, 0.5, 0.5), 8),
                   orthopoly.gram_check(orthopoly.ContinuousDualHahn(0.5, 0.5, 1.0), 8))
    return [_check("orthopoly.gram.discrete", dev_d, 1e-10),
            _check("orthopoly.gram.continuous", dev_cont, 1e-7)]


def _mapped_families():
    """The largest gap, relative to its list's largest entry, between
    operators' coefficient streams (200 levels) and atom formulas and their
    chains' mapped families (``jacobi.Chain``): one-mode labels of all nine
    classes, C-blocks on every uvw_params branch (two low ones: u < -1,
    -1 < u < 0) and on both branch edges (p = 0 at K 0, q = 0 at K 1,
    where u = 0), D-blocks to K 200.  c and phi of the one-mode families lose
    digits near the diagonal and the axes (4e6 eps at labels 1e-3 from the
    diagonal), so the bound is 1e-10."""
    labels = ((2.0, 0.0), (-1.5, 0.0), (0.0, 1.3), (1.3, -0.7), (-1.1, 2.2), (4.0, 1.0),
              (-4.0, -1.5), (0.7, 2.5), (-0.5, -3.0), (1.5, 1.5), (-2.0, -2.0))
    ops = [(onemode.jacobi(onemode.OneModeHamiltonian(
               mu, nu, rep.OneModeSector(rep.MultibosonRep(1, (a0,)), 0, 200))),
            onemode.classify(mu, nu, a0), 40)
           for (mu, nu), a0 in zip(labels, (0.4, 1.3, 2.7) * 4)]
    for K, a0, b0 in ((0, 4.5, 0.5), (1, 2.6, 0.6), (-1, 3.5, 0.2), (0, 0.3, 0.3),
                      (-2, 0.7, 0.9), (0, 0.5, 2.0), (-1, 0.5, 2.0), (0, 3.0, 2.0),
                      (1, 0.5, 3.5)):
        blk = twomode.CBlock(K, a0, b0, n_levels=200)
        ops.append((twomode.hc_block_jacobi(blk), twomode.hc_chain(blk), None))
    for K, a0, b0 in ((0, 0.7, 1.9), (1, 2.3, 0.4), (7, 1.3, 0.7), (60, 0.5, 2.7),
                      (200, 2.3, 0.4), (200, 0.4, 0.9)):
        blk = twomode.DBlock(K, a0, b0)
        ops.append((twomode.hd_block_jacobi(blk), twomode.hd_chain(blk), None))
    worst = 0.0
    for op, chain, n_atoms in ops:
        a, b = chain.recurrence(np.arange(op.size, dtype=float))
        pairs = [(op.diag_array(), a), (op.offdiag_array(), b[:op.size - 1])]
        if chain.atom_stream is not None:
            mapped = chain.measure(n_atoms).locations
            pairs.append((chain.atoms(mapped.size), mapped))
        for x, y in pairs:
            scale = max(np.abs(x).max(initial=0.0), 1e-300)
            worst = max(worst, np.abs(x - y).max(initial=0.0) / scale)
    return [_check("jacobi.chain.mapped_family", worst, 1e-10,
                   note="streams and atoms relative to their largest entry")]


def _coherent_states():
    """Coherent states: the eigenstate residual and the radial moments."""
    dev_r = dev_m = 0.0
    for al in (0.3, 1.0, 2.7):
        s = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, 80)
        for z in (0.5, 2.0, 1.0 + 1.0j):
            cs = coherent.coherent_amplitudes(z, al, 80)
            resid = np.linalg.norm(rep.apply_lowering(s, cs) - z * cs) / np.linalg.norm(cs)
            dev_r = max(dev_r, resid)
    for al in (0.3, 1.0, 2.7):
        m = coherent.radial_measure(al, k_checked=10)
        dev_m = max(dev_m, max(m.moment_error(k) for k in range(11)))
    return [_check("coherent.eigenstate_residual", dev_r, 1e-8),
            _check("coherent.measure_moments", dev_m, 1e-6)]


def _disc_flow():
    """The disc-model SU(1,1) flow."""
    worst_det = worst_law = 0.0
    for mu, nu in ((4.0, 1.0), (1.0, -1.0), (2.0, 0.0), (3.0, 3.0)):
        for t, s in ((0.3, 0.9), (1.1, -0.4)):
            gt = coherent.su11_flow(mu, nu, t)
            gs = coherent.su11_flow(mu, nu, s)
            gts = coherent.su11_flow(mu, nu, t + s)
            prod = gt.multiply(gs)
            worst_det = max(worst_det, abs(gt.det() - 1.0))
            worst_law = max(worst_law, abs(prod.a - gts.a), abs(prod.b - gts.b))
    return [_check("coherent.su11_determinant", worst_det, 1e-12),
            _check("coherent.su11_group_law", worst_law, 1e-10)]


def _presets():
    """Preset equivalence and conservation laws: HIV against its canonical
    form on CSR entries at cutoff 40, and the canonical forms against their
    charge blocks on dense n 12 matrices."""
    dev_f = max(_framework_deviation("HIV", 40), _canonical_block_deviation(12))
    pm = evolution.preset("HIV", 48)
    model = evolution.FullModel(pm.mapping, (1.0, 1.0), tail_tol=math.inf)
    psi0 = evolution.basis_state(model, (2, 3))
    ts = np.linspace(0.0, 10.0, 21)
    series = evolution.run_series(model, psi0, ts)
    mr = [r.means[0] - r.means[1] for r in series.records]
    return [_check("evolution.hiv_framework_equality", dev_f, 1e-12),
            _check("evolution.hiv_manley_rowe_drift", max(abs(v + 1.0) for v in mr), 1e-8),
            _check("evolution.norm_drift", max(series.norm_errors), 1e-10)]


SECTIONS = (_ladder_algebra, _casimir_invariance, _group_law, _implementers,
            _onemode_diagonal, _onemode_meixner, _hd_spectra, _hd_eigenvectors,
            _hc_bound_state, _gram, _mapped_families, _coherent_states, _disc_flow,
            _presets)


def run_sections():
    """Run ``SECTIONS`` in order, yielding each section's checks stamped
    with the section's wall time."""
    for section in SECTIONS:
        start = perf_counter()
        checks = section()
        seconds = perf_counter() - start
        yield [replace(c, seconds=seconds) for c in checks]


def run_all():
    """Run the invariant suite; returns a list of CheckResult."""
    return [c for checks in run_sections() for c in checks]


def format_report(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        lines.append(f"{r.name:<{width}}  dev={r.deviation:.3e}  "
                     f"tol={r.tolerance:.1e}  {r.seconds:7.3f}s  {r.status()}"
                     + (f"  [{r.note}]" if r.note else ""))
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
