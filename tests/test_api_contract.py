"""The library's input contract: a refused input raises ``ParameterError``
naming the parameters that put it out of range, an infinity as much as a
NaN, and so does a request the callee cannot serve (a group element no
unitary implements, eigenvectors past a chain's atoms)."""

import math

import numpy as np
import pytest

from multiboson import bogoliubov as bg
from multiboson import coherent as ch
from multiboson import evolution as ev
from multiboson import jacobi
from multiboson import onemode as om
from multiboson import orthopoly as op
from multiboson import rep
from multiboson import twomode as tm
from multiboson.errors import ParameterError

ONE = rep.MultibosonRep(1, (1.0,))
REPS = tm.TwoModeRep(ONE, ONE)
G = bg.GroupElement(1.0, 1)
GENERIC = tm.TwoModeHamiltonian(REPS, G, G, (0, 0))
ONEMODE = om.OneModeHamiltonian(4.0, 1.0, rep.OneModeSector(ONE, 0, 10))
CANONICAL = ev.FullModel(ev.CanonicalInteraction("D", REPS, (0, 0), 10), (1.0, 1.0))
NAN = math.nan
INF = math.inf
ONES = jacobi.JacobiOperator(np.ones_like, np.ones_like, 4)


def _onemode_vectors(mu, nu, n_rows, n_cols):
    """Chain.eigenvectors of the one-mode H at (mu, nu) on a 10-level window."""
    h = om.OneModeHamiltonian(mu, nu, rep.OneModeSector(ONE, 0, 10))
    return om.classify(mu, nu, 1.0).eigenvectors(om.jacobi(h), n_rows, n_cols)


def _block_vectors(block, n_rows, n_cols):
    """Chain.eigenvectors of a two-mode D- or C-block."""
    if isinstance(block, tm.DBlock):
        return tm.hd_chain(block).eigenvectors(tm.hd_block_jacobi(block), n_rows, n_cols)
    return tm.hc_chain(block).eigenvectors(tm.hc_block_jacobi(block), n_rows, n_cols)


REFUSALS = {
    "element-a-zero": (lambda: bg.GroupElement(0.0, 1), ("a",)),
    "element-sigma": (lambda: bg.GroupElement(1.0, 2), ("sigma",)),
    "two-mode-sector": (lambda: tm.TwoModeHamiltonian(REPS, G, G, (1, 0)), ("sector",)),
    "implementer-alpha0-zero": (lambda: bg.implementer(G, 0.0, 4), ("alpha0",)),
    "implementer-alpha0-inf": (lambda: bg.implementer(G, math.inf, 4), ("alpha0",)),
    "implementer-alpha0-nan": (lambda: bg.implementer(G, math.nan, 4), ("alpha0",)),
    # a < 0 factors through the central flip, which no unitary realizes
    "implementer-a-negative": (lambda: bg.implementer(bg.GroupElement(-2.0, 1), 1.0, 4),
                               ("g",)),
    # every request Chain.eigenvectors cannot serve, under one rule
    "eigenvectors-continuum": (lambda: _onemode_vectors(1.0, 0.0, 10, 1), ("n_rows", "n_cols")),
    "eigenvectors-empty": (lambda: _onemode_vectors(4.0, 1.0, 0, 2), ("n_rows", "n_cols")),
    "eigenvectors-unit-columns-past-rows": (lambda: _onemode_vectors(2.0, 2.0, 10, 12),
                                            ("n_rows", "n_cols")),
    "eigenvectors-past-dual-hahn-levels": (lambda: _block_vectors(tm.DBlock(4, 1.3, 0.7), 5, 8),
                                           ("n_rows", "n_cols")),
    "eigenvectors-past-c-block-bound-states": (
        lambda: _block_vectors(tm.CBlock(0, 4.5, 0.5, n_levels=200), 200, 4),
        ("n_rows", "n_cols")),
    "generic-without-n_per_mode": (lambda: ev.FullModel(GENERIC, (1.0, 1.0)), ("n_per_mode",)),
    "onemode-with-n_per_mode": (lambda: ev.FullModel(ONEMODE, (1.0,), n_per_mode=10),
                                ("n_per_mode",)),
    "onemode-evolve-2d-t": (lambda: om.evolve(ONEMODE, np.eye(10)[0], np.zeros((2, 2))),
                            ("t",)),
    "evolver-apply-2d-t": (lambda: ev.InteractionEvolver(CANONICAL).apply(
        ev.basis_state(CANONICAL, (1, 1)), np.zeros((2, 2))), ("t",)),
    "flow-labels-zero": (lambda: ch.su11_flow(0.0, 0.0, 1.0), ("mu", "nu")),
    "generator-weights-n": (lambda: rep.generator_weights(rep.MultibosonRep(2, (1.0, 1.5)), 2),
                            ("n",)),
    "rep-l-fractional": (lambda: rep.MultibosonRep(1.5, (1.0,)), ("l",)),
    "sector-n_levels-fractional": (lambda: rep.OneModeSector(ONE, 0, 2.5), ("n_levels",)),
    "sector-r-fractional": (lambda: rep.OneModeSector(rep.MultibosonRep(2, (1.0, 1.5)), 0.5, 10),
                            ("r",)),
    "laguerre-alpha-nan": (lambda: op.Laguerre(NAN), ("alpha",)),
    "laguerre-alpha-inf": (lambda: op.Laguerre(INF), ("alpha",)),
    "meixner-beta-inf": (lambda: op.Meixner(INF, 0.5), ("beta",)),
    "meixner-pollaczek-lam-inf": (lambda: op.MeixnerPollaczek(INF, 1.0), ("lam",)),
    "dual-hahn-gamma-inf": (lambda: op.DualHahn(INF, 0.0, 3), ("gamma",)),
    "dual-hahn-delta-inf": (lambda: op.DualHahn(0.0, INF, 3), ("delta",)),
    "continuous-dual-hahn-v-inf": (lambda: op.ContinuousDualHahn(1.0, INF, 1.0),
                                   ("u", "v", "w")),
    "meixner-beta-nan": (lambda: op.Meixner(NAN, 0.5), ("beta",)),
    "meixner-c-nan": (lambda: op.Meixner(1.0, NAN), ("c",)),
    "meixner-measure-negative-n_atoms": (lambda: op.Meixner(1.0, 0.5).measure(-1),
                                         ("n_atoms",)),
    "meixner-pollaczek-lam-nan": (lambda: op.MeixnerPollaczek(NAN, 1.0), ("lam",)),
    "meixner-pollaczek-phi-nan": (lambda: op.MeixnerPollaczek(1.0, NAN), ("phi",)),
    # (2 sin phi)^(2 lam) underflows to 0, or the quotient overflows
    "meixner-pollaczek-mass-underflow": (lambda: op.MeixnerPollaczek(50, 1e-5).mass(),
                                         ("lam", "phi")),
    "meixner-pollaczek-mass-phi-tiny": (lambda: op.MeixnerPollaczek(0.75, 1e-300).mass(),
                                        ("lam", "phi")),
    "meixner-pollaczek-mass-overflow": (lambda: op.MeixnerPollaczek(50, 1e-3).mass(),
                                        ("lam", "phi")),
    # Gamma(2 lam) alone overflows, and so does the quotient in one exponent
    "meixner-pollaczek-mass-log-overflow": (
        lambda: op.MeixnerPollaczek(100, math.pi / 2).mass(), ("lam", "phi")),
    "laguerre-mass-overflow": (lambda: op.Laguerre(171.0).mass(), ("alpha",)),
    "meixner-mass-overflow": (lambda: op.Meixner(1000.0, 0.9).mass(), ("beta", "c")),
    "continuous-dual-hahn-atom-weights": (
        lambda: op.ContinuousDualHahn(-40.5, 41.0, 41.0).measure(), ("u", "v", "w")),
    "dual-hahn-gamma-nan": (lambda: op.DualHahn(NAN, 0.0, 3), ("gamma",)),
    "dual-hahn-K-nan": (lambda: op.DualHahn(0.0, 0.0, NAN), ("K",)),
    "continuous-dual-hahn-nan": (lambda: op.ContinuousDualHahn(NAN, 1.0, 1.0), ("u", "v", "w")),
    "spectral-measure-weight-nan": (lambda: op.SpectralMeasure([1.0], [NAN]), ("weights",)),
    "spectral-measure-scale-nan": (lambda: op.SpectralMeasure([1.0], [1.0]).mapped(0.0, NAN),
                                   ("scale",)),
    "poly-table-past-the-last-member": (
        lambda: op.poly_table(op.DualHahn(0.0, 0.0, 3), 10, np.linspace(0.0, 1.0, 3)),
        ("n_max",)),
    "hyp0f1-b-nan": (lambda: op.hyp0f1(NAN, 1.0), ("b",)),
    "hyp0f1-z-nan": (lambda: op.hyp0f1(1.0, NAN), ("z",)),
    "ln-pochhammer-a-nan": (lambda: op.ln_pochhammer(NAN, 2), ("a",)),
    "hyp3f2-n-negative": (lambda: op.hyp3f2_terminating(-1, 1.0, 1.0, 1.0, 1.0), ("n",)),
    "hyp3f2-c-nan": (lambda: op.hyp3f2_terminating(2, 1.0, NAN, 1.0, 1.0), ("c",)),
    "hyp3f2-b-inf": (lambda: op.hyp3f2_terminating(3, INF, 0.5, 1.5, 2.5), ("b",)),
    "jacobi-operator-size": (lambda: jacobi.JacobiOperator(np.ones_like, np.ones_like, 0),
                             ("size",)),
    "oracle-eigs-count-nan": (lambda: jacobi.oracle_eigs(ONES, NAN), ("count",)),
    "radial-moment-order-nan": (lambda: ch.radial_measure(1.0, k_checked=2).moment(NAN),
                                ("k",)),
    # below 0.02 the radial quadrature's integrand overflows
    "radial-measure-alpha0-below-floor": (lambda: ch.radial_measure(0.01, k_checked=3),
                                          ("alpha0",)),
    # only the orders the moment identity checked are held
    "radial-moment-order-unchecked": (lambda: ch.radial_measure(1.0, k_checked=2).moment(3),
                                      ("k",)),
    "coherent-amplitudes-alpha0-zero": (lambda: ch.coherent_amplitudes(0.5, 0.0, 4),
                                        ("alpha0", "n")),
    "holo-apply-alpha0-nan": (lambda: ch.holo_apply("A0", [1.0], NAN), ("alpha0",)),
    "holo-apply-which": (lambda: ch.holo_apply("A1", [1.0], 1.0), ("which",)),
    "su11-element-off-the-group": (lambda: ch.SU11Element(2.0, 0.0), ("a", "b")),
    "disc-eigenfunction-z-nan": (lambda: ch.disc_eigenfunction(1.0, 2.0, 1.0, 1.0, NAN),
                                 ("z",)),
    "disc-eigenfunction-lam-nan": (lambda: ch.disc_eigenfunction(NAN, 2.0, 1.0, 1.0, 0.1),
                                   ("lam",)),
    "disc-eigenfunction-alpha0-zero": (lambda: ch.disc_eigenfunction(1.0, 2.0, 1.0, 0.0, 0.1),
                                       ("alpha0",)),
    "canonical-n_per_mode-one": (lambda: ev.CanonicalInteraction("D", REPS, (0, 0), 1),
                                 ("n_per_mode",)),
    "full-model-omega-nan": (lambda: ev.FullModel(CANONICAL.interaction, (1.0, NAN)),
                             ("omega",)),
    "full-model-tail-tol-zero": (lambda: ev.FullModel(CANONICAL.interaction, (1.0, 1.0),
                                                      tail_tol=0.0), ("tail_tol",)),
    "full-model-interaction-unsupported": (lambda: ev.FullModel("x", (1.0,)),
                                           ("interaction",)),
    "classify-alpha0-nan": (lambda: om.classify(1.0, 0.5, NAN), ("alpha0",)),
    "c-block-n_levels-one": (lambda: tm.CBlock(0, 1.0, 1.0, n_levels=1), ("n_levels",)),
    "observables-3d-amplitudes": (lambda: ev.observables(
        (np.arange(2), np.ones((1, 1, 2))), CANONICAL), ("psi",)),
    # finite but huge family parameters: a value past the double range is
    # refused, with no RuntimeWarning before it
    "laguerre-density-overflow": (lambda: op.Laguerre(1e300).density(2.0), ("alpha",)),
    "meixner-pollaczek-density-overflow": (lambda: op.MeixnerPollaczek(1e300, 1.0).density(1.0),
                                           ("lam", "phi")),
    "continuous-dual-hahn-density-overflow": (
        lambda: op.ContinuousDualHahn(1.0, 1e300, 1.0).density_y(1.0), ("u", "v", "w")),
    "continuous-dual-hahn-recurrence-overflow": (
        lambda: op.ContinuousDualHahn(1.0, 1e300, 1.0).recurrence(np.arange(3.0)),
        ("u", "v", "w")),
    "hyp3f2-sum-overflow": (lambda: op.hyp3f2_terminating(3, 1e300, 1e300, 1.0, 1.0),
                            ("n", "b", "c", "d", "e")),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_parameters(case):
    call, names = REFUSALS[case]
    with pytest.raises(ParameterError) as err:
        call()
    assert err.value.names == names
