"""The library's input contract: a refused input raises ``ParameterError``
naming the parameters that put it out of range."""

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
ONES = jacobi.JacobiOperator(np.ones_like, np.ones_like, 4)

REFUSALS = {
    "element-a-zero": (lambda: bg.GroupElement(0.0, 1), ("a",)),
    "element-sigma": (lambda: bg.GroupElement(1.0, 2), ("sigma",)),
    "two-mode-sector": (lambda: tm.TwoModeHamiltonian(REPS, G, G, (1, 0)), ("sector",)),
    "implementer-alpha0-zero": (lambda: bg.implementer(G, 0.0, 4), ("alpha0",)),
    "implementer-alpha0-inf": (lambda: bg.implementer(G, math.inf, 4), ("alpha0",)),
    "implementer-alpha0-nan": (lambda: bg.implementer(G, math.nan, 4), ("alpha0",)),
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
    "jacobi-operator-size": (lambda: jacobi.JacobiOperator(np.ones_like, np.ones_like, 0),
                             ("size",)),
    "oracle-eigs-count-nan": (lambda: jacobi.oracle_eigs(ONES, NAN), ("count",)),
    "radial-moment-order-nan": (lambda: ch.radial_measure(1.0, k_checked=2).moment(NAN),
                                ("k",)),
    "holo-apply-alpha0-nan": (lambda: ch.holo_apply("A0", [1.0], NAN), ("alpha0",)),
    "holo-apply-which": (lambda: ch.holo_apply("A1", [1.0], 1.0), ("which",)),
    "su11-element-off-the-group": (lambda: ch.SU11Element(2.0, 0.0), ("a", "b")),
    "disc-eigenfunction-z-nan": (lambda: ch.disc_eigenfunction(1.0, 2.0, 1.0, 1.0, NAN),
                                 ("z",)),
    "disc-eigenfunction-lam-nan": (lambda: ch.disc_eigenfunction(NAN, 2.0, 1.0, 1.0, 0.1),
                                   ("lam",)),
    "observables-3d-amplitudes": (lambda: ev.observables(
        (np.arange(2), np.ones((1, 1, 2))), CANONICAL), ("psi",)),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_parameters(case):
    call, names = REFUSALS[case]
    with pytest.raises(ParameterError) as err:
        call()
    assert err.value.names == names
