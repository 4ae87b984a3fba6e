"""The library's input contract: a refused input raises ``ParameterError``
naming the parameters that put it out of range."""

import math

import numpy as np
import pytest

from multiboson import bogoliubov as bg
from multiboson import coherent as ch
from multiboson import evolution as ev
from multiboson import onemode as om
from multiboson import rep
from multiboson import twomode as tm
from multiboson.errors import ParameterError

ONE = rep.MultibosonRep(1, (1.0,))
REPS = tm.TwoModeRep(ONE, ONE)
G = bg.GroupElement(1.0, 1)
GENERIC = tm.TwoModeHamiltonian(REPS, G, G, (0, 0))
ONEMODE = om.OneModeHamiltonian(4.0, 1.0, rep.OneModeSector(ONE, 0, 10))
CANONICAL = ev.FullModel(ev.CanonicalInteraction("D", REPS, (0, 0), 10), (1.0, 1.0))

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
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_parameters(case):
    call, names = REFUSALS[case]
    with pytest.raises(ParameterError) as err:
        call()
    assert err.value.names == names
