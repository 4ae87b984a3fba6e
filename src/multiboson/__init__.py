"""Exactly solvable multiboson cluster models.

Ladder (sl(2)-type) representations built from l-boson clusters on a
truncated Fock space, one- and two-mode quadratic-Casimir Hamiltonians
diagonalized through classical orthogonal polynomials, coherent-state
calculus, and time evolution of occupation observables -- every closed form
cross-checked against an independent tridiagonal eigensolver.

Callers import the modules (rep, onemode, twomode, coherent, evolution, ...):
each public name lives in one module, whose __all__ declares it.
"""

__version__ = "0.1.0"
