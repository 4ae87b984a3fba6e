"""Structural rules: one mechanism per job, pinned where each second one was
deleted.

Each row of ``RULES`` is a pattern (Python ``re``, searched line by line)
that may appear on at most ``limit`` lines of the ``*.py`` files it scans,
bar the files and lines it exempts.  One parametrized test runs every row:
it first checks the row against its own offending ``sample`` line (and
against ``allowed``, a (path, line) the exemption lets pass), so a typo
cannot turn a rule into a no-op, then scans the package and fails with the
row's reason and ``file:line`` of each offending line.  A new deletion adds
one row here.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ("src/**/*.py",)
PKG = "src/multiboson/"


def _why(*lines: str) -> str:
    return " ".join(lines)


QUADRATURE = _why(
    "one quadrature routine (orthopoly._integrate) and one forward three-term",
    "sweep (orthopoly.poly_table)")
TAIL = _why(
    "one tail monitor (evolution.FullModel.tail_tol): states and the one-mode",
    "evolution carry no tail check of their own")
OPTIONS = _why(
    "one value per option: no settable value that only ever takes one real",
    "value (a coefficient convention, a normalize or return_info flag, an",
    "expected-fail status, a zero shift, a quadrature tolerance)")
EXPONENTS = _why(
    "one exponent-tracking sweep: binary exponents (frexp/ldexp) appear only",
    "in the Meixner kernel, jacobi.atom_eigenvector")
APPLY = _why(
    "one spectral apply: eigenvectors are projected and applied only in",
    "jacobi.spectral_coeffs / spectral_apply, as real products with no complex",
    "copy of the eigenvector matrix")
ORACLE = _why(
    "one tridiagonal oracle: raw LAPACK bisection (dstebz) and divide and",
    "conquer (dstevd), and its dense form (dsyevd, jacobi.dense_eigh, for the",
    "generic two-mode matrix), are called only in jacobi.py, which alone",
    "imports scipy.linalg, with one call convention",
    "at every size: no scipy eigh_tridiagonal wrapper and no size threshold",
    "(_SEED_MIN_N); oracle_eigs certifies its leading-block windows by one",
    "Schur-complement enclosure, with no seed or narrow-window pass beside it;",
    "D-block eigenvectors are the oracle's columns, so no second eigenvector",
    "kernel stands beside it")
EIGENVECTORS = _why(
    "one eigenvector source: Chain.eigenvectors serves every closed-form",
    "column (one-mode classes 5-9, D-blocks, C-block bound states) and refuses",
    "what it cannot give, with no per-column wrapper beside it")
ASSEMBLER = _why(
    "one two-mode assembler: twomode writes each entry of the Kronecker",
    "expansion once from the per-mode coefficient diagonals, with no sparse",
    "Kronecker product; twomode alone says",
    "which window positions form each charge block (charges, window_block),",
    "with one level-offset rule for C-blocks and no branch on the sign of K,",
    "and validate uses no private evolution name")
VALIDATE = _why(
    "validate compares the HIV preset with its C-form on CSR entries, so it",
    "forms no dense n^2 x n^2 array of a preset or a mapping (the dense",
    "canonical_matrix appears only in the small charge-block oracle) and reads",
    "no .matrix attribute at all (action_matrix returns the array); and its",
    "sections are the one table validation.SECTIONS, timed in one loop, with",
    "no section timer for bench/record.py to patch")
PAIRING = _why(
    "one atom-pairing rule: the chain record (jacobi.Chain) says which end of",
    "a truncated spectrum closed-form atoms pair with (pairs_top), and no",
    "caller decides it by hand; one spectral-measure record",
    "(orthopoly.SpectralMeasure) holds its atoms as two arrays and its",
    "continuum as plain fields, and TruncationOverflowError carries no unread",
    "cutoff advice")
FLAGS = _why(
    "one flag table: every CLI flag is declared once, in cli._FLAGS, and no",
    "per-flag check, rewrap or catch-all stands beside it")
STATES = _why(
    "one state form: a state is a plain 1-d amplitude array, checked where it",
    "enters evolution, with no wrapper class; the ladder generators of",
    "rep.build_generators_full have one (dense) operator form, and validate",
    "and the CLI apply generators as weighted shifts, with one dense reference",
    "(the Casimir-invariance check)")

TRUNCATION = _why(
    "one truncation rule: a Jacobi operator's coefficient arrays and dense",
    "matrix are taken at its size, and a smaller truncation is",
    "dataclasses.replace(op, size=m), so no array call takes a truncation")
RESTATED = _why(
    "no restated fields: the C-block truncation check keeps no bound-state",
    "count (hc_chain(block).family.n_atoms() says it) and no converged flag",
    "(validate owns the 1e-3 tolerance on its agreement)")
BLOCKS = _why(
    "one block layout: evolution._evolved_blocks yields each occupied block",
    "in ascending charge and InteractionEvolver.apply concatenates them, and",
    "every reader of the (indices, amplitudes) pair is order-free, so",
    "evolution sorts no positions and scatters no block by searchsorted")
SECTOR = _why(
    "one owner of the sector coefficients: the A0, A- and A+ streams are",
    "written only in rep.sector_coeffs, and onemode.jacobi scales them")
PHASES = _why(
    "one time convention: jacobi.spectral_apply forms every interaction phase",
    "e^{-iEt} (a diagonal operator passes no eigenvectors) and alone refuses a",
    "time whose phases overflow; only evolve_full's free phases are formed",
    "beside it")
C_FAMILY = _why(
    "one rule for a C-block's family parameters: the continuous dual Hahn",
    "family is the record, and an exact branch edge is not ambiguous")
ONE_CONFIG = _why(
    "one validate configuration: the suite runs in 0.07 s in process, so no",
    "reduced mode stands beside it")


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: str
    files: tuple[str, ...]        # globs under the repository root
    sample: str                   # one line the rule refuses
    reason: str
    exempt_files: tuple[str, ...] = ()
    exempt_line: str | None = None   # a line holding this text passes
    allowed: tuple[str, str] | None = None   # (path, line) an exemption lets pass
    limit: int = 0                # lines allowed per file


RULES = [
    Rule("second-quadrature-or-sweep", r"scipy\.integrate|forward_eigenvector", SRC,
         "from scipy.integrate import quad_vec", QUADRATURE),
    Rule("tail-check-outside-evolution", r"tail_fraction|tail_tol",
         (PKG + "rep.py", PKG + "onemode.py", PKG + "twomode.py"),
         "    if tail_fraction(psi) > tail_tol:", TAIL),
    Rule("single-value-option",
         r"convention=|hd_convention|normalize=|return_info|expected_fail"
         r"|EXPECTED-FAIL|label\.shift|\bepsabs\b|\bepsrel\b", SRC,
         "def poly_table(family, x, n, normalize=True):", OPTIONS),
    Rule("binary-exponents-outside-kernel", r"frexp|ldexp", SRC,
         "    mant, expo = np.frexp(row)", EXPONENTS,
         exempt_files=(PKG + "jacobi.py",),
         allowed=(PKG + "jacobi.py", "    mant, expo = np.frexp(row)")),
    Rule("eigenvector-transpose-outside-apply", r"(vecs|vectors)\.T", SRC,
         "    coeffs = vectors.T @ psi", APPLY,
         exempt_files=(PKG + "jacobi.py",),
         allowed=(PKG + "jacobi.py", "    return _times_real(phased, vectors.T)")),
    Rule("lapack-outside-jacobi", r"dstebz|dstevd\(|dsyevd|linalg\.eigh\(|scipy\.linalg", SRC,
         "from scipy.linalg.lapack import dstebz", ORACLE,
         exempt_files=(PKG + "jacobi.py",),
         allowed=(PKG + "jacobi.py", "    w, z, info = dstevd(d, e, compute_v=1)")),
    Rule("tridiagonal-wrapper-or-threshold", r"eigh_tridiagonal|_SEED_MIN_N", SRC,
         "from scipy.linalg import eigh_tridiagonal", ORACLE),
    Rule("second-eigenvector-kernel", r"dstein|block_eigenvectors", SRC,
         "def block_eigenvectors(op, energies):", ORACLE),
    Rule("seed-or-narrow-window-pass", r"\b(_seeds|_WINDOW)\b", SRC,
         "_WINDOW = 64", ORACLE),
    Rule("per-column-eigenvector-wrapper",
         r"\b(hd_eigenvectors|eigenvectors_discrete|hc_eigenvectors_discrete)\b", SRC,
         "def hd_eigenvectors(block):", EIGENVECTORS),
    Rule("sparse-kronecker-in-twomode", r"sp\.kron|sparse\.kron", (PKG + "twomode.py",),
         "    return sp.kron(a, b)", ASSEMBLER),
    Rule("charge-block-outside-twomode",
         r"_charge_block_indices|_charge_block_operator|def _charges\b|evolution\._",
         (PKG + "validation.py", PKG + "evolution.py"),
         "    idx = evolution._charge_block_indices(h, psi)", ASSEMBLER),
    Rule("branch-on-sign-of-K", r"if K >= 0|if self\.K >= 0", (PKG + "twomode.py",),
         "        if self.K >= 0:", ASSEMBLER),
    Rule("matrix-attribute-in-validate", r"\.matrix\b", (PKG + "validation.py",),
         "    dense = preset(name, n).matrix", VALIDATE),
    Rule("section-timer", r"_SectionTimer|\.lap\(", SRC + ("bench/**/*.py",),
         "    timer.lap(name)", VALIDATE),
    Rule("hand-made-atom-pairing",
         r"CaseLabel|hc_family|eigenvalue_discrete|manley_rowe_blocks", SRC,
         "def manley_rowe_blocks(kind, n):", PAIRING),
    Rule("second-measure-record",
         r"ContinuousPart|atom_locations|atom_weights|atom_mass|advised_n", SRC,
         "    atom_weights: np.ndarray", PAIRING),
    Rule("pairing-decided-by-caller", r"top=True|top=False|scale < 0", SRC,
         "    atoms = chain.atoms(n, top=True)", PAIRING,
         exempt_files=(PKG + "orthopoly.py", PKG + "jacobi.py"),
         allowed=(PKG + "orthopoly.py", "    atoms = chain.atoms(n, top=True)")),
    Rule("per-flag-check", r"_KNOWN_KEYS|_at_least|_positive|from None|except Exception",
         (PKG + "cli.py",),
         "    except Exception:", FLAGS),
    Rule("state-wrapper-class", r"StateVector", SRC,
         "class StateVector:", STATES),
    Rule("sparse-generators", r"DENSE_LIMIT|diags_array|scipy\.sparse", (PKG + "rep.py",),
         "import scipy.sparse as sp", STATES),
    Rule("sector-matrices-outside-rep", r"sector_matrices",
         (PKG + "validation.py", PKG + "cli.py"),
         "    _, am, _ = rep.sector_matrices(sector)", STATES),
    Rule("second-dense-generator-reference", r"build_generators_full",
         (PKG + "validation.py",),
         "    gens = rep.build_generators_full(rep_, n)", STATES, limit=1),
    Rule("truncation-argument", r"\.(diag_array|offdiag_array|dense)\([^)]",
         SRC + ("bench/**/*.py",), "    d = op.diag_array(x.size)", TRUNCATION),
    Rule("restated-check-field", r"\.(n_bound|converged)\b|^\s+(n_bound|converged):",
         SRC + ("bench/**/*.py",), "    converged: bool           # agreement <= 1e-3",
         RESTATED),
    Rule("sorted-block-positions", r"np\.sort\(|searchsorted", (PKG + "evolution.py",),
         "            out[:, np.searchsorted(indices, idx)] = amps", BLOCKS),
    Rule("sector-coefficients-outside-rep", r"sqrt\(\(k \+ a\) \* \(k \+ 1\.0\)\)", SRC,
         "        offdiag=lambda k: cb * np.sqrt((k + a) * (k + 1.0)),", SECTOR,
         exempt_files=(PKG + "rep.py",),
         allowed=(PKG + "rep.py", "    raising = lambda k: np.sqrt((k + a) * (k + 1.0))")),
    Rule("phases-outside-spectral-apply", r"np\.exp\(-?1j", SRC,
         "        out = np.exp(1j * ts[:, None] * energies) * psi", PHASES,
         exempt_files=(PKG + "jacobi.py",), exempt_line="np.exp(-1j * t * total)",
         allowed=(PKG + "evolution.py", "        phases = np.exp(-1j * t * total)")),
    Rule("branch-edge-candidates", r"BoundaryAmbiguityError|UVWParams|uvw_candidates",
         SRC + ("bench/**/*.py",), '    results["uvw_candidates"] = list(exc.candidates)',
         C_FAMILY),
    Rule("validate-reduced-mode", r"\bquick\b", SRC + ("bench/**/*.py",),
         "def run_all(quick: bool = False):", ONE_CONFIG),
]


def _scanned(rule: Rule) -> list[str]:
    """Paths, relative to the root, of the ``*.py`` files a rule reads."""
    paths = {p.relative_to(ROOT).as_posix() for g in rule.files for p in ROOT.glob(g)}
    return sorted(paths - set(rule.exempt_files))


def _hits(rule: Rule, path: str, lines: list[str]) -> list[str]:
    """``path:line: text`` of each line of ``path`` the rule refuses, or []
    when they number at most ``rule.limit``."""
    if path in rule.exempt_files:
        return []
    found = [f"{path}:{i}: {line.strip()}" for i, line in enumerate(lines, 1)
             if re.search(rule.pattern, line)
             and not (rule.exempt_line and rule.exempt_line in line)]
    return found if len(found) > rule.limit else []


@pytest.mark.parametrize("rule", RULES, ids=[r.name for r in RULES])
def test_structural_rule(rule):
    # the row's own controls: its sample is refused in every scanned file
    # (limit + 1 times, for a counted row), and its exemption lets one line pass
    paths = _scanned(rule)
    assert paths, f"{rule.name}: no file matches {rule.files}"
    assert all((ROOT / p).is_file() for p in rule.exempt_files)
    for path in paths:
        assert _hits(rule, path, [rule.sample] * (rule.limit + 1)), \
            f"{rule.name}: the pattern misses its sample line"
    assert (rule.allowed is not None) == bool(rule.exempt_files or rule.exempt_line)
    if rule.allowed:
        path, line = rule.allowed
        assert re.search(rule.pattern, line)
        assert not _hits(rule, path, [line] * (rule.limit + 1)), \
            f"{rule.name}: the exemption refuses {path}: {line.strip()}"
    # the package itself
    hits = [h for path in paths
            for h in _hits(rule, path, (ROOT / path).read_text(encoding="utf-8").splitlines())]
    assert not hits, f"{rule.name}: {rule.reason}\n" + "\n".join(hits)
