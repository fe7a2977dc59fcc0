"""Bipartite wave-function simulation on a 1-D lattice.

Single-particle Hamiltonians and their spectra, bipartite kernel dynamics
under the difference operator H(x) - H(y), Schmidt/entropy analysis, the
kernel-operator measurement functional, two-slit duality scenarios, and
collapse statistics.

Each public name is imported from its module on first access, so importing
the package, or `vnlw.cli` to check a config, loads no numpy or scipy.  A
numeric run loads numpy and, through `vnlw._lapack`, scipy's LAPACK and BLAS
extension modules from their files, and nothing else of scipy: not the
scipy package, scipy.linalg or scipy.sparse.
"""

import importlib

_EXPORTS = {
    "lattice": "Grid1D HamiltonianMatrix build_grid box_grid build_hamiltonian "
    "sample_potential",
    "spectra": "EigenSystem distinct_gaps eigensystem eigenvalues gap_spectrum",
    "dynamics": "BipartiteWave CrankNicolsonStepper PropagatorConfig SpectralPropagator WaveFunction "
    "bipartite_norm gaussian_packet normalize propagate_amplitudes propagate_schrodinger propagate_vnl",
    "bipartite": "CollapseStatistics SchmidtDecomposition TransitionAmplitudes apply_rho "
    "collapse_statistics entanglement_entropy entropy_from_reduced expectation from_product "
    "position_density projection_probability projector schmidt transition_amplitudes",
    "scenarios": "ScenarioReport complementarity_sweep fringe_visibility make_slit_modes run_scenario "
    "two_slit_state write_report",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
