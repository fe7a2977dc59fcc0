"""Bipartite wave-function simulation on a 1-D lattice.

Single-particle Hamiltonians and their spectra, bipartite kernel dynamics
under the difference operator H(x) - H(y), Schmidt/entropy analysis, the
kernel-operator measurement functional, two-slit duality scenarios, and
collapse statistics.
"""

from .lattice import (
    Grid1D,
    HamiltonianMatrix,
    PotentialSpec,
    build_grid,
    box_grid,
    build_hamiltonian,
    load_potential_csv,
    sample_potential,
)
from .spectra import (
    EigenSystem,
    GapSpectrum,
    difference_operator_spectrum,
    distinct_gaps,
    eigensystem,
    eigenvalues,
    gap_spectrum,
)
from .dynamics import (
    BipartiteWave,
    CrankNicolsonStepper,
    PropagatorConfig,
    SpectralPropagator,
    WaveFunction,
    bipartite_norm,
    eigenbasis_bipartite_evolution,
    gaussian_packet,
    normalize,
    propagate_schrodinger,
    propagate_vnl,
    propagator,
)
from .bipartite import (
    CollapseStatistics,
    SchmidtDecomposition,
    TransitionAmplitudes,
    apply_rho,
    collapse_statistics,
    entanglement_entropy,
    entropy_from_reduced,
    expectation,
    from_product,
    position_density,
    projection_probability,
    projector,
    schmidt,
    schmidt_reconstruction,
    transition_amplitudes,
)
from .scenarios import (
    ScenarioReport,
    SlitModes,
    TwoSlitCoefficients,
    complementarity_sweep,
    fringe_visibility,
    make_slit_modes,
    run_scenario,
    two_slit_state,
    write_report,
)

__version__ = "0.1.0"
