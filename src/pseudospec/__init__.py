"""Approximated standard and structured pseudospectra of small dense
matrices via Wilkinson rank-one perturbations and their structure
projections, with an SVD-grid oracle and random-perturbation baselines."""

from .approx import (
    PointCloud,
    SweepConfig,
    coalescence_gap,
    first_order_trajectories,
    random_cloud,
    sweep_wilkinson,
)
from .numkernel import (
    Eigensystem,
    eig_pairs,
    sigma_min_batch,
)
from .oracle import (
    GridField,
    abscissa_grid,
    cloud_inclusion_check,
    grid_field,
)
from .sensitivity import (
    SensitivityReport,
    analyze,
    coalescence_estimate,
    kappas,
    wilkinson,
)
from .structures import (
    StructurePattern,
    full,
    hamiltonian,
    hamiltonian_phase_normalize,
    hankel,
    is_member,
    normalized_projection,
    project,
    projection_norms,
    random_member,
    random_rank_one,
    toeplitz,
    toeplitz_matrix,
    toeplitz_support_of,
)

__version__ = "0.1.0"
