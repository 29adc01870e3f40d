"""Curvature of quantization bundles: Fock-space models, sphere quantization,
parallel transport, and a hyperbolic slice pairing, with a batch CLI."""

from .linalg import OdeStepper
from .symplectic import (
    QuadraticHamiltonian,
    chi_symbol,
    hamiltonian_from_form,
    omega_pairing,
    p_minus_basis,
    p_plus_basis,
    standard_complex_structure,
    standard_symplectic,
)
from .fock import (
    FockTruncation,
    curvature_operator,
    flat_curvature_operator,
    hamiltonian_bipoly,
    verify_scalar_curvature,
)
from .sphere import (
    HamiltonianField,
    SectionSpace,
    SphereGrid,
    chi_field,
    curvature_calibration,
    curvature_commutator,
    curvature_fd,
    harmonic_imag,
    harmonic_real,
    hamiltonian_from_chart,
    pullback_frame,
    rotation_x,
    rotation_y,
    rotation_z,
    symbol_decay_experiment,
    zonal_harmonic,
)
from .toeplitz import ChartFunction
from .transport import (
    TransportResult,
    intertwine_check,
    parallel_transport,
    schrodinger_propagate,
    transport_residuals,
)
from .teichmuller import (
    SlicePoint,
    h_matrix,
    metric_matrix,
    pairing_closed_form,
    pairing_trace,
    random_slice_point,
    slice_variation,
    wp_integrand,
)

__version__ = "0.1.0"
