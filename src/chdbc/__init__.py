"""Finite element solver for the Cahn-Hilliard equation with dynamic
Cahn-Hilliard boundary conditions on a 2-D disk."""

from .analysis import ErrorReport, eoc, final_error, h1_norm, l2_norm
from .assembly import (
    assemble_bulk_mass,
    assemble_bulk_stiffness,
    assemble_mass,
    assemble_stiffness,
    assemble_surface_mass,
    assemble_surface_stiffness,
    load_vector,
    nodal_interpolate,
    nonlinearity_vector,
)
from .integrator import (
    BDFScheme,
    Stepper,
    Trajectory,
    bdf_scheme,
    bdf_step,
    run,
    step_count,
)
from .mesh import (
    Mesh2D,
    MeshFormatError,
    boundary_length,
    bulk_area,
    export_mesh,
    generate_disk_mesh,
    import_mesh,
    mesh_size,
    validate_mesh,
)
from .problems import (
    ProblemSpec,
    evolution_problem,
    manufactured_linear,
    manufactured_nonlinear,
    problem_by_name,
    verify_manufactured,
)
from .saddle import StepMatrix, build_step_matrix, nested_dissection_order

__version__ = "0.1.0"

__all__ = [
    "BDFScheme",
    "ErrorReport",
    "Mesh2D",
    "MeshFormatError",
    "ProblemSpec",
    "StepMatrix",
    "Stepper",
    "Trajectory",
    "assemble_bulk_mass",
    "assemble_bulk_stiffness",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_surface_mass",
    "assemble_surface_stiffness",
    "bdf_scheme",
    "bdf_step",
    "boundary_length",
    "bulk_area",
    "eoc",
    "evolution_problem",
    "export_mesh",
    "final_error",
    "generate_disk_mesh",
    "h1_norm",
    "import_mesh",
    "l2_norm",
    "load_vector",
    "manufactured_linear",
    "manufactured_nonlinear",
    "mesh_size",
    "nested_dissection_order",
    "nodal_interpolate",
    "nonlinearity_vector",
    "problem_by_name",
    "run",
    "step_count",
    "validate_mesh",
    "verify_manufactured",
]
