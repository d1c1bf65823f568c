"""Finite-dimensional toolkit for quantitative measurement theory.

The package is organized around a small dense-matrix core:

``opcore``
    operators, tolerances, norms, square roots and fidelity.
``cpmaps``
    Kraus-form operations and channels, duals, compositions, supermatrices,
    and the batched Kraus kernel behind every map application.
``measure``
    observables, instruments, measurement schemes, restriction maps,
    dilations, and repeatability diagnostics.
``conserve``
    additive conserved quantities, conservation checks, variance and
    quantum Fisher information of the apparatus preparation.
``bounds``
    quantitative disturbance / measurement-error / distinguishability
    trade-off bounds evaluated as BoundReport records.
``fixpt``
    fixed-point structure of measurement channels: spectral projector,
    minimal support, restricted fixed-point algebra, norm-1 observables
    and classical post-processing decompositions.
``serialize``
    all of the JSON: matrix and scenario-object codecs, the report writer.
``cli``
    the ``waylab`` command-line entry point (run / builtin / suite).
"""

from .opcore import (
    Operator,
    Tolerance,
    DEFAULT_TOL,
    commutator,
    eigenspace_projector,
    fidelity,
    op_norm,
    psd_sqrt,
)
from .cpmaps import OperationMap
from .measure import Observable, Instrument, MeasurementScheme

__all__ = [
    "Operator",
    "Tolerance",
    "DEFAULT_TOL",
    "commutator",
    "eigenspace_projector",
    "fidelity",
    "op_norm",
    "psd_sqrt",
    "OperationMap",
    "Observable",
    "Instrument",
    "MeasurementScheme",
]

__version__ = "0.1.0"
