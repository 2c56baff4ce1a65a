"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid geometric input: degenerate, self-intersecting, or out of domain."""


class StarShapeError(GeometryError):
    """Contour is not star-shaped about the requested center."""


class MeshError(ValueError):
    """Mesh construction or internal consistency failure."""


class ConfigurationError(ValueError):
    """Invalid or conflicting configuration values."""


class ConstraintConflictError(ValueError):
    """Two Dirichlet constraints disagree on the same degree of freedom."""


class SolverError(RuntimeError):
    """Linear solve failed or did not meet its residual contract.

    ``column`` is the index of the failing right-hand side when the failure
    belongs to one column of a multi-right-hand-side solve, else None.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column
