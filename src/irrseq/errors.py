"""Exception types shared across the package."""


class PolyParseError(ValueError):
    """Raised when a polynomial string does not match the input grammar."""


class ReducibleError(ValueError):
    """Raised when a seed or field modulus that must be irreducible is not."""


class NonResidueError(ValueError):
    """Raised when a square root is requested for a quadratic non-residue."""


class InternalInvariantError(RuntimeError):
    """Raised when a mathematically guaranteed invariant fails at runtime.

    Seeing this exception means the implementation (not the caller's input)
    is wrong; it is never part of normal control flow.
    """
