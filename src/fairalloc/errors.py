"""Exception hierarchy shared across the package."""


class FairAllocError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(FairAllocError):
    """Valuation data does not describe a well-formed instance."""


class InvalidAllocation(FairAllocError):
    """Bundles overlap, reference unknown items, or do not match the instance."""


class InstanceTooSmall(FairAllocError):
    """The solvers need at least as many items as agents."""


class ImprovingCycleExists(FairAllocError):
    """Envy ranks are requested on a graph that still admits an improving cycle."""

    def __init__(self, cycle: tuple[int, ...]) -> None:
        super().__init__(
            f"envy ranks are undefined: the cycle {cycle} has weight product above 1"
        )
        self.cycle = cycle


class CyclicEnvyGraph(FairAllocError):
    """A topological order is requested but the strict envy graph has a cycle."""


class LimitExceeded(FairAllocError):
    """A brute-force oracle refused to enumerate past its configured limits."""


class InternalGuaranteeViolated(FairAllocError):
    """A guarantee the algorithm must maintain failed an exact check.

    This is always an implementation defect, never a legitimate runtime
    condition for valid inputs.
    """
