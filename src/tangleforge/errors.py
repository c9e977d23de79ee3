"""Exception types shared across the package."""


class TangleForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(TangleForgeError):
    """A system, tree, or input file violates a structural axiom."""

    def __init__(self, message, issues=None):
        super().__init__(message)
        self.issues = list(issues or [])


class InconsistentInput(TangleForgeError):
    """An operation requiring a consistent set was given an inconsistent one."""


class GroundMismatch(TangleForgeError):
    """A partial orientation comes from a system the family is not bound to."""


class SystemIsAView(TangleForgeError):
    """A check over every id of a system was given a view of one."""


class MissingCapability(TangleForgeError):
    """The system lacks structure (lattice ops, ground data) the caller needs."""


class NotComplementClosed(TangleForgeError):
    """Bipartition sides are not closed under complementation."""


class NotATangle(TangleForgeError):
    """The given orientation is not a tangle of the expected kind."""


class MalformedTree(TangleForgeError):
    """A tree violates the separation-tree axioms where they were relied on."""


class LeafHasNoSep(TangleForgeError):
    """Asked for the split separation of a leaf node."""


class NotAStructureTree(TangleForgeError):
    """An operation requiring a structure tree was given something weaker."""


class NotOrdered(TangleForgeError):
    """An operation requiring an ordered tree was given an unordered one."""


class NonStandardFamily(TangleForgeError):
    """Construction got blocked by a co-trivial element the family does not forbid."""


class BudgetExceeded(TangleForgeError):
    """Brute-force enumeration refused an input over its configured budget,
    or a system loaded or generated from a ground has more separations
    (below the order bound) than ``system.MAX_SEPARATIONS``."""


class NodeCapExceeded(BudgetExceeded):
    """Tree construction grew past ``build.MAX_TREE_NODES`` nodes."""


class DuplicateQuestionWarning(UserWarning):
    """Two questionnaire columns induce the same bipartition; they were merged."""
