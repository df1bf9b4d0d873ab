"""Exception hierarchy shared by all slopeflow modules."""


class InputError(ValueError):
    """Bad user input: malformed classes, parameters out of range, invalid configs."""


class NotBigError(InputError):
    """The class has no Zariski decomposition with positive volume."""


class NoMonotoneSolutionError(InputError):
    """The requested steady profile would need the excluded negative branch."""


class AdmissibilityError(InputError):
    """A momentum profile fails its admissibility predicate."""


class ModelInconsistencyError(RuntimeError):
    """Surface data violates structural assumptions (Hodge index, curve Gram)."""


class TimeStepError(RuntimeError):
    """A time step failed: a singular implicit system or a non-finite update."""


class MonitorViolationError(RuntimeError):
    """A runtime flow monitor detected an impossible state (solver bug)."""
