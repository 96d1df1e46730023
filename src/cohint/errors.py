"""Exception hierarchy shared by all modules.

The two classes map onto CLI exit codes: bad input (1) and violated
internal assumptions such as an induction numerator that does not divide
out (3).  A failed verification ledger (2) is a report, not an exception.
"""


class CohintError(Exception):
    """Base class for all package errors."""


class InputError(CohintError):
    """Malformed or mathematically inadmissible input data."""


class InternalCheckError(CohintError):
    """An invariant that should hold for admissible inputs was violated."""
