"""Exception hierarchy for digraph construction, queries, and search.

Every error raised by this package derives from DigraphError, so callers can
catch one base class at API boundaries.  Errors raised while parsing the text
format carry the 1-based line number on the ``line`` attribute.
"""

from __future__ import annotations


class DigraphError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Loop(DigraphError):
    """An arc from a vertex to itself."""


class DuplicateArc(DigraphError):
    """The same ordered arc listed twice."""


class WithinSideArc(DigraphError):
    """An arc between two vertices of the same partite set."""


class UnknownVertex(DigraphError):
    """A vertex name outside the declared vertex set."""


class ParseError(DigraphError):
    """Malformed header or arc line in the text format."""


class TooLarge(DigraphError):
    """The digraph is above the exhaustive-search order bound."""


class BadLength(DigraphError):
    """A requested cycle length outside [2, n]."""


class InvalidCycle(DigraphError):
    """A vertex sequence that is not a cycle of the host digraph."""


class PreconditionUnmet(DigraphError):
    """An operation's stated precondition does not hold for the input."""


class WitnessNotFound(DigraphError):
    """A witness guaranteed by a claim's hypotheses could not be found.

    This is raised only where absence of the witness contradicts the claim
    under test, so it marks a checked counterexample, not a search failure.
    """


class BadParams(DigraphError):
    """Out-of-range parameters for a generator or search target."""


class BadConfig(DigraphError):
    """An inconsistent or out-of-range search configuration."""
