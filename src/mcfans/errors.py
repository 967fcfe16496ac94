"""Error types raised across the package.

Everything domain-specific derives from McfError so callers (and the CLI) can
catch one base class; plain ValueError/TypeError are still used for ordinary
bad-argument problems.
"""


class McfError(Exception):
    """Base class for domain errors."""


# --- mutation ---

class SlopeAtMax(McfError):
    """mu_plus requested at a vertex whose slope already equals m."""


class SlopeAtMin(McfError):
    """mu_minus requested at a vertex whose slope is already 0."""


class SignIncoherence(McfError):
    """A mutated column came out with mixed signs (or collapsed to zero)."""


class NotInvertibleHere(McfError):
    """No mu_minus preimage round-trips back to the given state."""


# --- enumeration ---

class NodeCapExceeded(McfError):
    """Exchange-graph closure grew past the configured node cap."""


# --- module categories ---

class UnsupportedType(McfError):
    """Quiver is not simply laced of finite representation type."""


class DualBrickNotFound(McfError):
    """A chamber facet has no (unique) brick whose wall supports it."""


class NotExceptionalSequence(McfError):
    """Sequence fails the hom/ext vanishing required of exceptional sequences."""


# --- fans ---

class NotConfigurable(McfError):
    """State's columns/slopes do not assemble into an exceptional configuration."""


class DualityViolation(McfError):
    """Recovered silting data fails the graded duality pairing."""


# --- render ---

class PoleOnWall(McfError):
    """Projection pole lies on a wall's hyperplane."""


class UnsupportedRank(McfError):
    """Renderer only handles rank 2 and rank 3 pictures."""


# --- dilog ---

class FormMismatch(McfError):
    """q-series operands disagree on truncation order or pairing form."""


class HypothesisViolated(McfError):
    """Module pair fails the orthogonality hypotheses of the identity."""
