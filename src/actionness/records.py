"""The records that the ``storage`` file formats hold: point annotations, ground
truth, pseudo-labels and proposals.

This module imports no numpy, so whatever reads or scores records alone
(``actionness eval``) starts without it. ``signal``, ``evaluation``, ``adm`` and
``decoder`` import these classes from here, so each is also reachable under
its old name, such as ``actionness.adm.PseudoLabel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInputError


def _check_interval(kind: str, start: int, end: int, class_id: int) -> None:
    """Reject an interval outside ``0 <= start <= end`` and a class id below 1, as the file formats do."""
    if start < 0 or start > end:
        raise InvalidInputError(f"{kind} must satisfy 0 <= start <= end, got [{start}, {end}]")
    if class_id < 1:
        raise InvalidInputError(f"{kind} class_id must be >= 1, got {class_id}")


@dataclass(frozen=True)
class PointAnnotation:
    """One annotated snippet (level-1 resolution) with its 1-based class id."""

    video_id: str
    t: int
    class_id: int

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"annotated snippet index must be >= 0, got {self.t}")
        if self.class_id < 1:
            raise InvalidInputError(f"class_id must be >= 1, got {self.class_id}")


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated action interval (inclusive endpoints)."""

    video_id: str
    start: int
    end: int
    class_id: int

    def __post_init__(self):
        _check_interval("instance", self.start, self.end, self.class_id)

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end


@dataclass
class PseudoLabel:
    """A fitted action interval for one annotated point.

    ``gaussian_error`` and ``uniform_error`` are the sums of squared error of
    the two fits. Only labels fitted in this process know them; files do not
    store them, so a loaded label holds NaN, and equality ignores them.
    """

    video_id: str
    t: int
    t_star: int
    sigma: float
    omega: float
    delta: float
    start: int
    end: int
    class_id: int
    degenerate: bool = False
    gaussian_error: float = field(default=math.nan, compare=False, repr=False)
    uniform_error: float = field(default=math.nan, compare=False, repr=False)

    def __post_init__(self):
        _check_interval("pseudo-label", self.start, self.end, self.class_id)


@dataclass
class Proposal:
    """A scored candidate interval (inclusive endpoints)."""

    video_id: str
    start: int
    end: int
    class_id: int
    score: float

    def __post_init__(self):
        _check_interval("proposal", self.start, self.end, self.class_id)
        if not math.isfinite(self.score):
            raise InvalidInputError(f"proposal score must be finite, got {self.score}")

    @property
    def interval(self) -> tuple[int, int]:
        return self.start, self.end
