"""Exhaustive ground truth for path statistics and tableau counts.

Every generating function in the package can be checked against this
module: it counts all C((alpha+beta)k, alpha*k) step words of a given
semilength by their bounces, and on request their horizontal crosses, with
a transfer count over the grid (Stanley, EC1 4.7), classifying each line
vertex as ``classify`` does; each state carries its whole (left, right)
distribution packed into one int.  It also counts two-row standard Young tableaux, given as
a :class:`TwoRowShape`, as ballot sequences.  Nothing here shares code with
the generating functions: from the package it imports only the slope,
step and restriction types, ``binomial`` for the sweep's path-count
self-check, and the record base of :mod:`bouncepaths.series`.
"""

from collections import Counter

from .closed_forms import Restriction, Slope, Step, binomial
from .series import _Record

# Longest paths the oracle walks.  The sweep's cost grows with its state
# count, which stays small up to 40 steps even for the costliest slope, (1, 1).
MAX_STEPS = 40


class MalformedPath(ValueError):
    """Step word whose E/N counts do not reach a point on the slope line."""


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the oracle's budget."""


class BounceProfile(_Record):
    """Per-path statistics; ``horizontal_crosses`` is None unless beta = 1."""

    __slots__ = ("left", "right", "horizontal_crosses", "first", "last")

    def __init__(
        self, left: int, right: int, horizontal_crosses: int | None, first: Step, last: Step
    ):
        super().__init__(left, right, horizontal_crosses, first, last)

    @property
    def total_bounces(self) -> int:
        return self.left + self.right


def classify(word: str, slope: Slope) -> BounceProfile:
    """Walk a single path, given as its step word of E and N in either case,
    and record its bounce/cross statistics.

    Raises MalformedPath when the word holds another character, or when its
    E/N counts are inconsistent with the slope, i.e. the endpoint is not
    (alpha*k, beta*k) for some k >= 1.
    """
    try:
        steps = [Step(ch) for ch in word.upper()]
    except ValueError:
        raise MalformedPath(f"step word {word!r} contains non-E/N characters")
    east = sum(1 for s in steps if s is Step.E)
    north = len(steps) - east
    alpha, beta = slope.alpha, slope.beta
    if not steps or east * beta != north * alpha:
        raise MalformedPath(
            f"endpoint ({east}, {north}) does not lie on the slope ({alpha}, {beta})"
        )

    track_h = beta == 1
    left = right = crosses = 0
    x = y = 0
    for i, step in enumerate(steps):
        if step is Step.E:
            x += 1
        else:
            y += 1
        if i + 1 == len(steps):
            break
        if alpha * y == beta * x:
            outgoing = steps[i + 1]
            if step is Step.E and outgoing is Step.N:
                left += 1
            elif step is Step.N and outgoing is Step.E:
                right += 1
            elif track_h and step is Step.E and outgoing is Step.E:
                crosses += 1
    return BounceProfile(
        left=left,
        right=right,
        horizontal_crosses=crosses if track_h else None,
        first=steps[0],
        last=steps[-1],
    )


# ------------------------------------------------------------- full sweeps


def _sweep(alpha, beta, k, width, track_h):
    """Transfer count over all paths to (alpha*k, beta*k), one step at a time.

    After ``steps`` steps the state (x, last, first, crosses) fixes the
    vertex (x, steps - x); a vertex on the line is classified as
    ``classify`` does it before the next step leaves it.  The origin and the
    endpoint are not classified.  Only two fields vary with the walk:
    - ``last``, the arrival step, is kept only at the step's line vertex,
      x = alpha * steps / (alpha + beta), which includes the endpoint, and
      is None elsewhere.  Merging those states is exact: a vertex off the
      line is not classified, and the step that leaves it is the next
      vertex's arrival step, so no later step reads the one before;
    - ``crosses`` counts horizontal crosses when ``track_h``, else stays 0.
    A state's value packs its path counts by (left, right) into one int,
    ``width`` bits for slot l*k + r: a right bounce shifts it by one slot, a
    left bounce by k slots, and merging two states adds their ints.  No slot
    spills into another:
    - a path meets the line at k - 1 inner points, so l, r < k and slot
      l*k + r names one (l, r);
    - a slot counts prefixes of one length that still reach the endpoint,
      and those extend to disjoint sets of paths, so no slot exceeds
      C((alpha+beta)k, alpha*k); with ``width`` past that count's bit
      length, no sum carries into the next slot.
    Returns the path counts as a Counter of :class:`BounceProfile`.
    """
    E, N = Step.E, Step.N
    ex, ey = alpha * k, beta * k
    right, left = width, width * k
    # a line vertex needs alpha + beta | steps (the slope is coprime), so
    # none is one step from the origin
    states = {(1, None, E, 0): 1, (0, None, N, 0): 1}
    line = -1
    for steps in range(1, ex + ey):
        rounds, rest = divmod(steps + 1, alpha + beta)
        after = -1 if rest else alpha * rounds
        advanced: dict[tuple, int] = {}
        for (x, last, first, h), packed in states.items():
            on_line = x == line
            if x < ex:
                arrival = E if x + 1 == after else None
                if on_line and last is N:
                    key, value = (x + 1, arrival, first, h), packed << right
                elif on_line and track_h:  # E in, E out: a horizontal cross
                    key, value = (x + 1, arrival, first, h + 1), packed
                else:
                    key, value = (x + 1, arrival, first, h), packed
                advanced[key] = advanced.get(key, 0) + value
            if steps - x < ey:
                key = (x, N if x == after else None, first, h)
                value = packed << left if on_line and last is E else packed
                advanced[key] = advanced.get(key, 0) + value
        states, line = advanced, after
    mask = (1 << width) - 1
    profiles = Counter()
    for (_, last, first, h), packed in states.items():
        h = h if track_h else None
        slot = 0
        while packed:
            if count := packed & mask:
                profiles[BounceProfile(*divmod(slot, k), h, first, last)] = count
            packed >>= width
            slot += 1
    return profiles


def enumerate_profiles(slope: Slope, k: int, *, crosses: bool = False) -> Counter:
    """Classify every path of semilength k; returns a profile multiset.

    Horizontal crosses are counted only with ``crosses=True`` and beta = 1.
    Otherwise every profile has ``horizontal_crosses=None``, as ``classify``
    gives for beta != 1, and paths that differ only in their crosses share
    one profile.
    """
    if k < 1:
        raise ValueError("semilength must be at least 1")
    alpha, beta = slope.alpha, slope.beta
    steps = (alpha + beta) * k
    if steps > MAX_STEPS:
        raise BudgetExceeded(f"{steps} steps exceed the budget of {MAX_STEPS}")

    paths = binomial(steps, alpha * k)
    profiles = _sweep(alpha, beta, k, paths.bit_length() + 1, crosses and beta == 1)
    # also fails if a slot carried into its neighbour
    if sum(profiles.values()) != paths:
        raise RuntimeError("the sweep lost or duplicated paths; this is a bug")
    return profiles


def count_table(
    profiles: Counter, restriction: Restriction = Restriction.ALL
) -> dict[tuple[int, int], int]:
    """Counts of a profile multiset grouped by (left, right) bounce counts."""
    first, last = restriction.first, restriction.last
    table: dict[tuple[int, int], int] = {}
    for profile, count in profiles.items():
        if first is not None and profile.first is not first:
            continue
        if last is not None and profile.last is not last:
            continue
        cell = (profile.left, profile.right)
        table[cell] = table.get(cell, 0) + count
    return table


def count_matching(
    profiles: Counter,
    *,
    first: Step | None = None,
    last: Step | None = None,
    left: int | None = None,
    right: int | None = None,
    crosses: int | None = None,
    total_bounces: int | None = None,
) -> int:
    """Total count of profiles matching all the given filters; ``crosses``
    raises ValueError on profiles that carry none (beta != 1, or
    ``enumerate_profiles`` called without ``crosses=True``)."""
    total = 0
    for profile, count in profiles.items():
        if crosses is not None and profile.horizontal_crosses != crosses:
            if profile.horizontal_crosses is None:
                raise ValueError(
                    "horizontal crosses are tracked only when beta = 1 "
                    "and enumerate_profiles is called with crosses=True"
                )
            continue
        if first is not None and profile.first is not first:
            continue
        if last is not None and profile.last is not last:
            continue
        if left is not None and profile.left != left:
            continue
        if right is not None and profile.right != right:
            continue
        if total_bounces is not None and profile.total_bounces != total_bounces:
            continue
        total += count
    return total


# ------------------------------------------------------------------ tableaux


class InvalidShape(ValueError):
    """Raised when the requested diagram rows are not weakly decreasing."""


class TwoRowShape(_Record):
    """Young diagram with two rows, the second possibly empty."""

    __slots__ = ("first_row", "second_row")

    def __init__(self, first_row: int, second_row: int):
        if not first_row >= second_row >= 0:
            raise InvalidShape(f"rows ({first_row}, {second_row}) must be weakly decreasing")
        super().__init__(first_row, second_row)

    def as_partition(self) -> tuple[int, ...]:
        if self.second_row == 0:
            return (self.first_row,)
        return (self.first_row, self.second_row)


def enumerate_syt(shape: TwoRowShape) -> int:
    """Count standard fillings of the shape as ballot sequences.

    Each entry goes into row 1 or row 2, and row 2 may never hold more
    entries than row 1.  After pass i, ``ways[j]`` counts the words with i
    entries in row 1 and j in row 2 whose every prefix obeys that rule: the
    last entry went into row 1 (``ways[j]`` of pass i - 1) or into row 2
    (``ways[j - 1]`` of pass i).  The cost is O(cells^2).
    """
    second = shape.second_row
    ways = [1] + [0] * second
    for i in range(1, shape.first_row + 1):
        for j in range(1, min(i, second) + 1):
            ways[j] += ways[j - 1]
    return ways[second]
