"""Exhaustive ground truth for path statistics and tableau counts.

Every generating function in the package can be checked against this
module: it walks all C((alpha+beta)k, alpha*k) step words of a given
semilength, classifying bounces and horizontal crosses vertex by vertex,
and it counts standard Young tableaux by plain backtracking.  Nothing here
shares code with the closed forms.
"""

import multiprocessing
from collections import Counter
from dataclasses import dataclass

from .beta_one import TwoRowShape
from .closed_forms import Restriction, Slope, Step, binomial

DEFAULT_MAX_STEPS = 24
DEFAULT_MAX_PATHS = 3_000_000


class MalformedPath(ValueError):
    """Step word whose E/N counts do not reach a point on the slope line."""


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class StepWord:
    """A concrete lattice path as a sequence of E/N steps."""

    steps: tuple[Step, ...]

    @staticmethod
    def from_string(word: str) -> "StepWord":
        try:
            return StepWord(tuple(Step(ch) for ch in word.upper()))
        except ValueError:
            raise MalformedPath(f"step word {word!r} contains non-E/N characters")

    def __str__(self):
        return "".join(step.value for step in self.steps)


@dataclass(frozen=True)
class BounceProfile:
    """Per-path statistics; ``horizontal_crosses`` is None unless beta = 1."""

    left: int
    right: int
    horizontal_crosses: int | None
    first: Step
    last: Step

    @property
    def bounce_free(self) -> bool:
        return self.left == 0 and self.right == 0

    @property
    def total_bounces(self) -> int:
        return self.left + self.right


def classify(path: "StepWord | str", slope: Slope) -> BounceProfile:
    """Walk a single path and record its bounce/cross statistics.

    Raises MalformedPath when the E/N counts are inconsistent with the
    slope, i.e. the endpoint is not (alpha*k, beta*k) for some k >= 1.
    """
    if isinstance(path, str):
        path = StepWord.from_string(path)
    steps = path.steps
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


def _run(alpha, beta, k, seeds, depth_limit):
    """Depth-first walk over all completions of the seed states.

    Returns raw profile counts keyed (first, last, left, right, crosses)
    plus the states that hit the depth limit (empty when the limit exceeds
    the remaining path length).
    """
    ex, ey = alpha * k, beta * k
    track_h = beta == 1
    counts: dict[tuple, int] = {}
    frontier: list[tuple] = []

    def walk(x, y, last, l, r, h, first, depth):
        if x == ex and y == ey:
            key = (first, last, l, r, h)
            counts[key] = counts.get(key, 0) + 1
            return
        if depth == 0:
            frontier.append((x, y, last, l, r, h, first))
            return
        d = depth - 1
        if alpha * y == beta * x:
            if last == "E":
                if y < ey:
                    walk(x, y + 1, "N", l + 1, r, h, first, d)
                if x < ex:
                    walk(x + 1, y, "E", l, r, h + 1 if track_h else h, first, d)
            else:
                if x < ex:
                    walk(x + 1, y, "E", l, r + 1, h, first, d)
                if y < ey:
                    walk(x, y + 1, "N", l, r, h, first, d)
        else:
            if x < ex:
                walk(x + 1, y, "E", l, r, h, first, d)
            if y < ey:
                walk(x, y + 1, "N", l, r, h, first, d)

    for x, y, last, l, r, h, first in seeds:
        walk(x, y, last, l, r, h, first, depth_limit)
    return counts, frontier


_INITIAL = ((1, 0, "E", 0, 0, 0, "E"), (0, 1, "N", 0, 0, 0, "N"))


def _run_job(args):
    alpha, beta, k, seeds = args
    counts, _ = _run(alpha, beta, k, seeds, (alpha + beta) * k)
    return counts


def _merge(into: dict, more: dict) -> dict:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


_cache: dict[tuple[int, int, int], dict[tuple, int]] = {}


def enumerate_profiles(
    slope: Slope,
    k: int,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_paths: int = DEFAULT_MAX_PATHS,
    processes: int = 1,
) -> Counter:
    """Classify every path of semilength k; returns a profile multiset.

    Results are cached per (slope, k); splitting the walk over worker
    processes (``processes > 1``) yields identical counts by construction
    of the merge.
    """
    if k < 1:
        raise ValueError("semilength must be at least 1")
    alpha, beta = slope.alpha, slope.beta
    steps = (alpha + beta) * k
    if steps > max_steps:
        raise BudgetExceeded(f"{steps} steps exceed the budget of {max_steps}")
    total = binomial(steps, alpha * k)
    if total > max_paths:
        raise BudgetExceeded(f"{total} paths exceed the budget of {max_paths}")

    key = (alpha, beta, k)
    raw = _cache.get(key)
    if raw is None:
        split_depth = steps - 2
        if processes > 1 and split_depth >= 1:
            raw, frontier = _run(alpha, beta, k, _INITIAL, min(split_depth, 8))
            chunk = max(1, len(frontier) // (4 * processes))
            jobs = [
                (alpha, beta, k, frontier[i : i + chunk])
                for i in range(0, len(frontier), chunk)
            ]
            with multiprocessing.Pool(processes) as pool:
                for part in pool.imap_unordered(_run_job, jobs):
                    _merge(raw, part)
        else:
            raw, _ = _run(alpha, beta, k, _INITIAL, steps)
        if sum(raw.values()) != total:
            raise RuntimeError("the walk lost or duplicated paths; this is a bug")
        _cache[key] = raw

    track_h = beta == 1
    profiles: Counter = Counter()
    for (first, last, left, right, crosses), count in raw.items():
        profiles[
            BounceProfile(
                left=left,
                right=right,
                horizontal_crosses=crosses if track_h else None,
                first=Step(first),
                last=Step(last),
            )
        ] = count
    return profiles


def count_table(
    slope: Slope,
    k: int,
    restriction: Restriction = Restriction.ALL,
    **budget,
) -> dict[tuple[int, int], int]:
    """Counts of semilength-k paths grouped by (left, right) bounce counts."""
    profiles = enumerate_profiles(slope, k, **budget)
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
    """Total count of profiles matching all the given filters."""
    total = 0
    for profile, count in profiles.items():
        if first is not None and profile.first is not first:
            continue
        if last is not None and profile.last is not last:
            continue
        if left is not None and profile.left != left:
            continue
        if right is not None and profile.right != right:
            continue
        if crosses is not None and profile.horizontal_crosses != crosses:
            continue
        if total_bounces is not None and profile.total_bounces != total_bounces:
            continue
        total += count
    return total


# ------------------------------------------------------------------ tableaux


def enumerate_syt(shape: TwoRowShape, max_cells: int = 12) -> int:
    """Count standard fillings of the shape by backtracking.

    Places 1, 2, ... into the diagram, branching over every row whose next
    free cell keeps rows left-justified and columns increasing.  The default
    budget suits interactive use; callers may raise it explicitly.
    """
    partition = shape.as_partition()
    cells = sum(partition)
    if cells > max_cells:
        raise BudgetExceeded(f"{cells} cells exceed the budget of {max_cells}")
    if cells == 0:
        return 1

    rows = [0] * len(partition)

    def place(placed: int) -> int:
        if placed == cells:
            return 1
        found = 0
        for i, filled in enumerate(rows):
            if filled < partition[i] and (i == 0 or rows[i - 1] > filled):
                rows[i] = filled + 1
                found += place(placed + 1)
                rows[i] = filled
        return found

    return place(0)
