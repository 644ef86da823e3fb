import ast
import enum
import itertools
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bouncepaths import enumeration
from bouncepaths.closed_forms import Restriction, Slope, Step, binomial
from bouncepaths.enumeration import (
    BounceProfile,
    BudgetExceeded,
    MalformedPath,
    TwoRowShape,
    classify,
    count_matching,
    count_table,
    enumerate_profiles,
    enumerate_syt,
)
from bouncepaths.verify import _hook_length_count, syt_two_row_count


# ----------------------------------------------------------------- classify


def test_classify_hand_traced_paths():
    p = classify("NENE", Slope(1, 1))
    assert (p.left, p.right) == (1, 0)
    assert p.first is Step.N and p.last is Step.E
    assert p.total_bounces != 0

    p = classify("ENEN", Slope(1, 1))
    assert (p.left, p.right) == (0, 1)

    p = classify("ENE", Slope(2, 1))
    assert (p.left, p.right, p.horizontal_crosses) == (0, 0, 0)
    assert p.total_bounces == 0


def test_classify_counts_horizontal_crosses():
    # NEEN passes through (1, 1) with an E on both sides
    p = classify("NEEN", Slope(1, 1))
    assert p.horizontal_crosses == 1
    assert p.total_bounces == 0
    # crosses are not tracked away from unit rise
    p = classify("EENNN", Slope(2, 3))
    assert p.horizontal_crosses is None


def test_classify_total_bounces():
    p = classify("ENENENEN", Slope(1, 1))
    assert p.right == 3 and p.left == 0 and p.total_bounces == 3


def test_classify_rejects_malformed_paths():
    # each text word for word; the word is quoted as given, before any change of case
    for word, slope, text in (
        ("EEN", Slope(1, 1), "endpoint (2, 1) does not lie on the slope (1, 1)"),
        ("", Slope(2, 3), "endpoint (0, 0) does not lie on the slope (2, 3)"),
        ("eXn", Slope(1, 1), "step word 'eXn' contains non-E/N characters"),
    ):
        with pytest.raises(MalformedPath) as refused:
            classify(word, slope)
        assert str(refused.value) == text


def test_step_word_round_trip():
    # a step word is read in either case
    assert classify("enne", Slope(1, 1)) == classify("ENNE", Slope(1, 1))
    assert classify("enne", Slope(1, 1)).first is Step.E


# ------------------------------------------------------------- enumeration


def test_enumerate_profiles_small_cases():
    profiles = enumerate_profiles(Slope(1, 1), 2)
    assert sum(profiles.values()) == 6
    assert count_matching(profiles, left=0, right=0) == 4

    profiles = enumerate_profiles(Slope(2, 3), 1)
    assert sum(profiles.values()) == 10
    assert all(p.total_bounces == 0 for p in profiles)

    profiles = enumerate_profiles(Slope(1, 1), 1)
    assert sum(profiles.values()) == 2
    assert all(p.total_bounces == 0 for p in profiles)

    with pytest.raises(ValueError):
        enumerate_profiles(Slope(1, 1), 0)


@pytest.mark.parametrize(
    "slope,k",
    [(Slope(1, 1), 5), (Slope(2, 1), 3), (Slope(2, 3), 2), (Slope(1, 4), 2)],
    ids=str,
)
def test_totals_match_binomial(slope, k):
    profiles = enumerate_profiles(slope, k)
    steps = (slope.alpha + slope.beta) * k
    assert sum(profiles.values()) == binomial(steps, slope.alpha * k)


def test_first_step_marginals():
    # E-start paths to (k, k) are half of all of them
    profiles = enumerate_profiles(Slope(1, 1), 4)
    assert count_matching(profiles, first=Step.E) == binomial(8, 4) // 2


@pytest.mark.parametrize("slope,k", [(Slope(2, 1), 3), (Slope(2, 3), 2)], ids=str)
def test_first_step_marginals_match_prefix_series(slope, k):
    from bouncepaths.closed_forms import g_prefix_series

    profiles = enumerate_profiles(slope, k)
    for step in (Step.E, Step.N):
        expected = g_prefix_series(slope, step, k).coefficient(k)
        assert count_matching(profiles, first=step) == expected


def test_crosses_filter_requires_tracked_crosses():
    profiles = enumerate_profiles(Slope(2, 1), 2, crosses=True)
    assert count_matching(profiles, crosses=0, first=Step.N) > 0
    # away from unit rise, or unless asked for, no profile carries crosses,
    # whatever else is asked
    for untracked in (
        enumerate_profiles(Slope(2, 3), 2),
        enumerate_profiles(Slope(2, 3), 2, crosses=True),
        enumerate_profiles(Slope(2, 1), 2),
    ):
        assert all(p.horizontal_crosses is None for p in untracked)
        for filters in ({}, {"left": 9}, {"first": Step.N, "last": Step.N}):
            with pytest.raises(ValueError, match="beta = 1") as raised:
                count_matching(untracked, crosses=0, **filters)
            assert "crosses=True" in str(raised.value)
        assert count_matching(untracked, left=0) > 0


def test_count_table_values():
    profiles = enumerate_profiles(Slope(1, 1), 2)
    assert count_table(profiles) == {(0, 0): 4, (1, 0): 1, (0, 1): 1}
    assert count_table(profiles, Restriction.EN) == {(0, 0): 1, (0, 1): 1}


def test_count_table_marginals_partition_all_paths():
    profiles = enumerate_profiles(Slope(2, 1), 4)
    table_all = count_table(profiles)
    by_class = [
        count_table(profiles, r)
        for r in (Restriction.EE, Restriction.EN, Restriction.NE, Restriction.NN)
    ]
    for cell, total in table_all.items():
        assert total == sum(t.get(cell, 0) for t in by_class)
    assert sum(table_all.values()) == binomial(12, 8)


def test_profiles_hash_without_enum_hash(monkeypatch):
    """Hashing a profile hashes its two steps; Step hashes by identity, so
    the oracle never runs the Python-level Enum.__hash__."""
    cases = [(Slope(1, 1), 5, True), (Slope(2, 1), 4, True), (Slope(2, 3), 2, False)]
    expected = [enumerate_profiles(slope, k, crosses=crosses) for slope, k, crosses in cases]

    def refuse(self):
        raise AssertionError(f"Enum.__hash__ called on {self!r}")

    with monkeypatch.context() as patch:
        patch.setattr(enum.Enum, "__hash__", refuse)
        for (slope, k, crosses), before in zip(cases, expected):
            profiles = enumerate_profiles(slope, k, crosses=crosses)
            assert profiles == before
            for restriction in Restriction:
                assert count_table(profiles, restriction) == count_table(before, restriction)


def test_transfer_count_matches_brute_force():
    """``classify`` over every step word, i.e. every choice of E positions, for
    every coprime slope with alpha + beta <= 7 and up to 16 steps."""
    for total in range(2, 8):
        for alpha in range(1, total):
            if math.gcd(alpha, total - alpha) != 1:
                continue
            slope = Slope(alpha, total - alpha)
            for k in range(1, 16 // total + 1):
                steps = total * k
                brute: Counter = Counter()
                for east in itertools.combinations(range(steps), alpha * k):
                    word = ["N"] * steps
                    for i in east:
                        word[i] = "E"
                    brute[classify("".join(word), slope)] += 1
                assert enumerate_profiles(slope, k, crosses=True) == brute, (slope, k)


def reference_sweep(alpha, beta, k):
    """Transfer count over all paths to (alpha*k, beta*k), one step at a time.

    After ``steps`` steps the state (x, last, first, left, right, crosses)
    fixes the vertex (x, steps - x); a vertex on the line is classified as
    ``classify`` does it before the next step leaves it.  The origin and the
    endpoint are not classified.  Returns path counts keyed
    (first, last, left, right, crosses).
    """
    ex, ey = alpha * k, beta * k
    track_h = beta == 1
    states = {(1, "E", "E", 0, 0, 0): 1, (0, "N", "N", 0, 0, 0): 1}
    for steps in range(1, ex + ey):
        advanced: dict[tuple, int] = {}
        for (x, last, first, l, r, h), count in states.items():
            y = steps - x
            on_line = alpha * y == beta * x
            if x < ex:
                if on_line and last == "N":
                    key = (x + 1, "E", first, l, r + 1, h)
                elif on_line and track_h:  # E in, E out: a horizontal cross
                    key = (x + 1, "E", first, l, r, h + 1)
                else:
                    key = (x + 1, "E", first, l, r, h)
                advanced[key] = advanced.get(key, 0) + count
            if y < ey:
                if on_line and last == "E":
                    key = (x, "N", first, l + 1, r, h)
                else:
                    key = (x, "N", first, l, r, h)
                advanced[key] = advanced.get(key, 0) + count
        states = advanced
    return {
        (first, last, l, r, h): count
        for (_, last, first, l, r, h), count in states.items()
    }


def reference_profiles(slope: Slope, k: int) -> Counter:
    track_h = slope.beta == 1
    return Counter({
        BounceProfile(l, r, h if track_h else None, Step(first), Step(last)): count
        for (first, last, l, r, h), count in reference_sweep(slope.alpha, slope.beta, k).items()
    })


def test_packed_sweep_matches_the_reference_sweep():
    """Every coprime slope with alpha + beta <= 9 and every k up to 24 steps,
    then the budget edges of the oracle suites, crosses tracked."""
    cases = [
        (Slope(alpha, total - alpha), k)
        for total in range(2, 10)
        for alpha in range(1, total)
        if math.gcd(alpha, total - alpha) == 1
        for k in range(1, 24 // total + 1)
    ]
    cases += [(Slope(1, 1), 20), (Slope(2, 1), 13), (Slope(3, 1), 10)]
    for slope, k in cases:
        profiles = enumerate_profiles(slope, k, crosses=True)
        assert profiles == reference_profiles(slope, k), (slope, k)


@pytest.mark.parametrize("slope, k", [(Slope(1, 1), 3), (Slope(1, 1), 5), (Slope(2, 1), 2)])
def test_the_path_count_check_catches_slots_too_narrow(monkeypatch, slope, k):
    """Slots sized for 3 paths overflow: counts carry into their neighbours,
    and from the E-first block into the N-first one, and the decoded
    counts no longer sum to the path count."""
    monkeypatch.setattr(enumeration, "binomial", lambda n, m: 3)
    with pytest.raises(RuntimeError, match="^the sweep lost or duplicated paths; this is a bug$"):
        enumerate_profiles(slope, k)


def test_untracked_crosses_merge_the_tracked_profiles():
    """Every coprime slope with alpha + beta <= 9 and up to 20 steps: the
    profiles without crosses are those with crosses, dropped and merged."""
    for total in range(2, 10):
        for alpha in range(1, total):
            if math.gcd(alpha, total - alpha) != 1:
                continue
            slope = Slope(alpha, total - alpha)
            for k in range(1, 20 // total + 1):
                merged: Counter = Counter()
                for p, count in enumerate_profiles(slope, k, crosses=True).items():
                    merged[BounceProfile(p.left, p.right, None, p.first, p.last)] += count
                assert enumerate_profiles(slope, k) == merged, (slope, k)


def test_budgets():
    with pytest.raises(BudgetExceeded):
        enumerate_profiles(Slope(1, 1), 21)  # 42 steps > MAX_STEPS = 40


def test_the_oracle_imports_no_generating_function():
    # the oracle checks the generating functions, so it must not share their code
    tree = ast.parse(Path(enumeration.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.startswith("bouncepaths")
        ):
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("bouncepaths"))
    assert package == {"closed_forms", "series"}


# ------------------------------------------------------------ transposition


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transposing_swaps_bounce_sides(data):
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if math.gcd(a, b) == 1]
    alpha, beta = data.draw(st.sampled_from(pairs))
    k = data.draw(st.integers(1, max(1, 12 // (alpha + beta))))
    slope = Slope(alpha, beta)
    word = data.draw(st.permutations("E" * alpha * k + "N" * beta * k))
    profile = classify("".join(word), slope)
    flipped = "".join("E" if ch == "N" else "N" for ch in word)
    mirror = classify(flipped, slope.transpose())
    assert (profile.left, profile.right) == (mirror.right, mirror.left)
    assert mirror.first is (Step.N if profile.first is Step.E else Step.E)


def test_transposed_count_tables_agree():
    table = count_table(enumerate_profiles(Slope(2, 3), 2))
    mirrored = count_table(enumerate_profiles(Slope(3, 2), 2))
    assert table == {(r, l): v for (l, r), v in mirrored.items()}


# ----------------------------------------------------------------- tableaux


def test_enumerate_syt_values():
    assert enumerate_syt(TwoRowShape(3, 0)) == 1
    assert enumerate_syt(TwoRowShape(2, 1)) == 2
    assert enumerate_syt(TwoRowShape(4, 1)) == 4


def test_enumerate_syt_budget():
    assert enumerate_syt(TwoRowShape(12, 12)) == _hook_length_count((12, 12))
    assert enumerate_syt(TwoRowShape(8, 7)) == syt_two_row_count(8, 0)


@given(st.integers(1, 6), st.integers(0, 6))
def test_enumerate_syt_matches_hook_formula(first, second):
    if second > first:
        first, second = second, first
    shape = TwoRowShape(first, second)
    assert enumerate_syt(shape) == _hook_length_count(shape.as_partition())


def reference_enumerate_syt(shape: TwoRowShape) -> int:
    """Count standard fillings of the shape by backtracking.

    Places 1, 2, ... into the diagram, branching over every row whose next
    free cell keeps rows left-justified and columns increasing.
    """
    partition = shape.as_partition()
    cells = sum(partition)
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


def test_ballot_count_matches_backtracking():
    """The ballot count against literal backtracking on every two-row shape
    of up to 16 cells."""
    for cells in range(17):
        for second in range(cells // 2 + 1):
            shape = TwoRowShape(cells - second, second)
            assert enumerate_syt(shape) == reference_enumerate_syt(shape), shape
