import random
from collections import defaultdict
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbpcheck import minimize as mz


def brute_equal(n, on, dc, cubes):
    fn = mz.cubes_semantics(cubes, n)
    on, dc = set(on), set(dc)
    for m in range(2 ** n):
        if m in on:
            if not fn(m):
                return False
        elif m not in dc:
            if fn(m):
                return False
    return True


def test_xor_minimizes_to_two_cubes():
    cubes = mz.minimize(2, [1, 2])
    assert len(cubes) == 2
    assert brute_equal(2, [1, 2], [], cubes)


def test_constant_functions():
    assert mz.minimize(3, []) == []
    assert mz.minimize(3, list(range(8))) == [(2, 2, 2)]
    assert mz.minimize(2, [0, 1], [2, 3]) == [(2, 2)]


def test_dont_cares_shrink_cover():
    # f = x0 on {0,1}, don't care elsewhere: a single literal suffices
    cubes = mz.minimize(3, [1], [3, 5, 7])
    assert cubes == [(1, 2, 2)]


def test_prime_implicants_classic():
    # the standard 4-variable example: f = sum m(4,8,10,11,12,15)
    on = [4, 8, 10, 11, 12, 15]
    cubes = mz.minimize(4, on)
    assert brute_equal(4, on, [], cubes)
    assert len(cubes) <= 4


def test_too_many_bits_rejected():
    with pytest.raises(ValueError):
        mz.prime_implicants(17, [0])


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1), st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_minimize_exact_on_random_functions(on_mask, dc_mask, seed):
    n = 6
    rng = random.Random(seed)
    on = [m for m in range(2 ** n) if rng.random() < 0.3]
    dc = [m for m in range(2 ** n) if m not in on and rng.random() < 0.2]
    cubes = mz.minimize(n, on, dc)
    assert brute_equal(n, on, dc, cubes)
    # every cube is an implicant of ON+DC
    allowed = set(on) | set(dc)
    for cube in cubes:
        for m in range(2 ** n):
            if mz.cube_covers(cube, mz.int_to_bits(m, n)):
                assert m in allowed


def cube_minterms(cube):
    """Every minterm of a {0,1,2} cube, by enumerating its free positions."""
    free = [i for i, c in enumerate(cube) if c == 2]
    base = sum(c << i for i, c in enumerate(cube) if c != 2)
    return [base | sum(((k >> j) & 1) << i for j, i in enumerate(free))
            for k in range(2 ** len(free))]


def widenings(cube):
    return [cube[:i] + (2,) + cube[i + 1:] for i, c in enumerate(cube) if c != 2]


def is_prime(cube, allowed):
    """An implicant of ``allowed`` that no widening keeps inside it."""
    def implicant(c):
        return all(m in allowed for m in cube_minterms(c))
    return implicant(cube) and not any(implicant(w) for w in widenings(cube))


def brute_primes(n, on, dc):
    """Maximal {0,1,2} implicants of ON+DC covering an ON minterm, by enumeration."""
    allowed = set(on) | set(dc)
    return sorted(cube for cube in product((0, 1, 2), repeat=n)
                  if is_prime(cube, allowed) and set(cube_minterms(cube)) & set(on))


@given(st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_prime_implicants_match_brute_force(n, data):
    minterms = st.sets(st.integers(0, 2 ** n - 1))
    on = data.draw(minterms)
    dc = data.draw(minterms) - on
    assert mz.prime_implicants(n, sorted(on), sorted(dc)) == brute_primes(n, on, dc)


def test_minimize_twelve_bits_exact_and_prime():
    n = 12
    rng = random.Random(4012)
    on, dc = [], []
    for m in range(2 ** n):
        r = rng.random()
        if r < 0.3:
            on.append(m)
        elif r < 0.5:
            dc.append(m)
    cubes = mz.minimize(n, on, dc)
    assert brute_equal(n, on, dc, cubes)
    allowed = set(on) | set(dc)
    assert all(is_prime(cube, allowed) for cube in cubes)


def first_cover_by_combinations(rows, candidates):
    for r in range(1, len(candidates) + 1):
        for combo in combinations(candidates, r):
            if all(row & set(combo) for row in rows):
                return set(combo)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_petrick_search_matches_combinations(seed):
    # cyclic coverage tables: every row has two or more candidates, so no
    # prime is essential and the subset search does all the work
    rng = random.Random(seed)
    k = rng.randint(10, 20)
    ids = sorted(rng.sample(range(100), k))
    rows = []
    for j in range(k):
        row = {ids[j], ids[(j + 1) % k]}
        row.update(rng.sample(ids, rng.randint(0, 3)))
        rows.append(frozenset(row))
    expected = first_cover_by_combinations(rows, ids)
    assert mz._petrick(rows, ids) == expected


def greedy_by_recount(rows):
    """The greedy fallback as a recount and a sort of the counts before each pick."""
    picks, left = [], list(rows)
    while left:
        counts = defaultdict(int)
        for s in left:
            for i in s:
                counts[i] += 1
        pick = max(sorted(counts), key=lambda i: counts[i])
        picks.append(pick)
        left = [s for s in left if pick not in s]
    return picks


@pytest.mark.parametrize("seed", range(40))
def test_greedy_picks_match_recounting(seed):
    # more than 20 candidates, the size at which minimize leaves Petrick
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(1000), rng.randint(21, 60)))
    rows = [frozenset({i, *rng.sample(ids, rng.randint(0, 5))}) for i in ids]
    rows += [frozenset(rng.sample(ids, rng.randint(1, 6))) for _ in range(rng.randint(0, 40))]
    rng.shuffle(rows)
    assert mz._greedy(rows, ids) == greedy_by_recount(rows)
