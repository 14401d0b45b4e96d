"""Cross-checks the combinatorial measures against naive recomputation.

The oracles here are deliberately slow and structure-free: they work
from f.value() alone, with dict-based restrictions and exhaustive
searches, so they share no code with the packed-integer engines.
``packing_block_sensitivity`` is the earlier bs engine, a branch and
bound over each input's minimal sensitive blocks, kept as a faster
reference for the arities the naive search cannot reach.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bfc.combinatorial import (
    BLOCK_MEASURE_MAX_ARITY,
    block_sensitivity,
    certificate_complexity,
    deterministic_query_complexity,
    sensitivity,
)
from bfc.sweep import npn_canonical_array
from bfc.tables import TruthTable, named_family


def naive_sensitivity(f, x):
    return sum(1 for i in range(f.arity) if f.value(x) != f.value(x ^ (1 << i)))


def naive_block_sensitivity(f, x):
    sensitive = [
        b
        for b in range(1, 1 << f.arity)
        if f.value(x) != f.value(x ^ b)
    ]

    def best_packing(chosen_union, start):
        best = 0
        for k in range(start, len(sensitive)):
            b = sensitive[k]
            if b & chosen_union == 0:
                best = max(best, 1 + best_packing(chosen_union | b, k + 1))
        return best

    return best_packing(0, 0)


def max_disjoint_packing(blocks):
    """Maximum number of pairwise-disjoint masks, exact branch and bound."""
    blocks = sorted(blocks, key=lambda b: (b.bit_count(), b))
    best = 0
    m = len(blocks)

    def go(idx, used, count):
        nonlocal best
        if count > best:
            best = count
        if count + (m - idx) <= best:
            return
        for j in range(idx, m):
            b = blocks[j]
            if used & b == 0:
                go(j + 1, used | b, count + 1)

    go(0, 0, 0)
    return best


def packing_block_sensitivity(f):
    """Per-input bs by packing each input's minimal sensitive blocks.

    Every sensitive block contains a minimal one, so the packing number
    is the same as over all sensitive blocks.  ``reach[b]`` (some
    sub-block of b is sensitive) is a subset-OR pass per axis; b is
    minimal when it is sensitive and no b less one of its bits reaches.
    """
    n, size = f.arity, f.size
    values = np.array([f.value(x) for x in range(size)], dtype=bool)
    index = np.arange(size)
    sens = values[index[:, None] ^ index] != values
    reach = sens.copy()
    for i in range(n):
        r = reach.reshape(-1, 2, 1 << i, size)
        r[:, 1] |= r[:, 0]
    below = np.zeros_like(sens)
    for i in range(n):
        below.reshape(-1, 2, 1 << i, size)[:, 1] |= reach.reshape(-1, 2, 1 << i, size)[:, 0]
    minimal = sens & ~below
    return [max_disjoint_packing(np.flatnonzero(minimal[:, x]).tolist()) for x in range(size)]


def naive_certificate(f, x):
    n = f.arity
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            mask = sum(1 << i for i in subset)
            fixed = x & mask
            values = {
                f.value((y & ~mask) | fixed) for y in range(1 << n)
            }
            if len(values) == 1:
                return k
    raise AssertionError("unreachable")


def naive_depth(values):
    # values: dict input -> 0/1 over an n-cube given as sorted keys
    n = len(next(iter(values)))

    def rec(vals):
        outs = set(vals.values())
        if len(outs) <= 1:
            return 0
        live = [i for i in range(n) if any(k[i] != next(iter(vals))[i] for k in vals)]
        best = None
        for i in range(n):
            if not any(k[i] for k in vals) or all(k[i] for k in vals):
                continue
            half0 = {k: v for k, v in vals.items() if not k[i]}
            half1 = {k: v for k, v in vals.items() if k[i]}
            cand = 1 + max(rec(half0), rec(half1))
            if best is None or cand < best:
                best = cand
        return best

    return rec(values)


def as_tuple_values(f):
    return {
        tuple((x >> i) & 1 for i in range(f.arity)): f.value(x)
        for x in range(1 << f.arity)
    }


def all_functions(n):
    for t in range(1 << (1 << n)):
        yield TruthTable(n, t)


def test_sensitivity_exhaustive_n2():
    for f in all_functions(2):
        rep = sensitivity(f)
        per = [naive_sensitivity(f, x) for x in range(4)]
        assert list(rep.local.per_input) == per
        assert rep.local.global_value == max(per)


def test_sensitivity_sides_and_average_exhaustive_n3():
    for f in all_functions(3):
        rep = sensitivity(f)
        per = [naive_sensitivity(f, x) for x in range(8)]
        zeros = [per[x] for x in range(8) if f.value(x) == 0]
        ones = [per[x] for x in range(8) if f.value(x) == 1]
        assert rep.s0 == (max(zeros) if zeros else 0)
        assert rep.s1 == (max(ones) if ones else 0)
        assert rep.s0_defined == bool(zeros)
        assert rep.s1_defined == bool(ones)
        assert rep.average == Fraction(sum(per), 8)


def test_block_sensitivity_argmax_attains_value():
    for f in all_functions(2):
        got = block_sensitivity(f)
        assert got.per_input[got.argmax_input] == got.global_value
        assert naive_block_sensitivity(f, got.argmax_input) == got.global_value


def functions_to_check(n):
    """Every table at arity 3; above it, three seeded tables, one of them
    biased towards 0 so that large monochromatic subcubes occur."""
    if n == 3:
        yield from all_functions(3)
        return
    rng = random.Random(n)
    size = 1 << n
    yield TruthTable(n, rng.getrandbits(size))
    yield TruthTable(n, rng.getrandbits(size))
    yield TruthTable(n, rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_sensitivity_exhaustive_n3(n):
    for f in functions_to_check(n):
        got = block_sensitivity(f)
        per = [naive_block_sensitivity(f, x) for x in range(f.size)]
        assert list(got.per_input) == per, f"bs mismatch on {f}"
        assert got.global_value == max(per)


def seeded_tables(n, count):
    """``count`` seeded tables of arity n, every third one biased towards 0."""
    rng = random.Random(1000 + n)
    size = 1 << n
    for k in range(count):
        t = rng.getrandbits(size)
        if k % 3 == 2:
            t &= rng.getrandbits(size) & rng.getrandbits(size)
        yield TruthTable(n, t)


def test_block_sensitivity_matches_packing_on_arity_4_classes():
    for t in np.unique(npn_canonical_array(4)).tolist():
        f = TruthTable(4, t)
        assert list(block_sensitivity(f).per_input) == packing_block_sensitivity(f), f


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_block_sensitivity_matches_packing_sampled(n):
    for f in seeded_tables(n, 10):
        assert list(block_sensitivity(f).per_input) == packing_block_sensitivity(f), f


@pytest.mark.parametrize("n", range(1, 11))
def test_sensitivity_block_certificate_sandwich_per_input(n):
    for f in seeded_tables(n, 3):
        s = sensitivity(f).local.per_input
        bs = block_sensitivity(f)
        c = certificate_complexity(f).per_input
        for x in range(f.size):
            assert s[x] <= bs.per_input[x] <= c[x], (f, x)
        assert bs.global_value == max(bs.per_input)
        assert bs.argmax_input == bs.per_input.index(bs.global_value)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certificate_exhaustive_n3(n):
    for f in functions_to_check(n):
        got = certificate_complexity(f)
        per = [naive_certificate(f, x) for x in range(f.size)]
        assert list(got.per_input) == per, f"C mismatch on {f}"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_depth_exhaustive_n3(n):
    for f in functions_to_check(n):
        want = naive_depth(as_tuple_values(f))
        assert deterministic_query_complexity(f) == want, f"D mismatch on {f}"


def memo_depth(f):
    """D(f) by recursion over restrictions, memoized on (fixed mask,
    fixed values): a subcube is constant or costs 1 + the best split."""
    n, full = f.arity, (1 << f.arity) - 1

    @functools.cache
    def rec(mask, fixed):
        free, outs, sub = full & ~mask, set(), full & ~mask
        while len(outs) < 2:
            outs.add(f.value(fixed | sub))
            if sub == 0:
                break
            sub = (sub - 1) & free
        if len(outs) == 1:
            return 0
        return 1 + min(
            max(rec(mask | 1 << i, fixed), rec(mask | 1 << i, fixed | 1 << i))
            for i in range(n)
            if free >> i & 1
        )

    return rec(0, 0)


def top_coefficient(f):
    """The Mobius coefficient of x_1 ... x_n: sum of (-1)^(n - |x|) f(x)."""
    return sum((-1) ** (f.arity - x.bit_count()) * f.value(x) for x in range(f.size))


def without_top_monomial(f, rng):
    """f with outputs flipped at seeded inputs, each flip moving the top
    Mobius coefficient one step towards 0, until it is 0 (deg < n)."""
    table, top = f.table, top_coefficient(f)
    while top:
        x = rng.randrange(f.size)
        # flipping f(x) adds (-1)^(n - |x|) to the top coefficient, negated for a 1
        step = (-1) ** (f.arity - x.bit_count()) * (-1 if table >> x & 1 else 1)
        if step * top < 0:
            table ^= 1 << x
            top += step
    return TruthTable(f.arity, table)


# The engines below are exhaustive; report.measure reaches them only
# where a sandwich stays open (s < C for bs, s < n for C, deg < n for
# D), so these tests pin them on exactly such tables.
def test_certificate_engine_where_s_is_below_n():
    below = [
        TruthTable(4, t)
        for t in np.unique(npn_canonical_array(4)).tolist()
        if sensitivity(TruthTable(4, t)).local.global_value < 4
    ]
    assert len(below) == 97
    below += [f for f in seeded_tables(6, 10) if sensitivity(f).local.global_value < 6]
    assert len(below) == 100
    for f in below:
        per = [naive_certificate(f, x) for x in range(f.size)]
        assert list(certificate_complexity(f).per_input) == per, f


def test_block_sensitivity_engine_where_s_is_below_c():
    open_classes = []
    for t in np.unique(npn_canonical_array(4)).tolist():
        f = TruthTable(4, t)
        if sensitivity(f).local.global_value < certificate_complexity(f).global_value:
            open_classes.append(f)
    assert len(open_classes) == 1  # 4:1BD8, s = 2 < bs = C = 3
    for f in open_classes:
        per = [naive_block_sensitivity(f, x) for x in range(f.size)]
        assert list(block_sensitivity(f).per_input) == per, f
    assert block_sensitivity(open_classes[0]).global_value == 3


def test_depth_engine_on_arity_4_classes_below_full_degree():
    below = [
        TruthTable(4, t)
        for t in np.unique(npn_canonical_array(4)).tolist()
        if top_coefficient(TruthTable(4, t)) == 0
    ]
    assert len(below) == 58
    for f in below:
        want = naive_depth(as_tuple_values(f))
        assert memo_depth(f) == want
        assert deterministic_query_complexity(f) == want, f


def seeded_tree(n, depth, rng):
    """The table of a seeded decision tree of the given depth: each node
    queries a variable not yet queried on its path, each leaf is a
    random bit, so D <= depth."""

    def node(free, d):
        if d == 0 or not free:
            bit = rng.getrandbits(1)
            return lambda x: bit
        i = rng.choice(free)
        rest = [j for j in free if j != i]
        low, high = node(rest, d - 1), node(rest, d - 1)
        return lambda x: high(x) if x >> i & 1 else low(x)

    tree = node(list(range(n)), depth)
    return TruthTable(n, sum(tree(x) << x for x in range(1 << n)))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_depth_engine_on_seeded_tables_below_full_degree(n):
    # flipped random tables stay evasive (D = n); the shallow trees do not
    rng = random.Random(2000 + n)
    tables = [without_top_monomial(f, rng) for f in seeded_tables(n, 3)]
    tables += [seeded_tree(n, n - 2, rng) for _ in range(3)]
    depths = []
    for g in tables:
        assert top_coefficient(g) == 0
        depths.append(memo_depth(g))
        assert deterministic_query_complexity(g) == depths[-1], g
    assert min(depths) < n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family_columns(n):
    orf = named_family("OR", n)
    assert sensitivity(orf).local.global_value == n
    assert block_sensitivity(orf).global_value == n
    assert certificate_complexity(orf).global_value == n
    assert deterministic_query_complexity(orf) == n

    par = named_family("PARITY", n)
    assert sensitivity(par).local.global_value == n
    assert block_sensitivity(par).global_value == n
    assert certificate_complexity(par).global_value == n
    assert deterministic_query_complexity(par) == n


def test_or_sides():
    rep = sensitivity(named_family("OR", 4))
    assert (rep.s0, rep.s1) == (4, 1)
    rep = sensitivity(named_family("AND", 4))
    assert (rep.s0, rep.s1) == (1, 4)


def test_xor_or_sides_are_both_n():
    for n in (2, 3, 4, 5):
        rep = sensitivity(named_family("XOR-OR", n))
        assert (rep.s0, rep.s1) == (n, n)


def test_and_or_block_sensitivity():
    # OR of 2 ANDs of 2: at x = 0, flipping either AND block flips f
    f = named_family("AND-OR", (2, 2))
    # this is AND of ORs; build OR of ANDs through compose order instead
    from bfc.tables import compose

    g = compose(named_family("OR", 2), named_family("AND", 2))
    assert block_sensitivity(g).global_value == 2
    assert sensitivity(g).local.global_value == 2
    assert block_sensitivity(f).global_value == 2


def test_constants():
    for n in (0, 1, 3):
        zero = TruthTable(n, 0)
        assert sensitivity(zero).local.global_value == 0
        assert block_sensitivity(zero).global_value == 0
        assert block_sensitivity(TruthTable(n, (1 << (1 << n)) - 1)).per_input == (0,) * (1 << n)
        assert certificate_complexity(zero).global_value == 0
        assert deterministic_query_complexity(zero) == 0
    for t in (0, 1):
        const = TruthTable(0, t)
        assert block_sensitivity(const).per_input == (0,)
        assert certificate_complexity(const).per_input == (0,)
        assert deterministic_query_complexity(const) == 0


def test_depth_cap_raises():
    with pytest.raises(ValueError, match="arity <= 10"):
        deterministic_query_complexity(named_family("OR", 11))
    assert deterministic_query_complexity(named_family("OR", 10)) == 10


def test_closed_forms_at_the_caps():
    # OR_12: x = 0 needs all 12 zeros; any 1 bit certifies the rest
    c = certificate_complexity(named_family("OR", 12))
    assert c.per_input == (12,) + (1,) * 4095
    assert (c.global_value, c.argmax_input) == (12, 0)
    assert set(certificate_complexity(named_family("PARITY", 12)).per_input) == {12}
    # bs(OR_12): at x = 0 every variable is its own block; any 1 bit is
    # the one sensitive block elsewhere
    bs = block_sensitivity(named_family("OR", 12))
    assert bs.per_input == (12,) + (1,) * 4095
    assert (bs.global_value, bs.argmax_input) == (12, 0)
    assert set(block_sensitivity(named_family("PARITY", 12)).per_input) == {12}
    # D composes multiplicatively: AND of 2 ORs of 5
    assert deterministic_query_complexity(named_family("AND-OR", (2, 5))) == 10


def test_block_measures_cap():
    f = named_family("OR", BLOCK_MEASURE_MAX_ARITY + 1)
    with pytest.raises(ValueError, match=f"arity <= {BLOCK_MEASURE_MAX_ARITY}$"):
        block_sensitivity(f)
    with pytest.raises(ValueError):
        certificate_complexity(f)
