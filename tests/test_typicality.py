"""Typicality kernel tests against independent slow oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from di_codes import (
    BudgetError,
    DegenerateTypicalitySetError,
    EmpiricalType,
    TypicalityParams,
    apportion_counts,
    binary_entropy,
    bsc,
    distance_threshold,
    empirical_type,
    enumerate_conditional_typical,
    hamming_distance,
    hamming_sphere_size_bound,
    hamming_sphere_size_exact,
    intersection_ratio,
    is_jointly_typical,
    joint_type,
    pairwise_hamming,
    sphere_exponent,
    type_class_size,
)
from di_codes import typicality
from di_codes.typicality import canonical_word, sample_type_class

GUARD = 1e-9


def slow_typical(x, y, joint_pmf, delta):
    """Reference decision: exact support, counts within n*delta of n*p."""
    n = len(x)
    counts = {}
    for a, b in zip(x, y):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    kx, ky = joint_pmf.shape
    for a in range(kx):
        for b in range(ky):
            c = counts.get((a, b), 0)
            p = joint_pmf[a][b]
            if p == 0.0:
                if c != 0:
                    return False
            elif abs(c - n * p) > n * delta + GUARD:
                return False
    return True


def random_joint_pmf(rng, kx, ky, zero_cells=0):
    m = rng.random((kx, ky)) + 0.05
    flat = m.ravel()
    for i in rng.choice(flat.size, size=min(zero_cells, flat.size - 1), replace=False):
        flat[i] = 0.0
    return m / m.sum()


# --- joint typicality decision ---


def test_matches_slow_oracle_across_random_cases():
    rng = np.random.default_rng(42)
    batch_rng = np.random.default_rng(43)
    agreements = 0
    for _ in range(300):
        kx = int(rng.integers(2, 4))
        ky = int(rng.integers(2, 4))
        n = int(rng.integers(1, 16))
        pmf = random_joint_pmf(rng, kx, ky, zero_cells=int(rng.integers(0, 3)))
        x = rng.integers(0, kx, n)
        y = rng.integers(0, ky, n)
        delta = float(rng.choice([0.0, 0.02, 0.1, 0.3, 1.0]))
        got = is_jointly_typical(x, y, pmf, TypicalityParams(delta))
        want = slow_typical(x.tolist(), y.tolist(), pmf, delta)
        assert got == want
        agreements += 1
        # The batched kernel behind it: 0-3 output rows, for x or for a word
        # that never uses its last letter.
        word = x if batch_rng.random() < 0.5 else batch_rng.integers(0, kx - 1, n)
        ys = batch_rng.integers(0, ky, (int(batch_rng.integers(0, 4)), n))
        got = typicality._typical_rows(word, ys, n * pmf, delta)
        assert got.tolist() == [slow_typical(word.tolist(), r.tolist(), pmf, delta) for r in ys]
    assert agreements == 300


def _bincount_joint_counts(word, outputs, input_size, output_size):
    """Oracle: N(a,b) of (word, row) by one bincount over row*|X||Y| + a*|Y| + b."""
    rows, cells = outputs.shape[0], input_size * output_size
    flat = outputs.astype(np.int64) + word * output_size + (np.arange(rows) * cells)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * cells).reshape(rows, cells)


@given(
    input_size=st.integers(1, 8),
    n=st.integers(0, 70),
    rows=st.integers(0, 5),
    as_bool=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_binary_joint_counts_equal_a_bincount(input_size, n, rows, as_bool, seed):
    # Binary outputs are counted by their ones per letter of the word; the
    # word draws from a random subset of the letters, so it may miss some.
    g = np.random.default_rng(seed)
    used = g.choice(input_size, size=int(g.integers(1, input_size + 1)), replace=False)
    word = g.choice(used, n).astype(np.int64)
    outputs = (g.random((rows, n)) < g.random()).astype(bool if as_bool else np.int64)
    got = typicality._joint_counts(word, outputs, input_size, 2)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _bincount_joint_counts(word, outputs, input_size, 2))


def test_exact_match_is_typical_at_zero_delta():
    # y hitting n*p(a,b) exactly on every cell passes with delta = 0
    pmf = np.array([[0.25, 0.25], [0.25, 0.25]])
    x = [0, 0, 1, 1]
    y = [0, 1, 0, 1]
    assert is_jointly_typical(x, y, pmf, TypicalityParams(0.0))
    assert not is_jointly_typical(x, [0, 0, 0, 1], pmf, TypicalityParams(0.0))


def test_zero_probability_cell_is_forbidden_regardless_of_delta():
    pmf = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert not is_jointly_typical([0, 0], [0, 1], pmf, TypicalityParams(10.0))


def test_rejects_malformed_pmf():
    with pytest.raises(ValueError):
        is_jointly_typical([0], [0], np.array([[0.5, 0.2], [0.1, 0.1]]), TypicalityParams(0.1))
    # Letters out of range and length mismatches are refused, not counted.
    pmf = np.full((2, 2), 0.25)
    for x, y in (([0, 0], [2, 0]), ([0, 0], [0, -1]), ([0, 2], [0, 0]), ([0, 0], [0])):
        with pytest.raises(ValueError):
            is_jointly_typical(x, y, pmf, TypicalityParams(0.1))


# --- enumeration ---


@pytest.mark.parametrize("n", [2, 4, 6])
def test_enumeration_equals_brute_force_filter_bsc(n):
    w = bsc(0.1).matrix
    rng = np.random.default_rng(n)
    x = rng.integers(0, 2, n)
    params = TypicalityParams(0.12)
    got = enumerate_conditional_typical(x, w, params)
    counts = np.bincount(x, minlength=2).astype(float)
    joint = counts[:, None] * w / n
    want = {
        y
        for y in itertools.product(range(2), repeat=n)
        if slow_typical(x.tolist(), y, joint, 0.12)
    }
    assert got == want


def test_enumeration_equals_brute_force_filter_ternary_output():
    w = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
    x = np.array([0, 1, 0, 1, 1])
    params = TypicalityParams(0.2)
    got = enumerate_conditional_typical(x, w, params)
    counts = np.bincount(x, minlength=2).astype(float)
    joint = counts[:, None] * w / x.size
    want = {
        y
        for y in itertools.product(range(3), repeat=x.size)
        if slow_typical(x.tolist(), y, joint, 0.2)
    }
    assert got == want


def test_enumeration_budget_refusal():
    w = bsc(0.1).matrix
    with pytest.raises(BudgetError):
        enumerate_conditional_typical(np.zeros(40, dtype=int), w, TypicalityParams(0.1), budget=2**20)


def test_intersection_ratio_matches_brute_force():
    w = bsc(0.1).matrix
    x1 = np.array([0, 0, 0, 1, 1, 1])
    x2 = np.array([1, 1, 0, 0, 1, 0])
    params = TypicalityParams(0.15)
    g1 = enumerate_conditional_typical(x1, w, params)
    g2 = enumerate_conditional_typical(x2, w, params)
    assert intersection_ratio(x1, x2, w, params) == len(g1 & g2) / len(g1)


def test_enumeration_across_blocks_matches_binomial_counts():
    # n = 17 gives 2^17 outputs, two enumeration blocks. Oracle: split the
    # positions by (x1, x2) letters and count the outputs with k ones in each
    # class, C(c, k) of them, whose joint counts pass both boxes.
    w = bsc(0.1).matrix
    x1 = np.array([0] * 9 + [1] * 8)
    x2 = np.array([1, 0] * 4 + [0] * 5 + [1] * 4)
    n, params = 17, TypicalityParams(0.15)

    def typical(x_counts, ones):
        return all(
            abs(ones[a] - c * w[a, 1]) <= n * params.delta + 1e-9
            and abs(c - ones[a] - c * w[a, 0]) <= n * params.delta + 1e-9
            for a, c in enumerate(x_counts)
        )

    classes = {(a, b): int(np.sum((x1 == a) & (x2 == b))) for a in (0, 1) for b in (0, 1)}
    size1 = both = 0
    for k in itertools.product(*(range(c + 1) for c in classes.values())):
        ones = dict(zip(classes, k))
        weight = math.prod(math.comb(classes[ab], ones[ab]) for ab in classes)
        ok1 = typical([classes[0, 0] + classes[0, 1], classes[1, 0] + classes[1, 1]],
                      [ones[0, 0] + ones[0, 1], ones[1, 0] + ones[1, 1]])
        ok2 = typical([classes[0, 0] + classes[1, 0], classes[0, 1] + classes[1, 1]],
                      [ones[0, 0] + ones[1, 0], ones[0, 1] + ones[1, 1]])
        size1 += weight * ok1
        both += weight * (ok1 and ok2)
    assert 0 < both < size1
    assert len(enumerate_conditional_typical(x1, w, params)) == size1
    assert intersection_ratio(x1, x2, w, params) == both / size1


@given(out_size=st.integers(1, 5), n=st.integers(0, 17))
@example(out_size=2, n=17)  # two blocks of 2^16 rows
@example(out_size=3, n=11)  # three blocks of 3^10 rows
@example(out_size=1, n=17)
def test_enumeration_blocks_follow_the_digit_formula(out_size, n):
    # The blocks are built from a table of low digits; the oracle is the
    # direct formula (index // |Y|^position) % |Y| over all n positions.
    # |Y| = 1 and n below the table's digits are included.
    total = out_size**n
    assume(total <= 2**17)
    channel = np.full((1, out_size), 1.0 / out_size)
    _, _, blocks = typicality._enumeration(np.zeros(n, dtype=np.int64), channel, total)
    got = np.concatenate(list(blocks))
    pows = out_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, (np.arange(total, dtype=np.int64)[:, None] // pows) % out_size)


def test_intersection_ratio_requires_same_type():
    w = bsc(0.1).matrix
    with pytest.raises(ValueError):
        intersection_ratio([0, 0, 1], [1, 1, 1], w, TypicalityParams(0.1))


def test_intersection_ratio_empty_set_raises():
    # delta = 0 with fractional n*p leaves no admissible output counts
    w = bsc(0.1).matrix
    with pytest.raises(DegenerateTypicalitySetError):
        intersection_ratio([0, 1], [1, 0], w, TypicalityParams(0.0))


FROZEN_RATIOS = {6: 0.25, 8: 0.16, 10: 0.28125, 12: 0.1859504132231405}


@pytest.mark.parametrize("n,distance", [(6, 4), (8, 4), (10, 6), (12, 6)])
def test_balanced_pair_overlap_frozen_values(n, distance):
    from di_codes import balanced_type, same_type_pair

    x1, x2 = same_type_pair(balanced_type(n, 2), distance)
    got = intersection_ratio(x1, x2, bsc(0.1).matrix, TypicalityParams(0.15))
    assert got == pytest.approx(FROZEN_RATIOS[n], abs=1e-12)


# --- spheres and thresholds ---


def test_distance_threshold_cases():
    assert distance_threshold(10, 0.0) == 0
    assert distance_threshold(10, 0.05) == 1
    assert distance_threshold(10, 0.1) == 1
    assert distance_threshold(6, 0.5) == 3
    # 20 * 0.15 = 3.0000000000000004 in floats; the guard keeps it at 3
    assert distance_threshold(20, 0.15) == 3
    assert distance_threshold(0, 0.3) == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("eps", [0.0, 0.15, 0.3, 0.5, 0.75, 1.0])
def test_sphere_size_exact_matches_brute_force(q, eps):
    n = 7
    thr = distance_threshold(n, eps)
    if thr == 0:
        brute = 1  # zero radius keeps the center alone
    else:
        center = tuple([0] * n)
        brute = sum(
            1
            for w in itertools.product(range(q), repeat=n)
            if sum(a != b for a, b in zip(w, center)) < thr
        )
    assert hamming_sphere_size_exact(n, eps, q) == brute


@given(
    n=st.integers(1, 40),
    eps=st.floats(0.0, 1.0, allow_nan=False),
    q=st.integers(2, 5),
)
def test_sphere_bound_dominates_exact_size(n, eps, q):
    exact = hamming_sphere_size_exact(n, eps, q)
    assert math.log2(exact) <= hamming_sphere_size_bound(n, eps, q) + GUARD


@given(n=st.integers(1, 60), eps=st.floats(0.001, 0.5), q=st.integers(2, 5))
def test_sphere_exponent_valid_below_one_half(n, eps, q):
    # per-symbol form of the bound holds on eps <= 1/2 where H2 is monotone
    assert hamming_sphere_size_bound(n, eps, q) <= n * sphere_exponent(eps, q) + GUARD


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


# --- types ---


def enumerate_type_class(et):
    """Every word of the class in lexicographic order. Small n only."""

    def rec(prefix, counts, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for a in range(len(counts)):
            if counts[a] == 0:
                continue
            counts[a] -= 1
            prefix.append(a)
            yield from rec(prefix, counts, remaining - 1)
            prefix.pop()
            counts[a] += 1

    yield from rec([], list(et.counts), et.n)


def test_type_class_size_and_enumeration_agree():
    et = EmpiricalType((2, 2, 1), 5)
    members = list(enumerate_type_class(et))
    assert len(members) == type_class_size(et) == math.factorial(5) // (2 * 2)
    assert len(set(members)) == len(members)
    for w in members:
        assert empirical_type(np.array(w), 3) == et


def test_sample_type_class_is_uniform_over_the_class():
    # 30 000 draws over the 30 words of the class: each count is
    # Binomial(30 000, 1/30), mean 1000 and standard deviation 31.
    et = EmpiricalType((2, 2, 1), 5)
    members = list(enumerate_type_class(et))
    rows = sample_type_class(et, 30_000, np.random.default_rng(12))
    counts = {w: 0 for w in members}
    for w in map(tuple, rows.tolist()):
        counts[w] += 1  # a KeyError would mean a word outside the class
    assert all(abs(c - 1000) <= 5 * 31 for c in counts.values())


def test_canonical_word_has_the_type():
    et = EmpiricalType((1, 0, 3), 4)
    w = canonical_word(et)
    assert empirical_type(w, 3) == et


def test_sample_type_class_shuffles_in_place():
    # Same words as a shuffled copy would give, without a second full array.
    et = EmpiricalType((150, 50), 200)
    copy = np.random.default_rng(3).permuted(np.tile(canonical_word(et), (5000, 1)), axis=1)
    tracemalloc.start()
    try:
        words = sample_type_class(et, 5000, np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(words, copy)
    assert peak < 1.1 * words.nbytes


def test_sample_type_class_rows_have_the_type():
    et = EmpiricalType((3, 5), 8)
    rows = sample_type_class(et, 64, np.random.default_rng(1))
    assert rows.shape == (64, 8)
    for row in rows:
        assert empirical_type(row, 2) == et


@given(
    q=st.integers(1, 9),
    m=st.integers(0, 40),
    n=st.integers(1, 64),
    one_hot_bytes=st.sampled_from([1, 100, 1000, typicality._ONE_HOT_BYTES]),
    seed=st.integers(0, 10**6),
)
def test_pairwise_hamming_matches_nested_loops(q, m, n, one_hot_bytes, seed):
    # Small one-hot budgets split the words into blocks of positions, down to one.
    words = np.random.default_rng(seed).integers(0, q, (m, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typicality, "_ONE_HOT_BYTES", one_hot_bytes)
        d = pairwise_hamming(words, q)
    assert d.dtype == np.int64 and d.shape == (m, m)
    for i in range(m):
        for j in range(m):
            assert d[i, j] == hamming_distance(words[i], words[j])


def test_pairwise_hamming_refuses_letters_outside_the_alphabet():
    # The kernel takes every letter to lie in the alphabet: with two letters a
    # 5 would count as a 1.
    with pytest.raises(ValueError, match="outside"):
        pairwise_hamming(np.array([[0, 1], [5, 1]]), 2)
    with pytest.raises(ValueError, match="outside"):
        pairwise_hamming(np.array([[0, -1]]), 3)


@given(
    letters=st.sampled_from([(0, 1), (1, 4), (7,), (0, 1, 2), (2, 3, 5, 8)]),
    ma=st.integers(0, 12),
    mb=st.integers(0, 12),
    n=st.integers(0, 40),
    one_hot_bytes=st.sampled_from([1, 100, typicality._ONE_HOT_BYTES]),
    exact=st.sampled_from([4, typicality._EXACT_FLOAT32]),
    seed=st.integers(0, 10**6),
)
def test_hamming_blocks_match_nested_loops(letters, ma, mb, n, one_hot_bytes, exact, seed):
    # Rectangular a != b over any letter set. Two letters take one +-1 column a
    # position, other sets one-hot columns; the same words under the set with
    # one unused letter more switch encodings (one-hot for two letters, +-1 for
    # one) and must give the same distances. Small budgets split the positions
    # into blocks, down to one; a small _EXACT_FLOAT32 moves the accumulator to
    # float64 from n = 4 on, as from 2**24 on.
    rng = np.random.default_rng(seed)
    a, b = (np.asarray(letters)[rng.integers(0, len(letters), (m, n))] for m in (ma, mb))
    wider = np.array(letters + (max(letters) + 1,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typicality, "_ONE_HOT_BYTES", one_hot_bytes)
        mp.setattr(typicality, "_EXACT_FLOAT32", exact)
        d = typicality._hamming_blocks(a, b, np.asarray(letters))
        other = typicality._hamming_blocks(a, b, wider)
    assert d.shape == (ma, mb) and d.dtype == (np.float32 if n < exact else np.float64)
    assert np.array_equal(d, other)
    for i in range(ma):
        for j in range(mb):
            assert d[i, j] == hamming_distance(a[i], b[j])


@given(
    n=st.integers(0, 200),
    raw=st.lists(st.integers(1, 50), min_size=1, max_size=6),
)
def test_apportion_counts_is_a_nearest_type(n, raw):
    p = np.array(raw, dtype=float) / sum(raw)
    et = apportion_counts(p, n)
    assert sum(et.counts) == n
    assert all(abs(c - n * pi) < 1.0 + 1e-6 for c, pi in zip(et.counts, p))


def test_apportion_counts_exact_on_integer_multiples():
    assert apportion_counts([0.25, 0.75], 4).counts == (1, 3)
    assert apportion_counts([0.5, 0.5], 10).counts == (5, 5)


def test_joint_type_marginals():
    jt = joint_type([0, 1, 1, 0], [1, 1, 0, 0], 2, 2)
    m = jt.matrix()
    assert m.sum() == 4
    assert m[0, 1] == 1 and m[1, 1] == 1 and m[1, 0] == 1 and m[0, 0] == 1
    assert jt.input_marginal() == EmpiricalType((2, 2), 4)
    assert jt.output_marginal() == EmpiricalType((2, 2), 4)



def test_joint_type_refuses_what_an_empirical_type_refuses():
    with pytest.raises(ValueError, match="negative count"):
        typicality.JointType(((1, -1), (2, 2)), 4)
    with pytest.raises(ValueError, match="counts do not sum to n"):
        typicality.JointType(((1, 1), (2, 2)), 5)
    assert typicality.JointType(((0, 0), (0, 0)), 0).matrix().sum() == 0

@given(kx=st.integers(1, 6), ky=st.integers(1, 6), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_joint_type_marginals_are_the_empirical_types(kx, ky, n, seed):
    g = np.random.default_rng(seed)
    x, y = g.integers(0, kx, n), g.integers(0, ky, n)
    jt = joint_type(x, y, kx, ky)
    assert jt.input_marginal() == empirical_type(x, kx)
    assert jt.output_marginal() == empirical_type(y, ky)
