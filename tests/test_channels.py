"""Channel model, reduction, and transmission tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from di_codes import (
    Dmc,
    DmcCodebook,
    GaussChannel,
    InfeasibleConstraintError,
    bsc,
    dmc_from_dict,
    dmc_to_dict,
    gauss_from_dict,
    gauss_to_dict,
    input_cost,
    reduce_channel,
    same_codeword_conflict,
    simulate_errors,
    transmit_dmc,
    transmit_gauss,
    to_dmc,
)
from di_codes.channels import _GUIDE_CELLS, _guide_table, _transmit_rows


def test_bsc_matrix_and_cost():
    ch = bsc(0.1, constraint=0.3)
    assert np.array_equal(ch.matrix, np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert tuple(ch.cost) == (0.0, 1.0)
    assert ch.constraint == 0.3


def test_row_sum_validation():
    with pytest.raises(ValueError):
        Dmc(matrix=np.array([[0.9, 0.2], [0.5, 0.5]]), cost=(0.0, 1.0), constraint=1.0)


def test_tiny_negative_entries_are_clipped():
    m = np.array([[1.0 + 5e-13, -5e-13], [0.5, 0.5]])
    ch = Dmc(matrix=m, cost=(0.0, 1.0), constraint=1.0)
    assert ch.matrix.min() >= 0.0


def test_large_negative_entry_rejected():
    with pytest.raises(ValueError):
        Dmc(matrix=np.array([[1.001, -0.001], [0.5, 0.5]]), cost=(0.0, 1.0), constraint=1.0)


def test_constraint_below_cheapest_letter_is_infeasible():
    with pytest.raises(InfeasibleConstraintError):
        Dmc(matrix=np.eye(2), cost=(0.5, 1.0), constraint=0.2)


def test_constraint_above_max_cost_is_clamped_with_note():
    ch = Dmc(matrix=np.eye(2), cost=(0.0, 1.0), constraint=7.0)
    assert ch.constraint == 1.0
    assert any("clamp" in note for note in ch.notes)


def test_matrix_is_immutable():
    ch = bsc(0.2)
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 0.5


# --- reduction ---


def test_reduction_merges_near_duplicate_rows():
    r0 = np.array([0.7, 0.2, 0.1])
    r1 = np.array([0.1, 0.1, 0.8])
    wobble = np.array([5e-13, -5e-13, 0.0])
    m = np.stack([r0, r1, r0 + wobble, r1, r0])
    ch = Dmc(matrix=m, cost=(3.0, 1.0, 0.5, 2.0, 3.0), constraint=3.0)
    reduced, rmap = reduce_channel(ch)
    assert reduced.input_size == 2
    assert list(rmap.class_of) == [0, 1, 0, 1, 0]
    # representative: cheapest member, ties to the lowest index
    assert list(rmap.representative) == [2, 1]
    assert tuple(reduced.cost) == (0.5, 1.0)
    np.testing.assert_allclose(reduced.matrix[0], r0, atol=1e-12)
    np.testing.assert_allclose(reduced.matrix[1], r1, atol=0)


def test_reduction_is_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        out = int(rng.integers(2, 5))
        base = rng.dirichlet(np.ones(out), size=k)
        rows = np.concatenate([base, base[rng.integers(0, k, size=int(rng.integers(0, 4)))]])
        rows = rows[rng.permutation(rows.shape[0])]
        ch = Dmc(matrix=rows, cost=rng.uniform(0, 1, rows.shape[0]), constraint=1.0)
        red1, _ = reduce_channel(ch)
        red2, rmap2 = reduce_channel(red1)
        assert red2.input_size == red1.input_size
        assert list(rmap2.class_of) == list(range(red1.input_size))
        np.testing.assert_array_equal(red1.matrix, red2.matrix)


def test_reduction_keeps_distinct_channel_unchanged():
    ch = bsc(0.1)
    reduced, rmap = reduce_channel(ch)
    assert reduced.input_size == 2
    assert list(rmap.representative) == [0, 1]


def test_crossover_half_reduces_to_single_letter():
    reduced, rmap = reduce_channel(bsc(0.5))
    assert reduced.input_size == 1
    assert list(rmap.class_of) == [0, 0]


# --- transmission ---


def test_transmit_identity_channel_is_lossless():
    ch = Dmc(matrix=np.eye(3), cost=(0.0, 1.0, 2.0), constraint=2.0)
    word = np.array([2, 0, 1, 1, 2])
    out = transmit_dmc(ch, word, np.random.default_rng(0))
    assert np.array_equal(out, word)


def test_transmit_matches_inverse_cdf_oracle():
    ch = Dmc(
        matrix=np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
        cost=(0.0, 1.0),
        constraint=1.0,
    )
    word = np.array([0, 1, 1, 0, 0, 1, 0, 1] * 50)
    seed = np.random.SeedSequence(202)
    got = transmit_dmc(ch, word, np.random.default_rng(seed))
    assert got.dtype == np.int64
    u = np.random.default_rng(seed).random(word.size)
    cdf = np.cumsum(ch.matrix, axis=1)
    want = np.array(
        [int(np.searchsorted(cdf[a][:-1], ui, side="right")) for a, ui in zip(word, u)]
    )
    assert np.array_equal(got, want)


class _Uniforms:
    """Stands in for a Generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


def _transmit_definition(matrix, word, u):
    return (np.cumsum(matrix, 1)[word, :-1] <= u[:, :, None]).sum(axis=2)


def _assert_table_marks_inner_thresholds(matrix):
    # A cell is marked exactly when a threshold lies strictly inside it;
    # thresholds on the grid are resolved by the table itself.
    cum, table = _guide_table(matrix)
    if table is None:
        return
    scaled = cum * _GUIDE_CELLS  # exact: a power-of-two scaling
    inner = {(a, int(s)) for a, row in enumerate(scaled) for s in row if s < _GUIDE_CELLS and s != int(s)}
    marked = set(zip(*np.nonzero(table.reshape(len(cum), _GUIDE_CELLS) < 0)))
    assert marked == inner


@st.composite
def _stochastic_matrices(draw):
    """Row-stochastic matrices: random with zero entries and deterministic
    rows, dyadic with every threshold on a grid point of the guide table, or
    dyadic with the thresholds moved by a few multiples of 2^-52 either way."""
    x, y = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "grid", "beside"]))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        m = g.random((x, y)) * (g.random((x, y)) < g.random())
        onehot = g.random(x) < 0.3
        m[onehot] = np.eye(y)[g.integers(0, y, onehot.sum())]
        m[m.sum(axis=1) == 0, g.integers(0, y)] = 1.0
        m /= m.sum(axis=1, keepdims=True)
    else:
        cuts = np.sort(g.integers(0, _GUIDE_CELLS + 1, (x, y - 1)), axis=1) / _GUIDE_CELLS
        if kind == "beside":
            cuts = np.sort(np.clip(cuts + g.integers(-3, 4, cuts.shape) * 2.0**-52, 0.0, 1.0), axis=1)
        m = np.diff(cuts, prepend=0.0, append=1.0, axis=1)
    return Dmc(matrix=m, cost=np.zeros(x), constraint=0.0).matrix


@given(
    matrix=_stochastic_matrices(),
    rows=st.integers(1, 4),
    n=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    targeted=st.booleans(),
)
def test_guide_table_transmission_equals_the_definition(matrix, rows, n, seed, targeted):
    # The kernel counts the thresholds c_a <= u exactly, on the same draws.
    g = np.random.default_rng(seed)
    word = g.integers(0, matrix.shape[0], n)
    if targeted:
        # Uniforms on, and one step of 2^-53 beside, every threshold and grid point.
        pool = np.concatenate([np.cumsum(matrix, 1).ravel(), np.arange(_GUIDE_CELLS) / _GUIDE_CELLS])
        pool = np.floor(pool * 2.0**53)[:, None] + [-1.0, 0.0, 1.0]
        pool = np.clip(pool.ravel(), 0.0, 2.0**53 - 1) / 2.0**53
        u = g.choice(pool, (rows, n))
        rng = _Uniforms(u)
    else:
        u = np.random.default_rng(seed).random((rows, n))
        rng = np.random.default_rng(seed)
    got = _transmit_rows(_guide_table(matrix), word, rng.random((rows, n)))
    # Narrow outputs for the decision kernel; transmit_dmc widens them.
    assert got.dtype == (np.bool_ if matrix.shape[1] == 2 else np.int32)
    np.testing.assert_array_equal(got, _transmit_definition(matrix, word, u))
    _assert_table_marks_inner_thresholds(matrix)


def test_guide_table_transmission_on_the_discretized_channel():
    # |X| = 9, |Y| = 25: some draws land in marked cells and take the fallback.
    matrix = to_dmc(1, 1, 0.5, 4).channel.matrix
    word = np.random.default_rng(3).integers(0, 9, 400)
    _, table = _guide_table(matrix)
    for rows in (1, 300):
        u = np.random.default_rng(rows).random((rows, word.size))
        got = _transmit_rows(_guide_table(matrix), word, np.random.default_rng(rows).random(u.shape))
        np.testing.assert_array_equal(got, _transmit_definition(matrix, word, u))
    assert (table[word * _GUIDE_CELLS + np.floor(u * _GUIDE_CELLS).astype(np.int64)] < 0).sum() > 100
    _assert_table_marks_inner_thresholds(matrix)


def test_guide_table_is_built_once_per_channel(monkeypatch):
    builds = []

    def counting(matrix):
        builds.append(matrix)
        return _guide_table(matrix)

    monkeypatch.setattr("di_codes.channels._guide_table", counting)
    ch = to_dmc(1, 1, 0.5, 4).channel
    word = np.random.default_rng(5).integers(0, ch.input_size, 40)
    first = transmit_dmc(ch, word, np.random.default_rng(6))
    second = transmit_dmc(ch, word, np.random.default_rng(6))
    assert len(builds) == 1
    np.testing.assert_array_equal(first, second)
    cb = DmcCodebook(channel=ch, words=np.stack([word, word[::-1]]), epsilon=0.0, delta=0.1)
    simulate_errors(cb, trials=20, seed=7, pair_budget=2)
    same_codeword_conflict(DmcCodebook(channel=ch, words=np.stack([word, word]), epsilon=0.0, delta=0.1),
                           0, 1, trials=20, seed=8)
    assert len(builds) == 1


def test_transmit_empirical_frequencies():
    ch = bsc(0.3)
    word = np.zeros(20000, dtype=np.int64)
    out = transmit_dmc(ch, word, np.random.default_rng(7))
    assert out.dtype == np.int64
    assert abs(out.mean() - 0.3) < 0.02


def test_transmit_rejects_bad_letters():
    for word, message in [
        (np.array([0, 2]), r"letter outside \[0, 2\)"),
        (np.array([0, -1]), r"letter outside \[0, 2\)"),
        (np.zeros((2, 2), dtype=np.int64), "one-dimensional"),
    ]:
        with pytest.raises(ValueError, match=message):
            transmit_dmc(bsc(0.1), word, np.random.default_rng(0))


def test_gauss_transmit_adds_noise_and_checks_power():
    ch = GaussChannel(sigma2=0.5, power=1.0)
    x = np.full(1000, 0.5)
    y = transmit_gauss(ch, x, np.random.default_rng(3))
    noise = y - x
    assert abs(noise.mean()) < 0.1
    assert abs(noise.var() - 0.5) < 0.1
    with pytest.raises(ValueError):
        transmit_gauss(ch, np.full(10, 1.5), np.random.default_rng(0))
    for bad in (np.nan, np.inf):  # a NaN codeword passed "energy > budget" and came back NaN
        with pytest.raises(ValueError, match="exceeds the power budget"):
            transmit_gauss(ch, [bad, 0.1], np.random.default_rng(0))


def test_gauss_channel_validation():
    with pytest.raises(ValueError):
        GaussChannel(sigma2=0.0, power=1.0)
    with pytest.raises(ValueError):
        GaussChannel(sigma2=1.0, power=-1.0)


def test_input_cost_mean():
    ch = Dmc(matrix=np.eye(3), cost=(0.0, 1.0, 4.0), constraint=4.0)
    assert input_cost(ch, [0, 1, 2, 2]) == pytest.approx(9.0 / 4.0)


@pytest.mark.parametrize("word, message", [
    ([0, 3], r"letter outside \[0, 3\)"),
    ([0, -1], r"letter outside \[0, 3\)"),
    ([[0, 1], [1, 2]], "one-dimensional"),
    ([], "nonempty"),
])
def test_input_cost_rejects_bad_words(word, message):
    ch = Dmc(matrix=np.eye(3), cost=(0.0, 1.0, 4.0), constraint=4.0)
    with pytest.raises(ValueError, match=message):
        input_cost(ch, word)


# --- serialization ---


def test_dmc_round_trip():
    ch = Dmc(
        matrix=np.array([[0.25, 0.75], [0.5, 0.5], [0.1, 0.9]]),
        cost=(0.0, 0.5, 2.0),
        constraint=1.5,
    )
    back = dmc_from_dict(dmc_to_dict(ch))
    np.testing.assert_array_equal(back.matrix, ch.matrix)
    np.testing.assert_array_equal(back.cost, ch.cost)
    assert back.constraint == ch.constraint


@pytest.mark.parametrize("key, value", [("input_size", 2.9), ("output_size", 2.5), ("input_size", "2")])
def test_dmc_from_dict_refuses_fractional_sizes(key, value):
    # Before, int() truncated a size of 2.9 to 2 and the channel loaded.
    data = dmc_to_dict(bsc(0.1))
    with pytest.raises(ValueError, match="input_size/output_size must be"):
        dmc_from_dict({**data, key: value})


def test_dmc_from_dict_calls_a_fractional_size_no_letter():
    # The sizes go through the letter check; its message used to ask for "integer letters".
    with pytest.raises(ValueError) as exc:
        dmc_from_dict({**dmc_to_dict(bsc(0.1)), "input_size": 2.9})
    assert str(exc.value) == "input_size/output_size must be a one-dimensional array of integer sizes"


def test_gauss_round_trip():
    ch = GaussChannel(sigma2=0.25, power=4.0)
    back = gauss_from_dict(gauss_to_dict(ch))
    assert back.sigma2 == ch.sigma2 and back.power == ch.power


@given(st.floats(0.0, 0.5))
def test_bsc_rows_are_stochastic(p):
    ch = bsc(p)
    np.testing.assert_allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-15)
