import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvtrade.errors import ContractViolation
from kvtrade.tensor import concat_rows, matmul, require_finite, softmax_rows
from oracles import matrix


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.float32)


def finite_matrices(max_side=8, lo=-50.0, hi=50.0):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(
        lambda rc: arrays(
            np.float32,
            rc,
            elements=st.floats(lo, hi, width=32, allow_nan=False),
        )
    )


class TestMatmul:
    def test_identity_right(self):
        m = matrix([[1, 2], [3, 4]])
        assert np.array_equal(matmul(m, np.eye(2, dtype=np.float32)), m)

    def test_identity_left(self):
        v = matrix([[5], [7]])
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), v), v)

    def test_hand_product(self):
        # hand evaluation: row sums of [[1,2],[3,4]]
        out = matmul(matrix([[1, 2], [3, 4]]), matrix([[1], [1]]))
        assert out.tolist() == [[3.0], [7.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            matmul(zeros(2, 3), zeros(2, 3))

    @pytest.mark.parametrize("a", [np.ones(2, dtype=np.float32), [[1.0, 2.0]], np.array([["1", "2"]])],
                             ids=["1-D", "list", "strings"])
    def test_left_operand_not_a_2d_array_of_numbers_rejected(self, a):
        with pytest.raises(ContractViolation, match="^a must"):
            matmul(a, np.eye(2, dtype=np.float32))

    def test_overflowing_product_rejected(self):
        # finite float32 inputs whose product is past float32's range: under
        # filterwarnings = error, numpy must not warn before the check raises
        big = matrix([[1e30, 1e30]])
        with pytest.raises(ContractViolation, match="non-finite elements"):
            matmul(big, big.T)

    @given(finite_matrices(max_side=6))
    def test_identity_exact_both_sides(self, m):
        assert np.array_equal(matmul(np.eye(m.shape[0], dtype=np.float32), m), m)
        assert np.array_equal(matmul(m, np.eye(m.shape[1], dtype=np.float32)), m)


class TestStackedMatmul:
    """Decode's stacked products are bare ``@`` through require_finite, each equal to
    matmul of its 2-D operands bit for bit; matmul itself takes no stack."""

    # (stack, rows, inner, cols); one-row products are decode's shape
    @pytest.mark.parametrize("shape", [(1, 1, 4, 9), (4, 1, 16, 33), (3, 5, 8, 2), (2, 1, 1, 1)])
    def test_each_product_is_matmul(self, shape):
        stack, rows, inner, cols = shape
        rng = np.random.default_rng(stack * rows + inner)
        a = rng.normal(size=(stack, rows, inner)).astype(np.float32)
        b = rng.normal(size=(stack, inner, cols)).astype(np.float32)
        keys = np.ascontiguousarray(b.transpose(0, 2, 1))  # decode multiplies by stored keys, transposed
        for right in (b, keys.transpose(0, 2, 1)):
            # a stack by a stack (scores, V), and one matrix by a stack (Q/K/V)
            for left, lefts in ((a, a), (a[0], [a[0]] * stack)):
                out = left @ right
                assert out.shape == (stack, rows, cols) and out.dtype == np.float32
                for i in range(stack):
                    assert out[i].tobytes() == matmul(lefts[i], right[i]).tobytes()

    @pytest.mark.parametrize("a, b, message", [
        (np.ones((2, 1, 4)), np.ones((3, 4, 5)), "a must be a 2-D array"),
        (np.ones((2, 1, 4)), np.ones((2, 3, 5)), "a must be a 2-D array"),
        (np.ones((2, 4)), np.ones((2, 4, 5)), "b must be a 2-D array"),
        (np.ones((2, 1, 4)), np.ones((4, 5)), "a must be a 2-D array"),
        (np.ones((1, 1, 2)), [[[1.0], [1.0]]], "a must be a 2-D array"),
        ([[[1.0, 1.0]]], np.ones((1, 2, 1)), "a must be a 2-D array"),
    ], ids=["stacks", "inner", "2-D", "3-D by 2-D", "list", "list by 3-D"])
    def test_misfit_operands_rejected(self, a, b, message):
        a, b = (x if isinstance(x, list) else np.asarray(x, dtype=np.float32) for x in (a, b))
        with pytest.raises(ContractViolation, match=message):
            matmul(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_operands_not_float32_rejected(self, dtype):
        # matmul rejects a stack of any dtype; concat_rows, which builds the
        # stacks decode multiplies, rejects one that is not float32
        a, b = np.ones((2, 1, 4), dtype=np.float32), np.ones((2, 4, 3), dtype=np.float32)
        for args in ((a.astype(dtype), b), (a, b.astype(dtype))):
            with pytest.raises(ContractViolation, match="must be a 2-D array"):
                matmul(*args)
        for args in ((a.astype(dtype), a), (a, a.astype(dtype))):
            with pytest.raises(ContractViolation, match="two 3-D float32 arrays"):
                concat_rows(*args)

    def test_overflowing_product_rejected(self):
        # under filterwarnings = error a warning would pre-empt the check;
        # decode enters this error state once per step
        big = np.full((2, 1, 2), 1e30, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="non-finite elements"):
                require_finite(big @ big.transpose(0, 2, 1), "decode's scores product")


class TestSoftmaxRows:
    def test_uniform_on_equal_row(self):
        out = softmax_rows(matrix([[0, 0, 0, 0]]))
        assert np.allclose(out, 0.25)

    def test_large_values_stable(self):
        out = softmax_rows(matrix([[1000.0, 1000.0]]))
        assert out.tolist() == [[0.5, 0.5]]

    def test_closed_form(self):
        # softmax(0, ln 3) = (1, 3) / 4
        out = softmax_rows(matrix([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            softmax_rows(zeros(0, 3))

    @pytest.mark.parametrize("row", [[0.0, np.nan], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, np.inf],
                                     [-np.inf, -np.inf], [1e300, 0.0]],
                             ids=["nan", "all_nan", "+inf", "+inf_and_-inf", "all_-inf", "past_float32"])
    def test_row_without_a_finite_maximum_rejected(self, row):
        # float64 input: 1e300 becomes inf in float32, with no warning; the bad row last, then first
        m = np.array([[0.0, 1.0], row])
        for rows in (m, m[::-1]):
            with pytest.raises(ContractViolation, match="finite maximum"):
                softmax_rows(rows)

    def test_minus_inf_entries_get_zero_weight(self):
        # prefill masks future keys with -inf: softmax(-inf, 0, ln 3) = (0, 1, 3) / 4
        out = softmax_rows(np.array([[-np.inf, 0.0, math.log(3.0)], [-np.inf, 5.0, -np.inf]], dtype=np.float32))
        assert out[0, 0] == 0.0 and np.allclose(out[0], [0.0, 0.25, 0.75], atol=1e-7)
        assert out[1].tolist() == [0.0, 1.0, 0.0]

    @given(finite_matrices())
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m)
        assert np.all(np.isfinite(out))
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6


def stack(heads):
    """A float32 stack from nested lists, one ``rows x cols`` list per head."""
    return np.array(heads, dtype=np.float32)


class TestConcatRows:
    """Joins of two stacks checked by hand."""

    def test_simple(self):
        assert concat_rows(stack([[[1]]]), stack([[[2]]])).tolist() == [[[1.0], [2.0]]]

    def test_empty_prefix_is_identity(self):
        m = stack([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        assert np.array_equal(concat_rows(np.zeros((2, 0, 2), dtype=np.float32), m), m)

    def test_hand_stack(self):
        out = concat_rows(stack([[[1, 2]], [[5, 6]]]), stack([[[3, 4]], [[7, 8]]]))
        assert out.tolist() == [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]

    def test_column_mismatch(self):
        with pytest.raises(ContractViolation, match="stack mismatch"):
            concat_rows(np.zeros((1, 1, 2), dtype=np.float32), np.zeros((1, 1, 3), dtype=np.float32))

    @given(finite_matrices(max_side=5), finite_matrices(max_side=5))
    def test_row_counts_add(self, a, b):
        a, b = a[None], b[None]  # one-head stacks
        if a.shape[2] != b.shape[2]:
            with pytest.raises(ContractViolation):
                concat_rows(a, b)
        else:
            out = concat_rows(a, b)
            assert out.shape[1] == a.shape[1] + b.shape[1]
            assert np.array_equal(out[:, : a.shape[1]], a)
            assert np.array_equal(out[:, a.shape[1] :], b)


class TestStackedConcatRows:
    """concat_rows joins each head's rows of two stacks; any other pairing, two matrices too, is rejected."""

    # (heads, rows of a, rows of b, cols); one appended row is decode's shape
    @pytest.mark.parametrize("shape", [(1, 0, 1, 4), (4, 7, 1, 32), (3, 2, 5, 1)])
    def test_each_head_is_concat_rows(self, shape):
        heads, rows_a, rows_b, cols = shape
        rng = np.random.default_rng(heads + rows_a)
        a = rng.normal(size=(heads, rows_a, cols)).astype(np.float32)
        b = rng.normal(size=(heads, rows_b, cols)).astype(np.float32)
        out = concat_rows(a, b)
        assert out.shape == (heads, rows_a + rows_b, cols) and out.dtype == np.float32
        assert not (np.shares_memory(out, a) or np.shares_memory(out, b))
        for h in range(heads):
            assert out[h].tobytes() == np.concatenate((a[h], b[h])).tobytes()

    @pytest.mark.parametrize("a, b, message", [
        ((2, 1, 4), (3, 1, 4), "stack mismatch"),
        ((2, 1, 4), (2, 1, 5), "stack mismatch"),
        ((2, 1, 4), (1, 4), "two 3-D float32 arrays"),
        ((1, 4), (1, 4), "two 3-D float32 arrays"),
        ((1, 1, 2), [[[1.0, 1.0]]], "two 3-D float32 arrays"),
        ((2, 1, 4), np.ones((2, 1, 4)), "two 3-D float32 arrays"),
        (np.ones((2, 1, 4), dtype=np.float16), (2, 1, 4), "two 3-D float32 arrays"),
    ], ids=["heads", "cols", "3-D by 2-D", "2-D", "list", "float64", "float16"])
    def test_misfit_operands_rejected(self, a, b, message):
        # a shape stands for a float32 array of ones
        a, b = (np.ones(x, dtype=np.float32) if isinstance(x, tuple) else x for x in (a, b))
        with pytest.raises(ContractViolation, match=message):
            concat_rows(a, b)


def test_matrix_rejects_non_finite():
    with pytest.raises(ContractViolation):
        matrix([[1.0, float("nan")]])
    with pytest.raises(ContractViolation):
        matrix([[float("inf")]])


# operands each op must reject, and the message it gives
BAD_OPERANDS = {
    "1-D": (np.ones(2, dtype=np.float32), "must be a 2-D array"),
    "3-D": (np.ones((1, 2, 2), dtype=np.float32), "must be a 2-D array"),
    "list": ([[1.0, 2.0], [3.0, 4.0]], "must be a 2-D array"),
    "strings": (np.array([["1", "2"], ["3", "4"]]), "must hold numbers"),
}
OPS = {
    "matmul": lambda x: matmul(np.eye(2, dtype=np.float32), x),
    "softmax_rows": softmax_rows,
}


@pytest.mark.parametrize("operand", BAD_OPERANDS.values(), ids=BAD_OPERANDS)
@pytest.mark.parametrize("op", OPS.values(), ids=OPS)
def test_operand_not_a_2d_array_of_numbers_rejected(op, operand):
    value, message = operand
    with pytest.raises(ContractViolation, match=message):
        op(value)


def test_float64_operands_give_the_float32_result_of_their_cast():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a32, b32 = a.astype(np.float32), b.astype(np.float32)
    for got, want in [(matmul(a, b), matmul(a32, b32)), (matmul(a32, b), matmul(a32, b32)),
                      (softmax_rows(a), softmax_rows(a32))]:
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
