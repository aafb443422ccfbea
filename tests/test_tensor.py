import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvtrade.errors import ContractViolation
from kvtrade.tensor import concat_rows, matmul, softmax_rows, stacked_matmul
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
    # (stack, rows, inner, cols); one-row products are decode's shape
    @pytest.mark.parametrize("shape", [(1, 1, 4, 9), (4, 1, 16, 33), (3, 5, 8, 2), (2, 1, 1, 1)])
    def test_each_product_is_matmul(self, shape):
        stack, rows, inner, cols = shape
        rng = np.random.default_rng(stack * rows + inner)
        a = rng.normal(size=(stack, rows, inner)).astype(np.float32)
        b = rng.normal(size=(stack, inner, cols)).astype(np.float32)
        keys = np.ascontiguousarray(b.transpose(0, 2, 1))  # decode multiplies by stored keys, transposed
        for right in (b, keys.transpose(0, 2, 1)):
            out = stacked_matmul(a, right)
            assert out.shape == (stack, rows, cols) and out.dtype == np.float32
            for i in range(stack):
                assert out[i].tobytes() == matmul(a[i], right[i]).tobytes()

    @pytest.mark.parametrize("a, b, message", [
        (np.ones((2, 1, 4)), np.ones((3, 4, 5)), "mismatch"),
        (np.ones((2, 1, 4)), np.ones((2, 3, 5)), "mismatch"),
        (np.ones((2, 4)), np.ones((2, 4, 5)), "3-D float32"),
        (np.ones((1, 1, 2)), [[[1.0], [1.0]]], "3-D float32"),
    ], ids=["stacks", "inner", "2-D", "list"])
    def test_misfit_operands_rejected(self, a, b, message):
        a = np.asarray(a, dtype=np.float32)
        b = b if isinstance(b, list) else np.asarray(b, dtype=np.float32)
        with pytest.raises(ContractViolation, match=message):
            stacked_matmul(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_operands_not_float32_rejected(self, dtype):
        a, b = np.ones((2, 1, 4), dtype=np.float32), np.ones((2, 4, 3), dtype=np.float32)
        for args in ((a.astype(dtype), b), (a, b.astype(dtype))):
            with pytest.raises(ContractViolation, match="3-D float32"):
                stacked_matmul(*args)

    def test_overflowing_product_rejected(self):
        # under filterwarnings = error a warning would pre-empt the check
        big = np.full((2, 1, 2), 1e30, dtype=np.float32)
        with pytest.raises(ContractViolation, match="non-finite elements"):
            stacked_matmul(big, big.transpose(0, 2, 1))


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

    @given(finite_matrices())
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m)
        assert np.all(np.isfinite(out))
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6


class TestConcatRows:
    def test_simple(self):
        assert concat_rows(matrix([[1]]), matrix([[2]])).tolist() == [[1.0], [2.0]]

    def test_empty_prefix_is_identity(self):
        m = matrix([[1, 2], [3, 4]])
        assert np.array_equal(concat_rows(zeros(0, 2), m), m)

    def test_hand_stack(self):
        out = concat_rows(matrix([[1, 2]]), matrix([[3, 4]]))
        assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_column_mismatch(self):
        with pytest.raises(ContractViolation):
            concat_rows(zeros(1, 2), zeros(1, 3))

    @given(finite_matrices(max_side=5), finite_matrices(max_side=5))
    def test_row_counts_add(self, a, b):
        if a.shape[1] != b.shape[1]:
            with pytest.raises(ContractViolation):
                concat_rows(a, b)
        else:
            out = concat_rows(a, b)
            assert out.shape[0] == a.shape[0] + b.shape[0]
            assert np.array_equal(out[: a.shape[0]], a)
            assert np.array_equal(out[a.shape[0] :], b)


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
    "matmul": lambda x: matmul(x, np.eye(2, dtype=np.float32)),
    "softmax_rows": softmax_rows,
    "concat_rows": lambda x: concat_rows(zeros(1, 2), x),
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
                      (softmax_rows(a), softmax_rows(a32)), (concat_rows(a, a32), concat_rows(a32, a32))]:
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
