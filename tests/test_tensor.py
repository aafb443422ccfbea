import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvtrade.errors import ContractViolation
from kvtrade.tensor import concat_rows, matmul, softmax_rows
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
