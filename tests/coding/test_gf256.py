"""Field-axiom and table-consistency tests for GF(2^8) arithmetic, and
``gf_matmul`` against a scalar reference that shares none of the
kernel's table packing."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import (
    PaddedScheme,
    RatelessXorCode,
    ReedSolomonCode,
    ReplicationCode,
    XorParityCode,
    gf256,
)
from repro.errors import ParameterError

field_elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_exp_table_starts_at_one(self):
        assert gf256._EXP[0] == 1

    def test_exp_table_wraps_with_period_255(self):
        for i in range(255):
            assert gf256._EXP[i] == gf256._EXP[i + 255]

    def test_log_exp_roundtrip(self):
        for value in range(1, 256):
            assert gf256._EXP[gf256._LOG[value]] == value

    def test_exp_values_cover_all_nonzero(self):
        assert sorted(set(gf256._EXP[:255])) == list(range(1, 256))

    def test_generator_is_primitive(self):
        seen = set()
        value = 1
        for _ in range(255):
            seen.add(value)
            value = gf256._mul_no_table(value, gf256.GENERATOR)
        assert len(seen) == 255


class TestScalarOps:
    def test_add_is_xor(self):
        assert gf256.gf_add(0b1010, 0b0110) == 0b1100

    def test_mul_zero(self):
        for a in range(256):
            assert gf256.gf_mul(a, 0) == 0
            assert gf256.gf_mul(0, a) == 0

    def test_mul_one_is_identity(self):
        for a in range(256):
            assert gf256.gf_mul(a, 1) == a

    def test_mul_matches_peasant_multiplication(self):
        for a in [0, 1, 2, 3, 91, 160, 255]:
            for b in [0, 1, 5, 77, 128, 254, 255]:
                assert gf256.gf_mul(a, b) == gf256._mul_no_table(a, b)

    @given(field_elements, field_elements)
    def test_mul_commutative(self, a, b):
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)

    @given(field_elements, field_elements, field_elements)
    def test_mul_associative(self, a, b, c):
        left = gf256.gf_mul(gf256.gf_mul(a, b), c)
        right = gf256.gf_mul(a, gf256.gf_mul(b, c))
        assert left == right

    @given(field_elements, field_elements, field_elements)
    def test_distributive(self, a, b, c):
        left = gf256.gf_mul(a, b ^ c)
        right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
        assert left == right

    @given(nonzero_elements)
    def test_inverse(self, a):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_inv(0)

    @given(field_elements, nonzero_elements)
    def test_div_is_mul_by_inverse(self, a, b):
        assert gf256.gf_div(a, b) == gf256.gf_mul(a, gf256.gf_inv(b))

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_div(7, 0)

    @given(nonzero_elements, st.integers(min_value=0, max_value=600))
    def test_pow_matches_repeated_mul(self, a, exponent):
        expected = 1
        for _ in range(exponent):
            expected = gf256.gf_mul(expected, a)
        assert gf256.gf_pow(a, exponent) == expected

    def test_pow_zero_base(self):
        assert gf256.gf_pow(0, 0) == 1
        assert gf256.gf_pow(0, 5) == 0

    def test_pow_negative_raises(self):
        with pytest.raises(ParameterError):
            gf256.gf_pow(3, -1)


class TestVectorOps:
    @given(field_elements, st.binary(min_size=1, max_size=64))
    def test_mul_bytes_matches_scalar(self, scalar, data):
        array = np.frombuffer(data, dtype=np.uint8)
        result = gf256.gf_mul_bytes(scalar, array)
        expected = [gf256.gf_mul(scalar, int(byte)) for byte in data]
        assert list(result) == expected

    @given(field_elements, st.binary(min_size=1, max_size=64))
    def test_addmul_bytes_matches_scalar(self, scalar, data):
        array = np.frombuffer(data, dtype=np.uint8)
        accumulator = np.zeros(len(data), dtype=np.uint8)
        gf256.gf_addmul_bytes(accumulator, scalar, array)
        expected = [gf256.gf_mul(scalar, int(byte)) for byte in data]
        assert list(accumulator) == expected

    def test_addmul_scalar_zero_is_noop(self):
        accumulator = np.array([1, 2, 3], dtype=np.uint8)
        gf256.gf_addmul_bytes(accumulator, 0, np.array([9, 9, 9], dtype=np.uint8))
        assert list(accumulator) == [1, 2, 3]

    def test_addmul_scalar_one_is_xor(self):
        accumulator = np.array([1, 2, 3], dtype=np.uint8)
        gf256.gf_addmul_bytes(accumulator, 1, np.array([4, 4, 4], dtype=np.uint8))
        assert list(accumulator) == [5, 6, 7]

    def test_mul_bytes_returns_new_array(self):
        data = np.array([1, 2], dtype=np.uint8)
        result = gf256.gf_mul_bytes(1, data)
        result[0] = 99
        assert data[0] == 1


class TestMulTable:
    def test_full_table_matches_scalar_mul(self):
        table = gf256._MUL_TABLE
        for a in range(256):
            for b in range(0, 256, 7):
                assert int(table[a, b]) == gf256.gf_mul(a, b)

    def test_table_symmetry(self):
        assert np.array_equal(gf256._MUL_TABLE, gf256._MUL_TABLE.T)

    def test_zero_row_and_identity_row(self):
        assert not gf256._MUL_TABLE[0].any()
        assert list(gf256._MUL_TABLE[1]) == list(range(256))


class TestInputValidation:
    def test_mul_bytes_rejects_wrong_dtype(self):
        with pytest.raises(ParameterError, match="uint8"):
            gf256.gf_mul_bytes(3, np.array([1, 2], dtype=np.int64))

    def test_mul_bytes_rejects_non_array(self):
        with pytest.raises(ParameterError, match="numpy array"):
            gf256.gf_mul_bytes(3, [1, 2, 3])

    def test_mul_bytes_rejects_out_of_range_scalar(self):
        data = np.array([1], dtype=np.uint8)
        with pytest.raises(ParameterError):
            gf256.gf_mul_bytes(256, data)
        with pytest.raises(ParameterError):
            gf256.gf_mul_bytes(-1, data)

    def test_mul_bytes_accepts_readonly_input(self):
        readonly = np.frombuffer(b"\x01\x02\x03", dtype=np.uint8)
        assert not readonly.flags.writeable
        for scalar in (0, 1, 7):
            result = gf256.gf_mul_bytes(scalar, readonly)
            assert result.flags.writeable
            assert list(result) == [
                gf256.gf_mul(scalar, byte) for byte in (1, 2, 3)
            ]

    def test_mul_bytes_accepts_non_contiguous_input(self):
        data = np.arange(16, dtype=np.uint8)[::2]
        assert not data.flags.c_contiguous
        result = gf256.gf_mul_bytes(9, data)
        assert list(result) == [gf256.gf_mul(9, int(v)) for v in data]

    def test_mul_bytes_returns_c_order_for_fortran_input(self):
        data = np.asfortranarray(np.arange(12, dtype=np.uint8).reshape(3, 4))
        assert not data.flags.c_contiguous
        for scalar in (0, 1, 7):
            result = gf256.gf_mul_bytes(scalar, data)
            assert result.flags.c_contiguous, scalar
            assert result.tolist() == [
                [gf256.gf_mul(scalar, int(v)) for v in row] for row in data
            ]

    def test_addmul_bytes_rejects_shape_mismatch(self):
        accumulator = np.zeros(4, dtype=np.uint8)
        for data in (
            np.array([7], dtype=np.uint8),          # broadcastable
            np.array([1, 2, 3], dtype=np.uint8),    # not broadcastable
            np.zeros((4, 1), dtype=np.uint8),
        ):
            for scalar in (0, 1, 3):
                with pytest.raises(ParameterError, match="shape"):
                    gf256.gf_addmul_bytes(accumulator, scalar, data)
        assert not accumulator.any()

    def test_addmul_bytes_rejects_wrong_accumulator_dtype(self):
        with pytest.raises(ParameterError, match="accumulator"):
            gf256.gf_addmul_bytes(
                np.zeros(2, dtype=np.int32), 3, np.zeros(2, dtype=np.uint8)
            )


class TestMatmul:
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    def test_matches_scalar_inner_products(self, m, k, w, rnd):
        a = np.array(
            [[rnd.randrange(256) for _ in range(k)] for _ in range(m)],
            dtype=np.uint8,
        )
        b = np.array(
            [[rnd.randrange(256) for _ in range(w)] for _ in range(k)],
            dtype=np.uint8,
        )
        product = gf256.gf_matmul(a, b)
        assert product.shape == (m, w)
        for i in range(m):
            for j in range(w):
                expected = 0
                for t in range(k):
                    expected ^= gf256.gf_mul(int(a[i, t]), int(b[t, j]))
                assert int(product[i, j]) == expected

    def test_wide_product_spans_multiple_lane_groups(self):
        # 20 rows: a 16-row group (16-byte lanes) and a 4-row tail (4-byte).
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, (20, 5), dtype=np.uint8)
        b = rng.integers(0, 256, (5, 33), dtype=np.uint8)
        product = gf256.gf_matmul(a, b)
        for i in (0, 7, 8, 15, 16, 19):
            row = gf256.gf_matmul(a[i: i + 1], b)
            assert np.array_equal(product[i], row[0])

    def test_identity_is_noop(self):
        rng = np.random.default_rng(0)
        b = rng.integers(0, 256, (4, 10), dtype=np.uint8)
        identity = np.eye(4, dtype=np.uint8)
        assert np.array_equal(gf256.gf_matmul(identity, b), b)

    def test_accepts_readonly_and_non_contiguous_operands(self):
        a = np.frombuffer(bytes(range(6)), dtype=np.uint8).reshape(2, 3)
        b = np.arange(24, dtype=np.uint8).reshape(3, 8)[:, ::2]
        product = gf256.gf_matmul(a, b)
        assert product.shape == (2, 4)

    def test_shape_mismatch_raises(self):
        a = np.zeros((2, 3), dtype=np.uint8)
        b = np.zeros((4, 5), dtype=np.uint8)
        with pytest.raises(ParameterError, match="shape mismatch"):
            gf256.gf_matmul(a, b)

    def test_non_2d_raises(self):
        with pytest.raises(ParameterError, match="2-D"):
            gf256.gf_matmul(
                np.zeros(3, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8)
            )

    def test_wrong_dtype_raises(self):
        with pytest.raises(ParameterError, match="uint8"):
            gf256.gf_matmul(
                np.zeros((2, 2), dtype=np.int16),
                np.zeros((2, 2), dtype=np.uint8),
            )

    def test_zero_width_operand(self):
        a = np.ones((3, 2), dtype=np.uint8)
        b = np.zeros((2, 0), dtype=np.uint8)
        assert gf256.gf_matmul(a, b).shape == (3, 0)

    def test_all_zero_row_group(self):
        # A 16-row group with no active column is planned without LUTs and
        # short-circuits to zeros; the 4-row tail group is still computed.
        a = np.zeros((20, 3), dtype=np.uint8)
        a[19, 0] = 5
        b = np.arange(9, dtype=np.uint8).reshape(3, 3)
        assert gf256._plan(a)[0][3] is None
        product = gf256.gf_matmul(a, b)
        assert not product[:19].any()
        assert product[19].tolist() == [gf256.gf_mul(5, v) for v in (0, 1, 2)]


class TestMatmulTiling:
    """The column-tiled kernel must be bit-identical to the untiled one.

    ``tile_columns >= width`` degenerates to a single tile (the untiled
    reference); every smaller positive tile must reproduce it exactly,
    including tiles that do not divide the width.
    """

    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 8, 16, 31, 64, 100, 128])
    def test_batch_sizes_match_untiled(self, batch):
        # Stacked-codeword layout: width = batch * shard_bytes, as produced
        # by encode_batch; shard size 48 makes widths non-multiples of the
        # test tiles below.
        rng = np.random.default_rng(batch)
        shard_bytes = 48
        a = rng.integers(0, 256, (12, 5), dtype=np.uint8)
        b = rng.integers(0, 256, (5, batch * shard_bytes), dtype=np.uint8)
        untiled = gf256.gf_matmul(a, b, tile_columns=b.shape[1])
        for tile in (1, 7, 64, 1000):
            tiled = gf256.gf_matmul(a, b, tile_columns=tile)
            assert np.array_equal(tiled, untiled), (batch, tile)

    @pytest.mark.parametrize("tile", [1, 3, 17, 100])
    def test_single_row_path_matches_untiled(self, tile):
        rng = np.random.default_rng(tile)
        a = rng.integers(0, 256, (1, 6), dtype=np.uint8)
        b = rng.integers(0, 256, (6, 131), dtype=np.uint8)
        untiled = gf256.gf_matmul(a, b, tile_columns=131)
        assert np.array_equal(gf256.gf_matmul(a, b, tile_columns=tile), untiled)

    def test_default_tile_matches_explicit_untiled(self):
        # Width beyond TILE_COLUMNS exercises the default multi-tile path.
        rng = np.random.default_rng(3)
        width = gf256.TILE_COLUMNS + 13
        a = rng.integers(0, 256, (9, 4), dtype=np.uint8)
        b = rng.integers(0, 256, (4, width), dtype=np.uint8)
        untiled = gf256.gf_matmul(a, b, tile_columns=width)
        assert np.array_equal(gf256.gf_matmul(a, b), untiled)

    def test_non_positive_tile_raises(self):
        a = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(ParameterError, match="tile_columns"):
            gf256.gf_matmul(a, a, tile_columns=0)


def reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(rows * inner * width) scalar reference for ``gf_matmul``."""
    rows, inner = a.shape
    width = b.shape[1]
    out = np.zeros((rows, width), dtype=np.uint8)
    for r in range(rows):
        for i in range(inner):
            coefficient = int(a[r, i])
            if coefficient == 0:
                continue
            out[r] ^= np.frombuffer(
                bytes(gf256.gf_mul(coefficient, int(x)) for x in b[i]),
                dtype=np.uint8,
            )
    return out


def random_operands(rng, rows, inner, width):
    a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
    b = rng.integers(0, 256, size=(inner, width), dtype=np.uint8)
    return a, b


SHAPES = (
    (1, 1, 1),          # minimal
    (1, 16, 1000),      # single row (dedicated kernel path)
    (2, 3, 501),        # 2-byte lanes
    (3, 5, 97),         # nothing aligned to anything
    (4, 4, 1000),       # RS(4, 8) parity block: 4-byte lanes
    (5, 6, 333),        # one row past a 4-byte lane: 8-byte lanes
    (8, 8, 777),        # a full 8-byte lane
    (9, 7, 555),        # one row past an 8-byte lane: 16-byte lanes
    (16, 16, 4096),     # exactly one 16-row group
    (17, 16, 1000),     # one full group + a 1-row tail group
    (20, 9, 999),       # 16 + a 4-row tail group
    (33, 12, 640),      # 16 + 16 + a 1-row tail group
    (32, 16, 4096),     # RS(16, 32) encode shape
    (8, 4, gf256.TILE_COLUMNS + 5),  # wider than one tile
)

SCHEME_SIZE = 64


def five_schemes():
    """(scheme, encode indices, decode subset) for all five families.

    Rateless has no ``n`` and decodes from whatever masks happen to be
    independent, so it keeps every block; the MDS schemes decode from
    the last ``min_blocks_to_decode`` indices (all-parity for RS).
    """
    return (
        (ReedSolomonCode(k=4, n=8, data_size_bytes=SCHEME_SIZE),
         range(8), (4, 5, 6, 7)),
        (XorParityCode(k=4, data_size_bytes=SCHEME_SIZE),
         range(5), (1, 2, 3, 4)),
        (RatelessXorCode(k=4, data_size_bytes=SCHEME_SIZE, seed=1),
         range(8), tuple(range(8))),
        (ReplicationCode(data_size_bytes=SCHEME_SIZE, n=3), range(3), (2,)),
        (PaddedScheme(
            SCHEME_SIZE - 3, k=4,
            inner_factory=lambda padded_bytes: ReedSolomonCode(
                k=4, n=8, data_size_bytes=padded_bytes
            ),
        ), range(8), (4, 5, 6, 7)),
    )


class TestMatmulParity:
    """``gf_matmul`` is byte-identical to :func:`reference_matmul`."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_scalar_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        a, b = random_operands(rng, *shape)
        assert gf256.gf_matmul(a, b).tobytes() == \
            reference_matmul(a, b).tobytes()

    @pytest.mark.parametrize("tile", (1, 7, 97, 4096))
    def test_tile_size_never_changes_bytes(self, tile):
        rng = np.random.default_rng(tile)
        a, b = random_operands(rng, 20, 8, 1000)
        assert gf256.gf_matmul(a, b, tile_columns=tile).tobytes() == \
            reference_matmul(a, b).tobytes()

    def test_degenerate_coefficients(self):
        """All-zero rows, identity rows, and repeated rows. The packed
        kernel's only fast path is skipping all-zero coefficient columns;
        the other rows go through the packed LUTs like any other."""
        rng = np.random.default_rng(5)
        b = rng.integers(0, 256, size=(4, 333), dtype=np.uint8)
        a = np.zeros((6, 4), dtype=np.uint8)
        a[1] = (1, 0, 0, 0)          # pure copy
        a[2] = (1, 1, 1, 1)          # pure XOR
        a[3] = (0, 7, 0, 0)          # single multiply
        a[4] = a[3]                  # repeated row
        assert gf256.gf_matmul(a, b).tobytes() == \
            reference_matmul(a, b).tobytes()

    @pytest.mark.parametrize(
        "group_size, lane",
        ((1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16), (16, 16)),
    )
    def test_plan_packs_each_group_at_the_narrowest_lane(
        self, group_size, lane
    ):
        rng = np.random.default_rng(group_size)
        a = rng.integers(1, 256, size=(gf256.LANES + group_size, 3),
                         dtype=np.uint8)
        (_, _, _, full), (start, end, active, tail) = gf256._plan(a)
        assert full.itemsize == gf256.LANES
        assert (start, end) == (gf256.LANES, gf256.LANES + group_size)
        assert tail.shape == (3, 256) and tail.itemsize == lane
        assert active.tolist() == [0, 1, 2]

    def test_empty_operands_short_circuit(self):
        assert gf256.gf_matmul(
            np.zeros((3, 4), dtype=np.uint8),
            np.zeros((4, 0), dtype=np.uint8),
        ).shape == (3, 0)
        assert gf256.gf_matmul(
            np.zeros((0, 4), dtype=np.uint8),
            np.zeros((4, 9), dtype=np.uint8),
        ).shape == (0, 9)

    def test_readonly_and_noncontiguous_operands(self):
        rng = np.random.default_rng(11)
        a, b = random_operands(rng, 8, 8, 600)
        a.setflags(write=False)
        b_strided = np.ascontiguousarray(b.T).T  # non-C-contiguous view
        assert gf256.gf_matmul(a, b_strided).tobytes() == \
            reference_matmul(a, b).tobytes()

    def test_validation_errors(self):
        good = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ParameterError, match="uint8"):
            gf256.gf_matmul(good.astype(np.uint16), good)
        with pytest.raises(ParameterError, match="2-D"):
            gf256.gf_matmul(good, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ParameterError, match="shape"):
            gf256.gf_matmul(good, np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(ParameterError, match="tile_columns"):
            gf256.gf_matmul(good, good, tile_columns=0)

    def test_plan_cache_is_bounded_and_evicted_plans_recompute(self):
        rng = np.random.default_rng(13)
        first, b = random_operands(rng, 3, 4, 50)
        expected = reference_matmul(first, b)
        assert gf256.gf_matmul(first, b).tobytes() == expected.tobytes()
        for number in range(gf256.PLAN_CACHE_LIMIT + 5):
            a = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
            a[0, :2] = divmod(number, 256)  # each matrix is distinct
            gf256.gf_matmul(a, b)
        assert len(gf256._PLAN_CACHE) <= gf256.PLAN_CACHE_LIMIT
        assert (first.shape, first.tobytes()) not in gf256._PLAN_CACHE
        assert gf256.gf_matmul(first, b).tobytes() == expected.tobytes()
        assert (first.shape, first.tobytes()) in gf256._PLAN_CACHE

    def test_five_schemes_round_trip(self):
        for scheme, indices, subset in five_schemes():
            value = os.urandom(scheme.data_size_bytes)
            blocks = scheme.encode_many(value, indices)
            decoded = scheme.decode({i: blocks[i] for i in subset})
            assert decoded == value, scheme.name


class TestPolyEval:
    def test_constant_polynomial(self):
        assert gf256.gf_poly_eval([42], 7) == 42

    def test_linear_polynomial(self):
        # p(x) = 3 + 2x at x = 5 -> 3 ^ (2 * 5)
        assert gf256.gf_poly_eval([3, 2], 5) == 3 ^ gf256.gf_mul(2, 5)

    @given(
        st.lists(field_elements, min_size=1, max_size=8),
        field_elements,
    )
    def test_matches_power_expansion(self, coefficients, x):
        expected = 0
        for power, coefficient in enumerate(coefficients):
            expected ^= gf256.gf_mul(coefficient, gf256.gf_pow(x, power))
        assert gf256.gf_poly_eval(coefficients, x) == expected
