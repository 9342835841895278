"""Equivalence suite: the fast engines of ``repro.arrays.wavefront`` vs the reference.

The fast engines are trusted because they are *asserted identical* to the
scalar specification -- outputs bitwise, cycle counts and active-cell
accounting exact -- over random orders, batch counts, order-32 spot checks,
+-inf and +-0.0 operands and the degenerate one-cell arrays (the same
contract the pebble game's trusted fast engine satisfies move for move).
Both engines reject NaN operands, which the reference reads as empty registers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import wavefront
from repro.arrays.systolic import LinearMatvecArray, OutputStationaryMatmulArray
from repro.arrays.triangular_qr import GentlemanKungTriangularArray
from repro.arrays.wavefront import ENGINES, validate_engine
from repro.exceptions import ConfigurationError, SimulationError


def _bitwise_equal(left: list[np.ndarray], right: list[np.ndarray]) -> bool:
    return len(left) == len(right) and all(
        a.tobytes() == b.tobytes() for a, b in zip(left, right)
    )


def _equal_up_to_nan_bits(left: list[np.ndarray], right: list[np.ndarray]) -> bool:
    """Same NaN positions and bitwise-equal everything else.

    IEEE 754 leaves the sign and payload of a NaN produced from two NaN
    operands unspecified, and CPython scalars and numpy vector loops pick
    differently, so NaN results are compared by position only.
    """
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        a_nan, b_nan = np.isnan(a), np.isnan(b)
        if not np.array_equal(a_nan, b_nan):
            return False
        if a[~a_nan].tobytes() != b[~b_nan].tobytes():
            return False
    return True


def _with_specials(rng: np.random.Generator, shape, density: float) -> np.ndarray:
    """Standard normals with a ``density`` share replaced by +-inf and +-0.0."""
    values = rng.standard_normal(shape)
    mask = rng.random(shape) < density
    values[mask] = rng.choice([np.inf, -np.inf, 0.0, -0.0], size=int(mask.sum()))
    return values


def _run_both(factory, problems):
    """Each engine's run result, or the SimulationError it raised."""
    outcomes = []
    for engine in ENGINES:
        with np.errstate(invalid="ignore"):
            try:
                outcomes.append(factory(engine).run(problems))
            except SimulationError as exc:
                outcomes.append(exc)
    return outcomes


class TestEngineSelector:
    def test_known_engines(self):
        assert ENGINES == ("reference", "fast")
        for engine in ENGINES:
            assert validate_engine(engine) == engine

    @pytest.mark.parametrize(
        "factory",
        [
            lambda e: OutputStationaryMatmulArray(3, engine=e),
            lambda e: LinearMatvecArray(3, engine=e),
            lambda e: GentlemanKungTriangularArray(3, engine=e),
        ],
    )
    def test_unknown_engine_rejected(self, factory):
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            factory("turbo")

    def test_fast_is_the_default(self):
        assert OutputStationaryMatmulArray(2).engine == "fast"
        assert LinearMatvecArray(2).engine == "fast"
        assert GentlemanKungTriangularArray(2).engine == "fast"


class TestMatmulEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=8),
        batches=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, n, batches, seed):
        rng = np.random.default_rng(seed)
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(batches)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_degenerate_one_cell_mesh(self, rng):
        problems = [
            (rng.standard_normal((1, 1)), rng.standard_normal((1, 1)))
            for _ in range(3)
        ]
        reference = OutputStationaryMatmulArray(1, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(1, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 3
        assert fast.active_cell_cycles == reference.active_cell_cycles == 3
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_single_batch(self, rng):
        n = 6
        problems = [(rng.standard_normal((n, n)), rng.standard_normal((n, n)))]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert _bitwise_equal(fast.outputs, reference.outputs)
        assert fast.active_cell_cycles == reference.active_cell_cycles

    def test_large_order_spot_check(self, rng):
        """One order beyond the hypothesis range, the size the engine is for."""
        n = 16
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(3)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_order_32_spot_check(self, rng):
        n = 32
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for _ in range(2)
        ]
        reference = OutputStationaryMatmulArray(n, engine="reference").run(problems)
        fast = OutputStationaryMatmulArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 2 * n + 2 * (n - 1)
        assert fast.active_cell_cycles == reference.active_cell_cycles == 2 * n**3
        assert _bitwise_equal(fast.outputs, reference.outputs)

    @given(
        n=st.integers(min_value=1, max_value=6),
        batches=st.integers(min_value=1, max_value=4),
        density=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_infinities_and_signed_zeros(self, n, batches, density, seed):
        """+-inf and +-0.0 operands: inf*0 and inf-inf NaNs land in the same
        cells, every other output bit matches (the +0.0 start turns a
        -0.0 sum into +0.0 in both engines), and the counts are exact."""
        rng = np.random.default_rng(seed)
        problems = [
            (_with_specials(rng, (n, n), density), _with_specials(rng, (n, n), density))
            for _ in range(batches)
        ]
        reference, fast = _run_both(
            lambda e: OutputStationaryMatmulArray(n, engine=e), problems
        )
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles == batches * n**3
        assert _equal_up_to_nan_bits(fast.outputs, reference.outputs)

    def test_all_negative_zero_products_start_from_positive_zero(self):
        a = np.full((2, 2), -0.0)
        b = np.ones((2, 2))
        for engine in ENGINES:
            (out,) = OutputStationaryMatmulArray(2, engine=engine).run([(a, b)]).outputs
            assert not np.signbit(out).any()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_operand_rejected_before_the_engine_runs(self, engine):
        """A NaN reads as an empty register: batch 0 would get a zero row,
        batch 1 misplaced terms, and only 51 of 54 cells would count active."""
        rng = np.random.default_rng(7)
        problems = [
            (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))) for _ in range(2)
        ]
        problems[0][0][1, 1] = np.nan
        mesh = OutputStationaryMatmulArray(3, engine=engine)
        with pytest.raises(ConfigurationError, match="problem instance 0 has a NaN"):
            mesh.run(problems)
        problems[0][0][1, 1] = 0.5
        problems[1][1][2, 0] = np.nan
        with pytest.raises(ConfigurationError, match="problem instance 1 has a NaN"):
            mesh.run(problems)


class TestMatvecEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=10),
        batches=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, n, batches, seed):
        rng = np.random.default_rng(seed)
        problems = [
            (rng.standard_normal((n, n)), rng.standard_normal(n))
            for _ in range(batches)
        ]
        reference = LinearMatvecArray(n, engine="reference").run(problems)
        fast = LinearMatvecArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_cycles == reference.active_cell_cycles
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_degenerate_one_cell_array(self, rng):
        problems = [(rng.standard_normal((1, 1)), rng.standard_normal(1)) for _ in range(4)]
        reference = LinearMatvecArray(1, engine="reference").run(problems)
        fast = LinearMatvecArray(1, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 5
        assert fast.active_cell_cycles == reference.active_cell_cycles == 4
        assert _bitwise_equal(fast.outputs, reference.outputs)

    def test_order_32_spot_check(self, rng):
        n = 32
        problems = [(rng.standard_normal((n, n)), rng.standard_normal(n)) for _ in range(3)]
        reference = LinearMatvecArray(n, engine="reference").run(problems)
        fast = LinearMatvecArray(n, engine="fast").run(problems)
        assert fast.cycles == reference.cycles == 3 * n + n
        assert fast.active_cell_cycles == reference.active_cell_cycles == 3 * n * n
        assert _bitwise_equal(fast.outputs, reference.outputs)

    @given(
        n=st.integers(min_value=1, max_value=8),
        batches=st.integers(min_value=1, max_value=4),
        density=st.sampled_from([0.05, 0.2, 0.5]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_infinities_and_signed_zeros(self, n, batches, density, seed):
        """+-inf and +-0.0 operands: either both engines raise on a NaN
        partial sum (inf - inf, inf * 0) entering cells 1..n-1, or NaNs sit
        in the same outputs, every other bit matches, and the counts agree."""
        rng = np.random.default_rng(seed)
        problems = [
            (_with_specials(rng, (n, n), density), _with_specials(rng, n, density))
            for _ in range(batches)
        ]
        reference, fast = _run_both(lambda e: LinearMatvecArray(n, engine=e), problems)
        if isinstance(reference, SimulationError):
            assert isinstance(fast, SimulationError)
            assert str(fast) == str(reference)
            return
        assert not isinstance(fast, SimulationError), fast
        assert fast.cycles == reference.cycles
        assert fast.active_cell_cycles == reference.active_cell_cycles == batches * n * n
        assert _equal_up_to_nan_bits(fast.outputs, reference.outputs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_inf_minus_inf_partial_sum_raises(self, engine):
        """y[1] = inf - inf after column 1 is a missing partial sum for cell 2."""
        a = np.ones((3, 3))
        a[1, 0], a[1, 1] = np.inf, -np.inf
        x = np.ones(3)
        array = LinearMatvecArray(3, engine=engine)
        with np.errstate(invalid="ignore"):
            with pytest.raises(SimulationError, match="partial sum missing"):
                array.run([(np.eye(3), x), (a, x)])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_inf_minus_inf_in_the_last_column_is_an_output_nan(self, engine):
        """inf - inf in the *last* column's term enters no further cell, so it
        is an output NaN, not a simulation error -- in both engines."""
        a = np.ones((2, 2))
        a[0, 0], a[0, 1] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            (y,) = LinearMatvecArray(2, engine=engine).run([(a, np.ones(2))]).outputs
        assert np.isnan(y[0]) and y[1] == 2.0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("operand", ["a", "x"])
    def test_nan_operand_rejected_before_the_engine_runs(self, engine, operand):
        rng = np.random.default_rng(11)
        problems = [(rng.standard_normal((4, 4)), rng.standard_normal(4)) for _ in range(3)]
        if operand == "a":
            problems[2][0][3, 3] = np.nan  # the last term: no SimulationError to hide it
        else:
            problems[2][1][0] = np.nan
        with pytest.raises(ConfigurationError, match="problem instance 2 has a NaN"):
            LinearMatvecArray(4, engine=engine).run(problems)


class TestTriangularQREquivalence:
    @given(
        m=st.integers(min_value=0, max_value=20),
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.cycles == reference.cycles
        assert fast.cell_count == reference.cell_count
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()

    def test_order_32_spot_check(self, rng):
        n = 32
        a = rng.standard_normal((40, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.cycles == reference.cycles
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()

    @given(
        m=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=12),
        height=st.integers(min_value=1, max_value=3),
        density=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_bands_match_reference(self, m, n, height, density, seed):
        """Sub-bands of 1-3 rows split the bands of n <= 12 several ways, and
        each sub-band starts its lanes at its own first row's column.  Finite
        inputs match bitwise; with +-inf and +-0.0 the NaNs match in place."""
        rng = np.random.default_rng(seed)
        a = _with_specials(rng, (m, n), density)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wavefront, "_SUB_BAND_ROWS", height)
            reference, fast = _run_both(
                lambda e: GentlemanKungTriangularArray(n, engine=e), a
            )
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        if density == 0.0:
            assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        else:
            assert _equal_up_to_nan_bits([fast.r_factor], [reference.r_factor])

    def test_order_96_spot_check_at_the_default_sub_band_height(self, rng):
        """A split band's lower sub-band does live work.

        Input row ``k`` leaves array row ``k`` all zeros, so it meets the
        rows ``i > k`` as idle pairs.  A lower sub-band (rows ``i`` >= the
        sub-band height) holds a live pair ``k >= i`` only once the input
        runs past twice the sub-band height.
        """
        n, m = 96, 128
        assert m > 2 * wavefront._SUB_BAND_ROWS and n > wavefront._SUB_BAND_ROWS
        a = rng.standard_normal((m, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()

    def test_strict_lower_triangle_stays_positive_zero_after_inf(self, rng):
        """An inf input turns the fast engine's discarded lanes NaN, yet R's
        strict lower triangle reads +0.0, sign bit clear, as the reference
        leaves it."""
        n = 6
        a = rng.standard_normal((9, n))
        a[0, 0] = np.inf
        lower = np.tril_indices(n, k=-1)
        for engine in ENGINES:
            with np.errstate(invalid="ignore"):
                r = GentlemanKungTriangularArray(n, engine=engine).run(a).r_factor
            assert np.isnan(r[0, 0])
            assert r[lower].tobytes() == np.zeros(len(lower[0])).tobytes(), engine

    def test_degenerate_one_cell_array(self, rng):
        a = rng.standard_normal((5, 1))
        reference = GentlemanKungTriangularArray(1, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(1, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps == 5

    def test_empty_input_is_idle(self):
        a = np.zeros((0, 4))
        for engine in ENGINES:
            result = GentlemanKungTriangularArray(4, engine=engine).run(a)
            assert result.cycles == 0
            assert result.active_cell_steps == 0
            assert result.utilization == 0.0

    @given(
        extra=st.integers(min_value=1, max_value=24),
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_tall_nonsquare_inputs(self, extra, n, seed):
        """rows > order: the array keeps absorbing past the square point."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + extra, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps
        assert fast.rotations_generated == reference.rotations_generated
        report = GentlemanKungTriangularArray(n).verify(a)
        assert report.ok, report.max_abs_error

    @given(
        zero_cols=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_zero_columns_produce_identity_rotations(self, zero_cols, seed):
        """Zero columns hit the idle (c, s) = (1, 0) branch of the batch path."""
        n = 6
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, n))
        a[:, sorted(zero_cols)] = 0.0
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert fast.active_cell_steps == reference.active_cell_steps

    def test_all_zero_input_keeps_idle_rotations(self):
        n = 5
        a = np.zeros((8, n))
        reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
        fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
        assert fast.r_factor.tobytes() == reference.r_factor.tobytes()
        assert np.all(fast.r_factor == 0.0)
        assert fast.rotations_generated == reference.rotations_generated == 8 * n

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_surface_as_inf_error(self, poison, rng):
        """NaN/inf input must fail verification loudly, never silently pass.

        The two engines may disagree in the *sign/payload bits* of NaNs
        downstream of a non-finite input (IEEE 754 leaves two-NaN
        arithmetic unspecified, and CPython scalar ``+`` keeps the second
        operand's NaN where numpy's vector loop keeps the first), so the
        equivalence claim here is: identical NaN positions, bitwise-equal
        finite positions, and ``verify()`` reporting ``max_abs_error=inf``.
        """
        n = 6
        a = rng.standard_normal((9, n))
        a[3, 2] = poison
        with np.errstate(invalid="ignore"):
            reference = GentlemanKungTriangularArray(n, engine="reference").run(a)
            fast = GentlemanKungTriangularArray(n, engine="fast").run(a)
            ref_nan = np.isnan(reference.r_factor)
            fast_nan = np.isnan(fast.r_factor)
            assert np.array_equal(ref_nan, fast_nan)
            assert (
                fast.r_factor[~fast_nan].tobytes()
                == reference.r_factor[~ref_nan].tobytes()
            )
            for engine in ENGINES:
                report = GentlemanKungTriangularArray(n, engine=engine).verify(a)
                assert not report.ok
                assert report.max_abs_error == np.inf


class TestReportHelpers:
    def test_nan_deviation_surfaces_as_inf(self):
        """A NaN in a corrupted output must not masquerade as a 0.0 error."""
        from repro.arrays.wavefront import batched_verification_report, max_abs_deviation

        got = np.array([[1.0, np.nan]])
        want = np.array([[1.0, 2.0]])
        assert max_abs_deviation(got, want) == np.inf
        report = batched_verification_report(None, [got], [want])
        assert not report.ok
        assert report.max_abs_error == np.inf
        assert report.mismatched_batches == (0,)

    def test_empty_expectation_has_zero_deviation(self):
        from repro.arrays.wavefront import max_abs_deviation

        assert max_abs_deviation(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("produced_count, expected_count", [(1, 3), (3, 1), (0, 2)])
    def test_length_mismatch_is_a_failure(self, produced_count, expected_count):
        """Dropped (or surplus) trailing batches must not verify as ok.

        ``zip`` truncates to the shorter sequence, so before this check an
        engine that returned only the first batch of a three-batch run
        reported ``ok=True`` with ``max_abs_error=0.0``.
        """
        from repro.arrays.wavefront import batched_verification_report

        batches = [np.full((2, 2), float(i)) for i in range(3)]
        report = batched_verification_report(
            None, batches[:produced_count], batches[:expected_count]
        )
        assert not report.ok
        assert report.max_abs_error == np.inf
        compared = min(produced_count, expected_count)
        longest = max(produced_count, expected_count)
        assert report.mismatched_batches == tuple(range(compared, longest))

    def test_equal_lengths_still_verify(self):
        from repro.arrays.wavefront import batched_verification_report

        batches = [np.full((2, 2), float(i)) for i in range(3)]
        report = batched_verification_report(None, batches, list(batches))
        assert report.ok
        assert report.max_abs_error == 0.0
        assert report.mismatched_batches == ()
