"""Logarithmic quantiser (Eq. 15) semantics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import threads
from repro.quant import (
    LogQuantConfig,
    logquant,
    quantization_error,
    quantize_dequantize,
    quantize_tensor,
)

from ..hw.fixed_point_oracle import log_quantize


class TestConfig:
    def test_step_from_z(self):
        assert LogQuantConfig(bits=5, z_w=0).step == 1.0
        assert LogQuantConfig(bits=5, z_w=1).step == 0.5
        assert LogQuantConfig(bits=5, z_w=2).step == 0.25

    def test_num_levels(self):
        assert LogQuantConfig(bits=5).num_levels == 15
        assert LogQuantConfig(bits=4).num_levels == 7
        assert LogQuantConfig(bits=8).num_levels == 127

    def test_describe(self):
        assert "a_w=2," in LogQuantConfig(bits=5, z_w=0).describe()
        assert "2^-1/2" in LogQuantConfig(bits=5, z_w=1).describe()

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            LogQuantConfig(bits=1)

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            LogQuantConfig(z_w=-1)

    def test_dynamic_range_grows_with_bits(self):
        r5 = LogQuantConfig(bits=5, z_w=1).dynamic_range_log2
        r8 = LogQuantConfig(bits=8, z_w=1).dynamic_range_log2
        assert r8 > r5


class TestQuantize:
    def test_fsr_is_max_abs(self, rng):
        w = rng.standard_normal(100)
        qt = quantize_tensor(w, LogQuantConfig())
        assert np.isclose(qt.fsr, np.abs(w).max())

    def test_max_weight_is_exact(self):
        w = np.array([0.5, -0.25, 0.125])
        qt = quantize_tensor(w, LogQuantConfig(bits=5, z_w=0))
        assert np.isclose(qt.values[0], 0.5)

    def test_power_of_two_grid_exact_for_z0(self):
        """Powers of two within range are representable exactly at a_w=2."""
        w = np.array([1.0, 0.5, 0.25, 0.125, -0.5])
        qt = quantize_tensor(w, LogQuantConfig(bits=5, z_w=0))
        assert np.allclose(qt.values, w)

    def test_signs_preserved(self, rng):
        w = rng.standard_normal(200)
        qt = quantize_tensor(w, LogQuantConfig())
        nz = qt.values != 0
        assert np.all(np.sign(qt.values[nz]) == np.sign(w[nz]))

    def test_small_values_flush_to_zero(self):
        cfg = LogQuantConfig(bits=4, z_w=0)  # 7 levels, range 2^-6
        w = np.array([1.0, 1e-6])
        qt = quantize_tensor(w, cfg)
        assert qt.values[1] == 0.0
        assert qt.codes[1] == -1

    def test_all_zero_tensor(self):
        qt = quantize_tensor(np.zeros(5), LogQuantConfig())
        assert np.all(qt.values == 0)
        assert qt.fsr == 0.0

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                     [np.nan, np.inf, np.nan]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("align_fsr", [False, True])
    def test_non_finite_weights_are_rejected(self, bad, dtype, align_fsr):
        """A diverged run's nan or inf weight has no FSR to quantise
        against; a nan FSR used to zero the whole layer silently."""
        w = np.array([[0.1, -0.3, *bad]], dtype=dtype)
        with pytest.raises(ValueError, match=f"{len(bad)} non-finite"):
            quantize_tensor(w, LogQuantConfig(align_fsr=align_fsr))

    def test_codes_within_range(self, rng):
        cfg = LogQuantConfig(bits=5, z_w=1)
        qt = quantize_tensor(rng.standard_normal(500), cfg)
        valid = (qt.codes == -1) | ((qt.codes >= 0)
                                    & (qt.codes < cfg.num_levels))
        assert np.all(valid)

    def test_log2_magnitudes_on_grid(self, rng):
        cfg = LogQuantConfig(bits=5, z_w=1)
        qt = quantize_tensor(rng.standard_normal(100), cfg)
        nz = qt.codes >= 0
        rel = (np.log2(qt.fsr) - qt.log2_magnitudes[nz]) / cfg.step
        assert np.allclose(rel, np.round(rel))


class TestErrorBehaviour:
    def test_error_shrinks_with_bits(self, rng):
        w = rng.standard_normal(2000) * 0.3
        errs = [quantization_error(w, LogQuantConfig(bits=b, z_w=1))
                for b in (4, 5, 6, 8)]
        assert errs[0] >= errs[1] >= errs[2] >= errs[3]

    def test_paper_base_selection_at_5_bits(self, rng):
        """Fig. 4: a_w = 2^-1/2 beats a_w = 2 at 5 bits for Gaussian-ish
        weights (finer steps near FSR matter more than dynamic range)."""
        w = rng.standard_normal(5000) * 0.2
        err_z0 = quantization_error(w, LogQuantConfig(bits=5, z_w=0))
        err_z1 = quantization_error(w, LogQuantConfig(bits=5, z_w=1))
        assert err_z1 < err_z0

    def test_idempotent(self, rng):
        cfg = LogQuantConfig(bits=5, z_w=1)
        w = rng.standard_normal(300)
        once = quantize_dequantize(w, cfg)
        twice = quantize_dequantize(once, cfg)
        assert np.allclose(once, twice)


@given(st.integers(2, 8), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_quantized_magnitudes_bounded_by_fsr(bits, z_w, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(64)
    qt = quantize_tensor(w, LogQuantConfig(bits=bits, z_w=z_w))
    assert np.all(np.abs(qt.values) <= qt.fsr * (1 + 1e-9))


@given(st.floats(0.01, 10.0), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_relative_error_bounded_by_half_step(scale, z_w):
    """Non-flushed weights have log2 error <= step/2."""
    cfg = LogQuantConfig(bits=8, z_w=z_w)
    rng = np.random.default_rng(0)
    w = rng.random(100) * scale + scale * 0.01
    qt = quantize_tensor(w, cfg)
    nz = qt.codes >= 0
    err_log2 = np.abs(np.log2(np.abs(qt.values[nz])) - np.log2(w[nz]))
    assert np.all(err_log2 <= cfg.step / 2 + 1e-9)


class TestAlignedFSR:
    def test_aligned_fsr_on_grid(self, rng):
        cfg = LogQuantConfig(bits=5, z_w=1, align_fsr=True)
        qt = quantize_tensor(rng.standard_normal(100) * 0.3, cfg)
        pos = np.log2(qt.fsr) / cfg.step
        assert np.isclose(pos, round(pos))

    def test_aligned_fsr_covers_max(self, rng):
        w = rng.standard_normal(100)
        cfg = LogQuantConfig(bits=5, z_w=2, align_fsr=True)
        qt = quantize_tensor(w, cfg)
        assert qt.fsr >= np.abs(w).max() - 1e-12

    def test_aligned_log2_magnitudes_exact_grid(self, rng):
        """With aligned FSR the PE sees exactly grid-aligned operands."""
        cfg = LogQuantConfig(bits=6, z_w=1, align_fsr=True)
        qt = quantize_tensor(rng.standard_normal(200) * 0.2, cfg)
        mags = qt.log2_magnitudes[qt.codes >= 0] / cfg.step
        assert np.allclose(mags, np.round(mags), atol=1e-9)


class TestSlicedQuantize:
    """The codes are read from a bucket table over C_out slices on the
    shared pool; at one and two threads their codes, signs and FSR equal
    the whole-tensor float64 formula (the oracle) bitwise."""

    @pytest.fixture(autouse=True)
    def most_slices(self, monkeypatch):
        monkeypatch.setattr(threads, "MIN_SLICE_ELEMENTS", 1)
        yield
        threads.set_threads(None)

    def check(self, w, config):
        want_codes, want_signs, want_fsr = log_quantize(w, config)
        run_all = threads._run_all
        slices = []

        def spy(n_threads, calls):
            slices.append(len(calls))
            return run_all(n_threads, calls)

        for n_threads in (1, 2):
            threads.set_threads(n_threads)
            with mock.patch.object(threads, "_run_all", spy):
                qt = quantize_tensor(w, config)
            assert qt.fsr == want_fsr
            for got, want in ((qt.codes, want_codes), (qt.signs, want_signs)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
        return slices

    @given(c_out=st.integers(2, 9), c_in=st.integers(1, 4),
           kernel=st.sampled_from([1, 3]),
           scale=st.sampled_from([0.0, 0.05, 1.0, 8.0, 300.0]),
           dtype=st.sampled_from([np.float32, np.float64]),
           bits=st.integers(2, 8), z_w=st.integers(0, 2),
           align_fsr=st.booleans(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_slices_equal_whole_tensor(self, c_out, c_in, kernel, scale,
                                       dtype, bits, z_w, align_fsr, seed):
        rng = np.random.default_rng(seed)
        config = LogQuantConfig(bits=bits, z_w=z_w, align_fsr=align_fsr)
        w = rng.standard_normal((c_out, c_in, kernel, kernel)) * scale
        w[rng.random(w.shape) < 0.2] = 0.0
        # a third of the weights halfway between two levels, where the
        # rounding decides the code; the largest one stays, and so the FSR
        fsr = log_quantize(w, config)[2]
        edge = rng.random(w.shape) < 0.3
        edge.flat[np.abs(w).argmax()] = False
        levels = rng.integers(0, config.num_levels, edge.sum())
        w[edge] = (fsr * rng.choice([-1.0, 1.0], edge.sum())
                   * 2.0 ** (-config.step * (levels + 0.5)))
        self.check(w.astype(dtype), config)

    def test_fsr_above_one_splits(self, rng):
        w = rng.standard_normal((6, 3, 3, 3)) * 8.0
        slices = self.check(w, LogQuantConfig(align_fsr=True))
        assert log_quantize(w, LogQuantConfig())[2] > 1.0
        assert slices and slices[0] >= 2        # two threads split it

    def test_all_zero_tensor(self):
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        self.check(w, LogQuantConfig(align_fsr=True))
        self.check(w, LogQuantConfig())

    @given(c_out=st.integers(1, 9), inner=st.integers(1, 64),
           scale=st.floats(-30.0, 3.0),
           dtype=st.sampled_from([np.float32, np.float64]),
           bits=st.integers(2, 8), z_w=st.integers(0, 3),
           align_fsr=st.booleans(), transpose=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_codes_equal_formula(self, c_out, inner, scale, dtype, bits, z_w,
                                 align_fsr, transpose, seed):
        """Scales from 1e-30 to 1e3, with zeros, -0.0 and subnormals, in
        contiguous and transposed tensors."""
        rng = np.random.default_rng(seed)
        config = LogQuantConfig(bits=bits, z_w=z_w, align_fsr=align_fsr)
        w = (rng.standard_normal((c_out, inner)) * 10.0 ** scale).astype(dtype)
        pick = rng.random(w.shape)
        w[pick < 0.1] = 0.0
        w[(pick >= 0.1) & (pick < 0.15)] = -0.0
        tiny = pick >= 0.92
        w[tiny] = (np.finfo(dtype).smallest_subnormal
                   * rng.integers(1, 1 << 20, tiny.sum())
                   * rng.choice([-1, 1], tiny.sum()))
        self.check(w.T if transpose else w, config)

    @pytest.mark.parametrize("align_fsr", [False, True])
    @pytest.mark.parametrize("bits,z_w,fsr", [
        (5, 1, 0.37), (5, 1, 1.0), (5, 1, 300.0), (5, 1, 1e-30),
        (2, 0, 0.37), (4, 3, 0.37), (3, 2, 2.5), (8, 0, 0.37), (8, 1, 7.0),
    ])
    def test_every_float32_near_a_boundary(self, bits, z_w, fsr, align_fsr):
        """Every float32 within 4096 ulps of each level boundary and of
        the zero cut, both signs: where a bucket table could go wrong.
        At 8 bits and a_w = 2 the lowest boundaries sit among the
        subnormals."""
        config = LogQuantConfig(bits=bits, z_w=z_w, align_fsr=align_fsr)
        top = np.float32(fsr)
        full_scale = log_quantize(np.array([top]), config)[2]
        levels = np.arange(config.num_levels)
        bounds = (full_scale * 2.0 ** (-config.step * (levels + 0.5))
                  ).astype(np.float32)
        bits_near = (bounds.view(np.int32)[:, None]
                     + np.arange(-4096, 4097, dtype=np.int32)).ravel()
        near = np.unique(bits_near[bits_near >= 0]).view(np.float32)
        w = np.concatenate([[top], near, -near])
        assert log_quantize(w, config)[2] == full_scale
        self.check(w, config)

    def test_few_weights_take_the_formula(self, rng, monkeypatch):
        """The table settles all but about 1% of a 5-bit layer's
        float32 weights; only those reach the float64 formula."""
        formula = logquant.level_codes
        sizes = []

        def spy(mags, fsr, config):
            sizes.append(mags.size)
            return formula(mags, fsr, config)

        monkeypatch.setattr(logquant, "level_codes", spy)
        w = (rng.standard_normal((64, 32, 3, 3)) * 0.05).astype(np.float32)
        self.check(w, LogQuantConfig(align_fsr=True))
        assert 0 < sum(sizes) < 2 * 0.03 * w.size      # two quantisations
