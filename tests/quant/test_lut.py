"""LUT+shift PE datapath (Eq. 17) against float references."""

import numpy as np
import pytest

from repro.quant import FracLUT, LogDomainPE, required_frac_bits


def reference_multiply(x_log2, w_log2, w_sign):
    """Float oracle for the PE's product of the same quantised operands."""
    return np.asarray(w_sign) * np.power(2.0, np.asarray(x_log2)
                                         + np.asarray(w_log2))


class TestFracLUT:
    def test_entry_count(self):
        assert FracLUT(frac_bits=2).num_entries == 4
        assert FracLUT(frac_bits=0).num_entries == 1

    def test_entries_are_fractional_powers(self):
        lut = FracLUT(frac_bits=2, precision_bits=20)
        want = np.round(2 ** (np.arange(4) / 4) * 2**20)
        assert np.array_equal(lut.table, want)

    def test_negative_frac_bits_rejected(self):
        with pytest.raises(ValueError):
            FracLUT(frac_bits=-1)

    def test_lookup_vectorised(self):
        lut = FracLUT(frac_bits=2)
        out = lut.lookup(np.array([0, 1, 2, 3]))
        assert out.shape == (4,)
        assert np.all(np.diff(out) > 0)  # monotone in the fraction


class TestLogDomainPE:
    def test_exact_on_integer_log2(self):
        """Products of pure powers of two are exact."""
        pe = LogDomainPE(frac_bits=2, precision_bits=16)
        x = pe.encode_log2(np.array([-1.0, -2.0, 0.0]))
        w = pe.encode_log2(np.array([-1.0, 0.0, -3.0]))
        sign = np.ones(3)
        got = pe.to_float(pe.multiply(x, w, sign))
        assert np.allclose(got, [0.25, 0.25, 0.125])

    def test_sign_handling(self):
        pe = LogDomainPE(frac_bits=2, precision_bits=16)
        x = pe.encode_log2(np.array([-1.0]))
        w = pe.encode_log2(np.array([-1.0]))
        got = pe.to_float(pe.multiply(x, w, np.array([-1])))
        assert np.isclose(got[0], -0.25)

    def test_paper_design_point_grid(self):
        """T=24, tau=4, a_w=2^-1/2: worst-case relative error shrinks as
        accumulator precision grows (truncation-limited datapath)."""
        errors = []
        for precision in (12, 16, 20, 24):
            pe = LogDomainPE(frac_bits=2, precision_bits=precision)
            x_log2 = -np.arange(0, 25) / 4.0
            w_log2 = -np.arange(0, 15) / 2.0
            xs, ws = np.meshgrid(x_log2, w_log2)
            got = pe.to_float(pe.multiply(pe.encode_log2(xs),
                                          pe.encode_log2(ws),
                                          np.ones_like(xs, dtype=np.int64)))
            want = 2.0 ** (xs + ws)
            errors.append(float(np.max(np.abs(got - want) / want)))
        assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 2e-3

    def test_high_precision_is_near_exact(self):
        pe = LogDomainPE(frac_bits=3, precision_bits=30)
        rng = np.random.default_rng(0)
        x = np.round(rng.uniform(-6, 0, 200) * 8) / 8
        w = np.round(rng.uniform(-7, 0, 200) * 8) / 8
        sign = rng.choice([-1, 1], 200)
        got = pe.to_float(pe.multiply(pe.encode_log2(x), pe.encode_log2(w),
                                      sign))
        want = reference_multiply(x, w, sign)
        assert np.allclose(got, want, rtol=1e-4)

    def test_int_frac_decomposition(self):
        """Int(p) + Frac(p)/2^f reconstructs p for negative values too."""
        pe = LogDomainPE(frac_bits=2)
        p_hat = np.array([-5, -1, 0, 3, -8], dtype=np.int64)
        int_part = p_hat >> 2
        frac = p_hat & 3
        assert np.all(int_part * 4 + frac == p_hat)


class TestRequiredFracBits:
    def test_paper_point(self):
        # tau=4 -> log2 tau = 2; z_w=1 -> max(2, 1) = 2
        assert required_frac_bits(4.0, 1) == 2

    def test_weight_dominates(self):
        assert required_frac_bits(2.0, 3) == 3

    def test_tau_one(self):
        assert required_frac_bits(1.0, 0) == 0

    def test_non_power_of_two_tau_rejected(self):
        with pytest.raises(ValueError):
            required_frac_bits(3.0, 1)
