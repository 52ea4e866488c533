import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from penalab._stable import (_TAIL_E_CUT, SQRT_2PI, gauss_tail_e, log_gauss_tail_e, norm_pdf,
                             sinhc)

# crosses 0 and both sides of the series switch at |alpha| = _TAIL_E_CUT
ALPHAS = np.concatenate([np.linspace(-36.0, 36.0, 73),
                         [-0.0, -1e-3, 1e-3, -_TAIL_E_CUT - 1e-3, _TAIL_E_CUT - 1e-3,
                          _TAIL_E_CUT + 1e-3]])


class TestGaussTailE:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_is_the_integral_of_the_normal_survival(self, alpha):
        # Q(z) is below 1e-340 past max(alpha, 0) + 40, so the cut costs nothing
        ref, _ = integrate.quad(lambda z: special.ndtr(-z), alpha, max(alpha, 0.0) + 40.0,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert gauss_tail_e(alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_parity(self):
        a = np.abs(ALPHAS)
        assert np.allclose(gauss_tail_e(-a), gauss_tail_e(a) + a, rtol=1e-15, atol=0.0)

    def test_log_form_is_the_log_of_the_linear_form(self):
        alphas = np.concatenate([ALPHAS, np.linspace(-40.0, 40.0, 801)])
        lin = gauss_tail_e(alphas)
        normal = lin >= np.finfo(float).tiny
        assert normal.sum() > 700
        assert np.allclose(log_gauss_tail_e(alphas[normal]), np.log(lin[normal]),
                           rtol=0.0, atol=1e-12)

    def test_log_form_survives_underflow(self):
        # phi(200) underflows, so the linear form is 0 there
        assert gauss_tail_e(200.0) == 0.0
        val = log_gauss_tail_e(200.0)
        assert np.isfinite(val)
        # log E(a) = -a^2/2 - log(sqrt(2 pi)) - 2 log(a) + log(1 - 3/a^2 + ...)
        assert val == pytest.approx(-20000.0 - 0.5 * np.log(2.0 * np.pi) - 2.0 * np.log(200.0)
                                    + np.log1p(-3.0 / 200.0 ** 2 + 15.0 / 200.0 ** 4), rel=1e-15)

    def test_scalar_in_scalar_out(self):
        assert isinstance(gauss_tail_e(0.5), float)
        assert isinstance(log_gauss_tail_e(-0.5), float)
        assert gauss_tail_e(np.array([0.5])).shape == (1,)


def reference_tail_e_over_pdf(alpha):
    """``_stable._tail_e_over_pdf`` with its series built for every array,
    the form the skip replaced, kept as its reference."""
    big = alpha > _TAIL_E_CUT
    ab = np.where(big, alpha, 100.0)
    inv2 = 1.0 / (ab * ab)
    series = inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2 * (1.0 - 7.0 * inv2 * (
        1.0 - 9.0 * inv2 * (1.0 - 11.0 * inv2)))))
    mills = 0.5 * SQRT_2PI * special.erfcx(np.where(big, 1.0, alpha) / np.sqrt(2.0))
    return np.where(big, series, 1.0 - alpha * mills)


def reference_gauss_tail_e(alpha):
    alpha = np.asarray(alpha, dtype=float)
    mag = np.abs(alpha)
    return norm_pdf(mag) * reference_tail_e_over_pdf(mag) + np.maximum(-alpha, 0.0)


def reference_log_gauss_tail_e(alpha):
    """``log_gauss_tail_e`` with the logaddexp of log max(-alpha, 0) taken for
    every array, kept as its reference."""
    alpha = np.asarray(alpha, dtype=float)
    mag = np.abs(alpha)
    with np.errstate(divide="ignore"):
        return np.logaddexp(-0.5 * mag * mag - np.log(SQRT_2PI)
                            + np.log(reference_tail_e_over_pdf(mag)),
                            np.log(np.maximum(-alpha, 0.0)))


class TestTailHelpersAreBitIdentical:
    # arrays with and without lanes above _TAIL_E_CUT and below 0
    @pytest.mark.parametrize("alpha", [
        np.linspace(0.0, _TAIL_E_CUT, 301),
        np.linspace(0.0, 40.0, 401),
        np.linspace(-10.0, 20.0, 301),
        np.linspace(-40.0, 40.0, 801),
        np.array([_TAIL_E_CUT, np.nextafter(_TAIL_E_CUT, np.inf), -0.0, 0.0, 1e-300, -1e-300]),
        np.array([np.inf, np.nan, 200.0, -200.0]),
        np.array(0.5), np.array(-0.5), np.array(35.0),
    ], ids=["within", "above", "below", "both", "edges", "far", "0.5", "-0.5", "35"])
    def test_against_the_forms_that_build_every_branch(self, alpha):
        with np.errstate(invalid="ignore", divide="ignore"):
            assert np.array_equal(gauss_tail_e(alpha), reference_gauss_tail_e(alpha), equal_nan=True)
            assert np.array_equal(log_gauss_tail_e(alpha), reference_log_gauss_tail_e(alpha),
                                  equal_nan=True)


class TestSinhc:
    def test_within_two_ulp_of_a_40_digit_reference(self):
        mag = np.logspace(-300.0, 2.8, 601)
        z = np.concatenate((-mag[::-1], [0.0], mag))
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.sinh(v) / v) if v else 1.0 for v in map(mpmath.mpf, z)])
        got = sinhc(z)
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))

    def test_scalar_in_scalar_out(self):
        assert sinhc(0.0) == 1.0 and isinstance(sinhc(0.0), float)
        assert sinhc(np.array([0.0, 1e-320])).tolist() == [1.0, 1.0]
