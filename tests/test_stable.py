import numpy as np
import pytest
from scipy import integrate, special

from penalab._stable import _TAIL_E_CUT, gauss_tail_e, log_gauss_tail_e

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
