"""Laboratory for laws of Brownian motion penalized through its one-sided max.

Modules
-------
exact_laws    closed-form densities, the regime partition, penalty reductions
martingales   weight-martingale evaluators at a path state
quadrature    deterministic finite-horizon and limit laws on rectangle events
samplers      seeded exact samplers for Brownian states and the limit laws
penalized_mc  weighted Monte Carlo estimation of penalized laws
expansion     rate fitting and the first-order horizon expansions
acceptance    the acceptance battery (also behind ``penalab verify``)
cli           the ``penalab`` command-line entry point
"""

from .exact_laws import (
    DegeneracyError,
    DensitySpec,
    ExponentialBivariate,
    Regime,
    SeparableIndicator,
    TabulatedGrid,
    classify_region,
    fbar,
    h_cdf,
    kennedy_transforms,
    p_bessel3,
    p_joint,
    p_max,
    phi_from_f,
)
from .martingales import (
    f1_lambda_phi_xs,
    f1_phi_xs,
    m_bar_xs,
    m_kennedy_xs,
    m_mu_lambda_xs,
    m_phi_from_f,
    m_phi_xs,
)
from .quadrature import (
    RectEvent,
    atom_weight,
    expect_on_event,
    q_a_phi_limit,
    q_ay_finite,
    q_ay_limit,
    q_phi_finite,
    q_phi_limit,
    q_y_finite,
    q_y_limit,
    rect_prob,
)
from .samplers import (
    Path,
    RngStream,
    draw_penalty_pairs,
    mixture_levels,
    sample_Q_y,
)
from .penalized_mc import (
    BivariateF,
    Estimate,
    ExpLinear,
    KennedyWeight,
    PenaltyKind,
    PhiOfMax,
    bessel_penalization_check,
    finite_t_value,
    max_conditional,
    penalized_estimate,
    terminal_conditional,
)
from .expansion import RateFit, f1_coefficient_check, f1_kennedy_check, fit_rate
from .report import Verdict, ks_test

__version__ = "0.1.0"
