"""Scale-dependent cross-correlation toolkit.

Implements moving-average detrended fluctuation analysis for single and
bivariate series, the q-th-order DMCA cross-correlation coefficient with
its box-splitting DCCA competitor, mixed-correlated ARFIMA simulation for
estimator validation, IAAFT surrogate significance tests, and
scale-dependent minimum-variance portfolio analytics.
"""

__version__ = "0.1.0"

from .errors import DegenerateFluctuationError, InputError
from .series import (
    AlignedPair,
    DescriptiveStats,
    TimeSeries,
    describe,
    load_csv,
    log_returns,
)
from .fluctuation import (
    CorrelationProfile,
    DetrendConfig,
    FluctuationSet,
    correlation_profile,
    moving_average,
    q_fluctuations,
    rho_q_dmca,
)
from .scaling import (
    CoherencyEstimate,
    ScalingFit,
    estimate_h_rho,
    estimate_hurst,
    fit_power_law,
    log_scales,
)
from .mc_arfima import (
    BivariateSample,
    McArfimaSpec,
    arfima_weights,
    correlated_innovations,
    generate,
)
from .benchmark import BenchmarkConfig, EstimatorReport, run_benchmark, stability_sweep
from .surrogate import (
    IaaftConfig,
    SurrogateTestReport,
    classify,
    iaaft_surrogate,
    surrogate_test,
)
from .portfolio import PortfolioMetrics, hedge_ratio, optimal_weight, portfolio_scan
