import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_network, random_network
from tradenet.distributions import (LogHistogram, collapse_from_log_density,
                                    collapse_transform, degree_distribution,
                                    degree_distribution_from_degrees,
                                    degree_survival, fit_lognormal, fit_power_law,
                                    geometric_edges, intermediate_range,
                                    linear_fit, log_histogram, scaling_regression)
from tradenet.errors import (DegenerateDataError, DomainError, EmptyInputError,
                             InsufficientDataError)
from tradenet.graph import build_network
from tradenet.ingest import pair_columns, read_columns

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def sample_power_law(rng, tau, wmax, n, wmin=1.0):
    """Inverse-CDF sample of Prob(w) ~ w**-tau on [wmin, wmax]."""
    u = rng.random(n)
    top = (wmax / wmin) ** (1.0 - tau)
    return wmin * (1.0 - u * (1.0 - top)) ** (1.0 / (1.0 - tau))


class TestGeometricEdges:
    def test_decade_grid(self):
        edges = geometric_edges(1.0, 100.0, 1)
        assert list(edges) == [1.0, 10.0, 100.0, 1000.0]

    def test_covers_values(self, rng):
        for _ in range(50):
            vals = np.exp(rng.normal(0, 4, size=20))
            edges = geometric_edges(vals.min(), vals.max(), 10)
            assert edges[0] <= vals.min()
            assert edges[-1] > vals.max()
            ratios = edges[1:] / edges[:-1]
            assert np.allclose(ratios, 10 ** 0.1, rtol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            geometric_edges(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            geometric_edges(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            geometric_edges(1.0, 2.0, 0)


class TestLogHistogram:
    def test_single_value(self):
        hist = log_histogram([7.0, 7.0, 7.0], 10)
        occupied = hist.counts > 0
        assert occupied.sum() == 1
        dens_width = hist.densities[occupied] * np.diff(hist.bin_edges)[occupied]
        assert dens_width[0] == pytest.approx(1.0, abs=1e-9)

    def test_one_bin_per_decade(self):
        hist = log_histogram([1.0, 10.0, 100.0], 1)
        assert list(hist.counts) == [1, 1, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_histogram([1.0, 0.0])
        with pytest.raises(DomainError):
            log_histogram([1.0, -3.0])

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            log_histogram([])

    def test_sampled_inverse_square_density(self):
        rng = np.random.default_rng(42)
        w = 1.0 / (1.0 - rng.random(100_000) * (1.0 - 0.01))  # w^-2 on [1, 100]
        hist = log_histogram(w, 10)
        centers = hist.centers
        analytic = (1.0 / 0.99) * centers**-2.0
        interior = (centers > 2.0) & (centers < 30.0) & (hist.counts > 0)
        rel = np.abs(hist.densities[interior] / analytic[interior] - 1.0)
        assert rel.max() < 0.05

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200),
           st.integers(1, 20))
    def test_density_integrates_to_one(self, values, bpd):
        hist = log_histogram(values, bpd)
        total = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestFitPowerLaw:
    def test_exact_bins_recover_tau(self):
        edges = geometric_edges(1.0, 1e3, 10)
        hist = LogHistogram(edges, np.sqrt(edges[:-1] * edges[1:]) ** -1.22,
                            np.ones(len(edges) - 1, dtype=int))
        fit = fit_power_law(hist, (edges[0], edges[-1]))
        assert fit.tau == pytest.approx(1.22, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_flat_density_gives_zero(self):
        edges = geometric_edges(1.0, 1e3, 10)
        hist = LogHistogram(edges, np.full(len(edges) - 1, 0.25),
                            np.ones(len(edges) - 1, dtype=int))
        fit = fit_power_law(hist, (edges[0], edges[-1]))
        assert fit.tau == pytest.approx(0.0, abs=1e-12)

    def test_sampled_tau_two_recovery(self):
        rng = np.random.default_rng(42)
        hist = log_histogram(sample_power_law(rng, 2.0, 1e4, 100_000), 10)
        fit = fit_power_law(hist, (10.0, 1000.0))
        assert fit.tau == pytest.approx(2.0, abs=0.1)

    def test_insufficient_bins(self):
        hist = log_histogram([5.0, 5.5, 6.0], 1)
        with pytest.raises(InsufficientDataError):
            fit_power_law(hist, (1.0, 100.0))

    def test_bad_range(self):
        hist = log_histogram([1.0, 10.0, 100.0], 1)
        with pytest.raises(DomainError):
            fit_power_law(hist, (10.0, 1.0))

    def test_intermediate_range_brackets_geometric_mean(self):
        rng = np.random.default_rng(3)
        w = np.exp(rng.normal(math.log(50.0), 1.0, size=5000))
        hist = log_histogram(w, 10)
        lo, hi = intermediate_range(hist, 2.5)
        assert math.log10(hi / lo) == pytest.approx(2.5, abs=1e-9)
        gm = math.exp(np.log(w).mean())
        assert lo < gm < hi

    def test_intermediate_range_wider_than_floats(self):
        hist = log_histogram([1.0, 10.0, 100.0], 1)
        assert intermediate_range(hist, 1e300) == (0.0, math.inf)
        with pytest.raises(DomainError):
            fit_power_law(hist, intermediate_range(hist, 1e300))


class TestFitLognormal:
    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal([math.e, math.e])

    def test_two_point_moments(self):
        fit = fit_lognormal([1.0, math.e**2])
        assert fit.w0 == pytest.approx(math.e, rel=1e-12)
        assert fit.sigma == pytest.approx(1.0, rel=1e-12)

    def test_sampling_recovery(self):
        rng = np.random.default_rng(42)
        w = np.exp(math.log(100.0) + 2.0 * rng.standard_normal(10_000))
        fit = fit_lognormal(w)
        assert fit.w0 == pytest.approx(100.0, rel=0.05)
        assert fit.sigma == pytest.approx(2.0, rel=0.05)
        assert fit.collapse_mse < 1.0

    def test_scale_property(self):
        rng = np.random.default_rng(11)
        w = np.exp(rng.normal(1.0, 0.7, size=2000))
        base = fit_lognormal(w)
        scaled = fit_lognormal(4.0 * w)
        assert scaled.sigma == pytest.approx(base.sigma, rel=1e-12)
        assert scaled.w0 == pytest.approx(4.0 * base.w0, rel=1e-12)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(EmptyInputError):
            fit_lognormal([])
        with pytest.raises(DomainError):
            fit_lognormal([1.0, -1.0])


class TestCollapse:
    def test_exact_density_lands_on_parabola(self):
        w0, sigma = 100.0, 2.0
        width = math.log(10.0) / 9
        ln_centers = math.log(w0) + width * (np.arange(-40, 41) + 0.5)
        x = ln_centers - math.log(w0)
        density = np.exp(-(x**2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
        pts = collapse_from_log_density(ln_centers, density, w0, sigma)
        worst = max(abs(y - xx**2) for xx, y in pts)
        assert worst <= 1e-9

    def test_sampled_lognormal_central_band(self):
        rng = np.random.default_rng(42)
        w = np.exp(math.log(100.0) + 2.0 * rng.standard_normal(10_000))
        fit = fit_lognormal(w)
        pts = collapse_transform(w, fit.w0, fit.sigma)
        central = [(x, y) for x, y in pts if abs(x) <= 2 * fit.sigma]
        assert len(central) > 10
        assert max(abs(y - x**2) for x, y in central) < 4.0
        assert np.mean([(y - x**2) ** 2 for x, y in central]) < 1.0

    def test_power_law_sample_fails_collapse(self):
        # a pure power law leaves a straight line, not the parabola
        rng = np.random.default_rng(42)
        w = sample_power_law(rng, 2.0, 1e4, 100_000)
        w0 = math.exp(float(np.mean(np.log(w))))
        sigma = float(np.std(np.log(w)))
        pts = [(x, y) for x, y in collapse_transform(w, w0, sigma)
               if abs(x) <= 2 * sigma]
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        mse_parabola = float(np.mean((ys - xs**2) ** 2))
        slope, intercept, _, _ = linear_fit(xs, ys)
        mse_line = float(np.mean((ys - (intercept + slope * xs)) ** 2))
        assert mse_line < mse_parabola

    def test_lognormal_sample_prefers_parabola(self):
        rng = np.random.default_rng(42)
        w = np.exp(math.log(100.0) + 2.0 * rng.standard_normal(10_000))
        fit = fit_lognormal(w)
        pts = [(x, y) for x, y in collapse_transform(w, fit.w0, fit.sigma)
               if abs(x) <= 2 * fit.sigma]
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        mse_parabola = float(np.mean((ys - xs**2) ** 2))
        slope, intercept, _, _ = linear_fit(xs, ys)
        mse_line = float(np.mean((ys - (intercept + slope * xs)) ** 2))
        assert mse_parabola < mse_line

    @pytest.mark.parametrize("bpd", [1, 3, 9, 40])
    def test_fit_holds_the_collapse_points_bit_for_bit(self, bpd):
        rng = np.random.default_rng(bpd)
        for w in (np.exp(3.0 + 1.5 * rng.standard_normal(2_000)),
                  sample_power_law(rng, 2.0, 1e5, 500), rng.random(50) + 0.5):
            fit = fit_lognormal(w, bpd)
            assert repr(fit.collapse) == repr(collapse_transform(w, fit.w0, fit.sigma, bpd))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            collapse_transform([1.0, 2.0], 1.0, 0.0)
        with pytest.raises(DomainError):
            collapse_from_log_density([0.0], [1.0], 1.0, -1.0)


class TestDegreeDistribution:
    def test_constant_degrees_step_function(self):
        survival = degree_survival([5, 5, 5, 5])
        assert survival == [(5, 1.0)]

    def test_survival_takes_arrays_lists_and_iterators(self, rng):
        degrees = rng.integers(1, 40, size=200)
        want = degree_survival(degrees.tolist())
        assert degree_survival(degrees) == degree_survival(iter(degrees.tolist())) == want

    def test_survival_non_increasing_and_starts_at_one(self, rng):
        degrees = rng.integers(1, 40, size=500)
        survival = degree_survival(degrees)
        assert survival[0][1] == 1.0
        ps = [p for _, p in survival]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_gamma_recovery(self):
        rng = np.random.default_rng(42)
        x = sample_power_law(rng, 2.74, 1e4, 100_000)  # survival exponent 1.74
        degrees = np.floor(x).astype(int)
        fit = degree_distribution_from_degrees(degrees, (3.0, 50.0))
        assert fit.gamma == pytest.approx(2.74, abs=0.15)

    def test_pooling_invariance(self, rng):
        net = random_network(rng, 25)
        once = degree_distribution([net], (2.0, 20.0))
        twice = degree_distribution([net, net], (2.0, 20.0))
        assert once.survival == twice.survival
        assert once.gamma == twice.gamma

    def test_default_window_is_the_20th_to_90th_percentile(self, rng):
        nets = [random_network(rng, 40), random_network(rng, 30, edge_prob=0.6)]
        ks = sorted(k for net in nets for k in net.degrees.tolist())
        fit = degree_distribution(nets)
        assert fit.fit_range == (float(ks[len(ks) // 5]), float(ks[(9 * len(ks)) // 10]))
        assert fit == degree_distribution(nets, fit.fit_range)

    def test_default_window_on_the_golden_panel(self):
        paired = pair_columns(read_columns(GOLDEN / "synth" / "out" / "panel.csv"))
        nets = [build_network(paired, year) for year in (2001, 2002, 2003)]
        fits = json.loads((GOLDEN / "panel_csv" / "out" / "panel_fits.json").read_text())
        assert list(degree_distribution(nets).fit_range) == fits["degree"]["fit_range"]

    @pytest.mark.parametrize("nets", [[], iter([])], ids=["list", "iterator"])
    def test_no_networks(self, nets):
        with pytest.raises(EmptyInputError, match="no networks given"):
            degree_distribution(nets)

    def test_insufficient_distinct_degrees(self):
        net = make_network(2000, [("A", "B", 1.0, 1.0)])
        with pytest.raises(InsufficientDataError):
            degree_distribution([net], (1.0, 10.0))


class TestScalingRegression:
    def test_proportional_points(self):
        fit = scaling_regression([(10.0, 10.0), (100.0, 100.0), (1000.0, 1000.0)])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_exact_exponent_1_19(self):
        ns = np.array([76.0, 90.0, 110.0, 140.0, 187.0])
        fit = scaling_regression(list(zip(ns, 0.5 * ns**1.19)))
        assert fit.exponent == pytest.approx(1.19, abs=1e-9)
        assert fit.prefactor == pytest.approx(0.5, rel=1e-9)

    def test_constant_value(self):
        fit = scaling_regression([(10.0, 3.0), (20.0, 3.0), (40.0, 3.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scaling_regression([(10.0, 1.0), (20.0, -1.0), (30.0, 2.0)])

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            scaling_regression([(10.0, 1.0), (20.0, 2.0)])


class TestLinearFit:
    def test_identical_x_rejected(self):
        with pytest.raises(DomainError):
            linear_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_flat_target_r_squared_one(self):
        slope, intercept, stderr, r2 = linear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert slope == 0.0 and intercept == 5.0 and r2 == 1.0

    def test_stderr_matches_textbook_formula(self, rng):
        x = rng.normal(size=30)
        y = 2.0 * x + 1.0 + rng.normal(scale=0.3, size=30)
        slope, intercept, stderr, _ = linear_fit(x, y)
        resid = y - (intercept + slope * x)
        expected = math.sqrt(resid @ resid / 28 / ((x - x.mean()) @ (x - x.mean())))
        assert stderr == pytest.approx(expected, rel=1e-12)


# A fit of 100,000 points, large enough for OpenBLAS to split a dot product
# over threads, printed as the repr of linear_fit's result.
FIT_SCRIPT = """
import numpy as np
from tradenet.distributions import linear_fit
rng = np.random.default_rng(20260808)
x = rng.normal(size=100_000)
print(repr(linear_fit(x, 2.0 * x + 1.0 + rng.normal(size=x.size))))
"""


def blas_configuration() -> str:
    """numpy's BLAS as its build configuration names it."""
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas[key]) for key in ("name", "openblas configuration")
                    if key in blas) or "an unnamed BLAS"


def fit_in_child(**setting) -> str:
    """FIT_SCRIPT's output in a child process with no OPENBLAS_ variable
    set but ``setting``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env.update(PYTHONPATH=str(SRC), **setting)
    return subprocess.run([sys.executable, "-c", FIT_SCRIPT], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.fixture(scope="module")
def default_blas_fit():
    return fit_in_child()


@pytest.mark.parametrize("setting", [{"OPENBLAS_NUM_THREADS": "1"},
                                     {"OPENBLAS_NUM_THREADS": "2"},
                                     {"OPENBLAS_CORETYPE": "Prescott"}],
                         ids=["one-thread", "two-threads", "prescott-kernel"])
def test_linear_fit_bits_do_not_depend_on_blas(setting, default_blas_fit):
    if "OPENBLAS_CORETYPE" in setting and "DYNAMIC_ARCH" not in blas_configuration():
        pytest.skip(f"numpy links {blas_configuration()}, not a DYNAMIC_ARCH OpenBLAS: "
                    "OPENBLAS_CORETYPE selects no kernel, so only the thread counts "
                    "were compared")
    assert fit_in_child(**setting) == default_blas_fit
