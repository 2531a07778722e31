import numpy as np
import pytest

from tradenet.distributions import collapse_transform, fit_lognormal, linear_fit
from tradenet.errors import DomainError, EmptyInputError, EmptyNetworkError
from conftest import rebuilt_from_rows
from tradenet.graph import snapshot_dumps, summarize
from tradenet.metrics import disparity_curve, node_metric_columns
from tradenet.rng import SplitMix64, derive_seed, mix64
from tradenet.synth import (GravityParams, GrowthSchedule, country_codes,
                            generate_network, generate_panel, multiplier_for)


class TestRng:
    def test_scalar_and_vector_mix_agree(self):
        stream = SplitMix64(12345)
        vec = stream.raw(8)
        golden = 0x9E3779B97F4A7C15
        expected = [mix64((12345 + (i + 1) * golden) & (2**64 - 1)) for i in range(8)]
        assert [int(v) for v in vec] == expected

    def test_streams_are_pure_functions_of_seed(self):
        a = SplitMix64(7).uniform(100)
        b = SplitMix64(7).uniform(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, SplitMix64(8).uniform(100))

    def test_uniform_range_and_normal_moments(self):
        u = SplitMix64(3).uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        z = SplitMix64(4).normal(200_001)  # odd length exercises truncation
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_derive_seed_sensitivity(self):
        base = derive_seed(5, 1948)
        assert base != derive_seed(5, 1949)
        assert base != derive_seed(6, 1948)
        assert base == derive_seed(5, 1948)


class TestGenerateNetwork:
    def test_two_countries_full_density(self):
        net = generate_network(GravityParams(n_countries=2, link_density_target=1.0,
                                             seed=1), 2000)
        assert net.n_nodes == 2 and net.n_links == 1
        assert net.w.tolist() == [net.w_exp[0] + net.w_imp[0]]

    def test_same_seed_bit_identical(self):
        params = GravityParams(n_countries=25, seed=77)
        one = snapshot_dumps(generate_network(params, 1975))
        two = snapshot_dumps(generate_network(params, 1975))
        assert one == two

    def test_different_year_different_network(self):
        params = GravityParams(n_countries=25, seed=77)
        assert (snapshot_dumps(generate_network(params, 1975))
                != snapshot_dumps(generate_network(params, 1976)))

    def test_density_zero_rejected(self):
        with pytest.raises(EmptyNetworkError):
            generate_network(GravityParams(n_countries=5, link_density_target=0.0), 2000)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            generate_network(GravityParams(n_countries=1), 2000)
        with pytest.raises(DomainError):
            generate_network(GravityParams(n_countries=5, link_density_target=1.5), 2000)
        with pytest.raises(DomainError):
            generate_network(GravityParams(n_countries=5, gdp_logsd=-1.0), 2000)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        params = GravityParams(n_countries=5, seed=seed)
        with pytest.raises(DomainError, match="seed must lie in"):
            generate_network(params, 2000)
        with pytest.raises(DomainError, match="seed must lie in"):
            generate_panel(params, [2000, 2001])
        assert generate_network(GravityParams(n_countries=5, seed=2**64 - 1), 2000).n_links

    def test_link_count_matches_density_target(self):
        for n, density in ((20, 0.3), (40, 0.7), (15, 1.0)):
            net = generate_network(GravityParams(n_countries=n,
                                                 link_density_target=density,
                                                 seed=2), 2000)
            assert net.n_links == max(1, round(density * n * (n - 1) / 2))

    def test_network_satisfies_build_invariants(self):
        # same validator path as ingested data: rebuild through dyadic rows
        net = generate_network(GravityParams(n_countries=30, seed=9), 1999)
        rebuilt = rebuilt_from_rows(net)
        assert rebuilt == net
        assert (net.w > 0).all()
        assert net.nodes == tuple(sorted(net.nodes))

    def test_strength_tracks_gdp(self):
        codes = country_codes(40)
        for seed in range(5):
            params = GravityParams(n_countries=40, seed=seed)
            net = generate_network(params, 1970)
            # The first draws of the year's stream are the standard normals of
            # the log GDPs, which rank the countries as their GDPs do.
            gdp = SplitMix64(derive_seed(params.seed, 1970)).normal(params.n_countries)
            present = [i for i, c in enumerate(codes) if c in net.nodes]
            assert len(present) >= 20
            strength = node_metric_columns(net).s
            s = np.array([strength[net.nodes.index(codes[i])] for i in present])
            g = gdp[present]

            def rank(v):
                order = np.argsort(v)
                r = np.empty(len(v))
                r[order] = np.arange(len(v))
                return r

            rho = float(np.corrcoef(rank(s), rank(g))[0, 1])
            assert rho > 0.0

    def test_weights_pass_lognormal_not_power_law(self):
        # the collapse should hug the parabola better than any straight line
        params = GravityParams(n_countries=150, link_density_target=0.5,
                               noise_logsd=1.0, seed=5)
        w = generate_network(params, 2000).w
        fit = fit_lognormal(w)
        pts = [(x, y) for x, y in collapse_transform(w, fit.w0, fit.sigma)
               if abs(x) <= 2.0 * fit.sigma]
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        mse_parabola = float(np.mean((ys - xs**2) ** 2))
        slope, intercept, _, _ = linear_fit(xs, ys)
        mse_line = float(np.mean((ys - (intercept + slope * xs)) ** 2))
        assert mse_parabola < mse_line

    def test_disparity_exponent_strictly_between_zero_and_one(self):
        nets = [generate_network(GravityParams(n_countries=120, seed=s), 2000 + s)
                for s in range(5)]
        curve = disparity_curve(nets)
        assert 0.0 < curve.exponent < 1.0


class TestGeneratePanel:
    def test_constant_multipliers_same_shape_different_draws(self):
        params = GravityParams(n_countries=30, seed=4)
        nets = generate_panel(params, range(1990, 1994))
        assert [n.year for n in nets] == [1990, 1991, 1992, 1993]
        assert len({snapshot_dumps(n) for n in nets}) == 4
        assert all(n.n_links == nets[0].n_links for n in nets)

    def test_country_schedule_matches_exactly(self):
        years = list(range(1948, 2001))
        growth = GrowthSchedule(n_multiplier=multiplier_for(76, 187, 53),
                                gdp_multiplier=multiplier_for(1.0, 140.0, 53))
        params = GravityParams(n_countries=76, link_density_target=0.52,
                               noise_logsd=2.0, seed=11)
        nets = generate_panel(params, years, growth)
        expected = [round(76 * growth.n_multiplier**t) for t in range(53)]
        assert [n.n_nodes for n in nets] == expected
        assert expected[0] == 76 and expected[-1] == 187

    def test_total_trade_grows_with_gdp_scale(self):
        # coupling 1/2 makes weights scale linearly with the GDP scale, so
        # at constant n the trade volume should grow by about the same
        # factor as the GDPs
        params = GravityParams(n_countries=80, coupling_exponent=0.5,
                               noise_logsd=1.0, seed=1)
        growth = GrowthSchedule(1.0, multiplier_for(1.0, 140.0, 21))
        nets = generate_panel(params, range(1980, 2001), growth)
        ratio = summarize(nets[-1]).total_trade / summarize(nets[0]).total_trade
        assert 70.0 < ratio < 280.0

    def test_shrinking_below_two_rejected(self):
        params = GravityParams(n_countries=3, seed=0)
        with pytest.raises(DomainError):
            generate_panel(params, range(2000, 2010), GrowthSchedule(0.5, 1.0))

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, float("nan"), float("inf")])
    def test_multiplier_not_positive_and_finite_rejected(self, multiplier):
        for growth in ((multiplier, 1.0), (1.0, multiplier)):
            with pytest.raises(DomainError, match="positive and finite"):
                GrowthSchedule(*growth)
        with pytest.raises(DomainError, match="positive and finite"):
            multiplier_for(1.0, multiplier, 3)

    def test_empty_years_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_panel(GravityParams(n_countries=5), [])

    def test_multiplier_for(self):
        g = multiplier_for(76, 187, 53)
        assert round(76 * g**52) == 187
        assert multiplier_for(10, 10, 1) == 1.0
        with pytest.raises(DomainError):
            multiplier_for(0, 10, 5)
