"""Weighted international-trade network analysis.

Build symmetrized annual trade networks from dyadic records and compute
degree/strength/disparity metrics, weight and degree distribution fits
(power law vs log-normal with a scaling collapse), weight-ordered
percolation of the giant component, and strength-ordered rich-club curves.
A seeded gravity-model generator provides synthetic data for the whole
pipeline.
"""

from .distributions import (COLLAPSE_BINS_PER_DECADE, DegreeDistFit, LogHistogram,
                            LogNormalFit, PowerLawFit, ScalingFit,
                            collapse_from_log_density, collapse_transform,
                            degree_distribution, degree_distribution_from_degrees,
                            degree_survival, fit_lognormal, fit_power_law,
                            geometric_edges, intermediate_range, linear_fit,
                            log_histogram, scaling_regression)
from .errors import (DegenerateDataError, DomainError, EmptyInputError,
                     EmptyNetworkError, InsufficientDataError, NodeNotFoundError,
                     ParseError, TradeNetError, ValidationError)
from .graph import (AnnualTradeNetwork, EdgeWeights, NetworkSummary, build_network,
                    load_snapshot, network_to_pairs, save_snapshot, snapshot_dumps,
                    snapshot_loads, summarize, symmetrize)
from .ingest import (DyadicRecord, PairedFlows, pair_flows, parse_records,
                     records_from_pairs, write_records)
from .metrics import (DisparityCurve, LogBinSpec, NodeMetricColumns, NodeMetrics,
                      all_node_metrics, disparity_curve, disparity_samples,
                      node_metric_columns, node_metrics)
from .percolation import (ExponentialFit, PercolationCurve, UnionFind,
                          fit_exponential_approach, percolate)
from .richclub import (RichClubCurve, RichClubSeries, rich_club_curve,
                       rich_club_series, rich_club_size)
from .synth import (GravityParams, GrowthSchedule, country_codes, gdp_draws,
                    generate_network, generate_panel, multiplier_for)

__version__ = "0.1.0"
