"""Weighted international-trade network analysis.

Build symmetrized annual trade networks from dyadic records
(``read_columns`` -> ``pair_columns`` -> ``build_network``) and compute
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
                     EmptyNetworkError, InsufficientDataError, ParseError,
                     TradeNetError, ValidationError)
from .graph import (AnnualTradeNetwork, NetworkSummary, build_network, load_snapshot,
                    save_snapshot, snapshot_dumps, snapshot_loads, summarize)
from .ingest import (DyadicColumns, PairedColumns, pair_columns, read_columns,
                     write_network_records)
from .metrics import (DisparityCurve, LogBinSpec, NodeMetricColumns, disparity_curve,
                      node_metric_columns)
from .percolation import ExponentialFit, PercolationCurve, fit_exponential_approach, percolate
from .richclub import RichClubCurve, rich_club_curve, rich_club_size
from .synth import (GravityParams, GrowthSchedule, country_codes, generate_network,
                    generate_panel, multiplier_for)

__version__ = "0.1.0"
