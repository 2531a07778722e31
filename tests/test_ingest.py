import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analysis_oracle import edge_dict
from conftest import make_network, random_network
from ingest_oracle import oracle_networks, paired_rows, records_of
from reader_oracle import columns_of
from tradenet.cli import RunConfig, _networks
from tradenet.errors import DomainError, ParseError, ValidationError
from tradenet.graph import AnnualTradeNetwork
from tradenet.ingest import DyadicColumns, pair_columns, read_columns, write_network_records
from writer_oracle import network_records_text, records_text


def parse(text, fmt="csv"):
    return records_of(read_columns(io.StringIO(text), fmt))


def pair(records, on_duplicate="mean"):
    return paired_rows(pair_columns(columns_of(records), on_duplicate))


HEADER = "year,reporter,partner,export,import\n"


class TestReadColumns:
    def test_basic_row(self):
        recs = parse(HEADER + "1950,USA,CAN,100.0,95.0\n")
        assert recs == [(1950, "USA", "CAN", 100.0, 95.0)]

    def test_missing_cell_maps_to_none(self):
        cols = read_columns(io.StringIO(HEADER + "1950,USA,CAN,,95.0\n"))
        assert np.isnan(cols.exports[0])
        assert cols.imports[0] == 95.0

    def test_self_trade_rejected_with_line(self):
        with pytest.raises(ValidationError) as exc:
            parse(HEADER + "1950,USA,CAN,1.0,1.0\n1950,USA,USA,1.0,1.0\n")
        assert exc.value.line == 3

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + "1950,USA,CAN,1.0\n")
        assert exc.value.line == 2

    def test_non_numeric_value(self):
        with pytest.raises(ParseError) as exc:
            parse(HEADER + "1950,USA,CAN,abc,1.0\n")
        assert exc.value.line == 2

    def test_non_integer_year(self):
        with pytest.raises(ParseError):
            parse(HEADER + "195O,USA,CAN,1.0,1.0\n")

    def test_negative_flow_rejected(self):
        with pytest.raises(ValidationError):
            parse(HEADER + "1950,USA,CAN,-1.0,1.0\n")

    def test_non_finite_flow_rejected(self):
        with pytest.raises(ValidationError):
            parse(HEADER + "1950,USA,CAN,inf,1.0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse("a,b,c,d,e\n1950,USA,CAN,1.0,1.0\n")
        assert exc.value.line == 1

    def test_empty_stream(self):
        with pytest.raises(ParseError):
            parse("")

    def test_tsv(self):
        recs = parse("year\treporter\tpartner\texport\timport\n"
                     "1950\tUSA\tCAN\t3.5\t\n", fmt="tsv")
        assert recs == [(1950, "USA", "CAN", 3.5, None)]

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            parse(HEADER, fmt="psv")

    def test_row_order_preserved(self):
        recs = parse(HEADER + "1950,B,C,1,1\n1950,A,C,2,2\n")
        assert [r[1] for r in recs] == ["B", "A"]

    def test_blank_lines_skipped(self):
        recs = parse(HEADER + "\n1950,USA,CAN,1.0,2.0\n\n")
        assert len(recs) == 1

    def test_error_line_beyond_first_chunk(self):
        rows = "".join(f"1950,A{i},B{i},1.0,2.0\n" for i in range(3000))
        with pytest.raises(ValidationError) as exc:
            parse(HEADER + rows + "\n1950,USA,USA,1,1\n")
        assert exc.value.line == 3003

    def test_bytes_that_are_not_utf8(self, tmp_path):
        rows = "".join(f"1950,A{i},B{i},1.0,2.0\n" for i in range(4000))  # past the first block
        data = (HEADER + rows).encode() + b"1950,CAF\xe9,USA,1,1\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(ParseError, match="not UTF-8") as exc:
                read_columns(source)
            assert exc.value.line == 4002

    def test_row_error_before_bad_bytes_is_reported_first(self):
        data = (HEADER + "1950,USA,USA,1,1\n").encode() + b"1950,CAF\xe9,USA,1,1\n"
        with pytest.raises(ValidationError) as exc:
            read_columns(io.BytesIO(data))
        assert exc.value.line == 2

    def test_field_over_the_csv_field_limit(self):
        with pytest.raises(ParseError, match="field larger than field limit") as exc:
            parse(HEADER + "1950,USA,CAN,1,1\n1950," + "A" * 200_000 + ",CAN,1,1\n")
        assert exc.value.line == 3

    def test_plain_text_takes_the_block_path(self, monkeypatch):
        r"""Neither csv.reader nor the row-by-row checks read plain text,
        \r\n line ends and empty cells included."""
        import tradenet.ingest

        def forbidden(*args, **kwargs):
            raise AssertionError("plain text read row by row")

        monkeypatch.setattr(tradenet.ingest, "_read_csv", forbidden)
        monkeypatch.setattr(tradenet.ingest, "_parse_row", forbidden)
        rows = "".join(f"1950,A{i},B{i},{i}.5,\r\n" for i in range(4000))
        recs = parse(HEADER + "\n" + rows)
        assert len(recs) == 4000 and recs[-1] == (1950, "A3999", "B3999", 3999.5, None)

    def test_padded_cells_are_stripped(self):
        recs = parse(HEADER + " 1950 , USA ,CAN, 1.5 ,  \n1950,CAN,USA,2,\n")
        assert recs == [(1950, "USA", "CAN", 1.5, None), (1950, "CAN", "USA", 2.0, None)]

    def test_byte_stream(self):
        data = (HEADER + "1950,USA,CAN,1.5,\n").encode("utf-8")
        recs = records_of(read_columns(io.BytesIO(data)))
        assert recs == [(1950, "USA", "CAN", 1.5, None)]

    def test_serial_read_does_not_copy_its_flow_columns(self, monkeypatch):
        """The serial read has one part, whose flow columns, each joined from
        several blocks, are returned as the column builder made them."""
        import tradenet.ingest

        parts = []
        finish = tradenet.ingest._ColumnBuilder.finish
        monkeypatch.setattr(tradenet.ingest._ColumnBuilder, "finish",
                            lambda self: parts.append(finish(self)) or parts[-1])
        rows = "".join(f"1950,A{i},B{i},{i}.5,\n" for i in range(8000))
        cols = read_columns(io.StringIO(HEADER + rows))
        assert len(parts) == 1 and len(cols.exports) == 8000
        assert cols.exports is parts[0].exports and cols.imports is parts[0].imports


class TestPairColumns:
    def test_single_sided_report(self):
        assert pair([(1950, "A", "B", 10.0, 4.0)]) == [(1950, "A", "B", 10.0, 4.0, None, None)]

    def test_both_sides_reported(self):
        recs = [(1950, "A", "B", 10.0, 4.0), (1950, "B", "A", 5.0, 9.0)]
        assert pair(recs) == [(1950, "A", "B", 10.0, 4.0, 5.0, 9.0)]

    def test_duplicate_mean(self):
        recs = [(1950, "A", "B", 10.0, None), (1950, "A", "B", 12.0, None)]
        (row,) = pair(recs, on_duplicate="mean")
        assert row[3] == 11.0

    def test_duplicate_first_and_max(self):
        recs = [(1950, "A", "B", 10.0, None), (1950, "A", "B", 12.0, None)]
        assert pair(recs, on_duplicate="first")[0][3] == 10.0
        assert pair(recs, on_duplicate="max")[0][3] == 12.0

    def test_zero_flow_treated_as_missing(self):
        (row,) = pair([(1950, "A", "B", 0.0, 4.0)])
        assert row[3] is None and row[4] == 4.0

    def test_all_missing_pair_dropped(self):
        recs = [(1950, "A", "B", 0.0, None), (1950, "C", "D", 1.0, None)]
        assert [row[1:3] for row in pair(recs)] == [("C", "D")]

    def test_zero_ignored_in_duplicate_resolution(self):
        recs = [(1950, "A", "B", 0.0, None), (1950, "A", "B", 12.0, None)]
        (row,) = pair(recs, on_duplicate="mean")
        assert row[3] == 12.0

    def test_duplicate_mean_independent_of_report_order(self):
        def mean_of(values):
            (row,) = pair([(1950, "A", "B", v, None) for v in values], on_duplicate="mean")
            return row[3]

        # summed in ascending order whatever the input order
        assert mean_of([0.1, 0.2, 0.3]) == mean_of([0.3, 0.2, 0.1]) == (0.1 + 0.2 + 0.3) / 3

    def test_bad_policy(self):
        with pytest.raises(DomainError):
            pair([], on_duplicate="median")

    def test_canonical_orientation(self):
        # reporter above the partner in code order lands on the _ba side
        (row,) = pair([(1950, "B", "A", 7.0, 2.0)])
        assert row == (1950, "A", "B", None, None, 7.0, 2.0)

    def test_each_pair_appears_once(self, rng):
        codes = [f"C{i}" for i in range(8)]
        recs = []
        for _ in range(200):
            i, j = rng.choice(len(codes), size=2, replace=False)
            recs.append((2000, codes[i], codes[j], float(rng.random()), float(rng.random())))
        keys = [row[1:3] for row in pair(recs)]
        assert len(keys) == len(set(keys))
        assert all(a < b for a, b in keys)


flow_values = st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False))


@st.composite
def record_lists(draw):
    codes = ["AA", "BB", "CC", "DD"]
    n = draw(st.integers(1, 12))
    recs = []
    for _ in range(n):
        i = draw(st.integers(0, 3))
        j = draw(st.integers(0, 3).filter(lambda x: x != i))
        recs.append((2000, codes[i], codes[j], draw(flow_values), draw(flow_values)))
    return recs


@settings(max_examples=60, deadline=None)
@given(record_lists(), st.randoms(use_true_random=False),
       st.sampled_from(["mean", "max"]))
def test_pairing_invariant_under_reordering(recs, rand, policy):
    before = pair(recs, on_duplicate=policy)
    shuffled = list(recs)
    rand.shuffle(shuffled)
    assert pair(shuffled, on_duplicate=policy) == before


@settings(max_examples=60, deadline=None)
@given(record_lists())
def test_round_trip_pairs_records_pairs(recs):
    """Re-pairing one report per reporting country of each resolved pair
    gives the same pairs bit for bit."""
    pairs = pair(recs)
    reports = []
    for year, a, b, exp_ab, imp_ab, exp_ba, imp_ba in pairs:
        if exp_ab is not None or imp_ab is not None:
            reports.append((year, a, b, exp_ab, imp_ab))
        if exp_ba is not None or imp_ba is not None:
            reports.append((year, b, a, exp_ba, imp_ba))
    assert pair(reports) == pairs


def test_written_records_read_back_exactly(tmp_path):
    recs = [(1950, "USA", "CAN", 0.1 + 0.2, None),
            (1950, "CAN", "MEX", 1e-12, 3.0000000000000004)]
    path = tmp_path / "records.csv"
    path.write_text(records_text(recs))
    assert records_of(read_columns(path)) == recs


def test_written_records_tsv_read_back_exactly(tmp_path):
    recs = [(1950, "USA", "CAN", 5.25, 1.75)]
    path = tmp_path / "records.tsv"
    path.write_text(records_text(recs, "\t"))
    assert records_of(read_columns(path, fmt="tsv")) == recs


def test_write_network_records_matches_csv_writer(rng):
    nets = [random_network(rng, 8, year=1990), random_network(rng, 5, year=1991),
            make_network(1992, [("A", "B", 4.0, 0.0), ("B", "C", 0.0, 2.5)])]
    direct = io.StringIO()
    write_network_records(nets, direct)
    assert direct.getvalue() == network_records_text(nets)


ORACLE_YEARS = [1990, 1991, 1992]
oracle_flows = st.one_of(st.none(), st.just(0.0), st.sampled_from([0.1, 0.2, 0.3]),
                         st.floats(0.0, 1e6, allow_nan=False))


@st.composite
def report_sets(draw):
    """Shuffled reports over several years: one-sided and zero flows, and
    up to ten reports of one directed pair; plus a year selection."""
    codes = ["AA", "BB", "CC", "DD"]
    recs = []
    for _ in range(draw(st.integers(1, 10))):
        year = draw(st.sampled_from(ORACLE_YEARS))
        i = draw(st.integers(0, 3))
        j = draw(st.integers(0, 3).filter(lambda x: x != i))
        for _ in range(draw(st.integers(1, 10))):
            recs.append((year, codes[i], codes[j], draw(oracle_flows), draw(oracle_flows)))
    selection = st.lists(st.sampled_from(ORACLE_YEARS + [1999]), min_size=1, unique=True)
    return draw(st.permutations(recs)), draw(st.one_of(st.none(), selection.map(sorted)))


@settings(max_examples=150, deadline=None)
@given(report_sets(), st.sampled_from(["mean", "first", "max"]),
       st.sampled_from(["zero", "copy"]))
def test_columnar_core_matches_oracle(tmp_path_factory, reports, on_duplicate, missing):
    recs, years = reports
    path = tmp_path_factory.mktemp("oracle") / "reports.csv"
    path.write_text(records_text(recs))
    config = RunConfig(input_path=str(path), outdir="unused",
                       years=None if years is None else ",".join(map(str, years)),
                       on_duplicate=on_duplicate, missing=missing)
    errors = {}
    nets = dict(_networks(config, errors))
    want = oracle_networks(recs, years or sorted({r[0] for r in recs}), on_duplicate, missing)
    got = {year: str(message) for year, message in errors.items()}
    got.update((year, edge_dict(net)) for year, net in nets.items())
    assert got == want
    for year, net in nets.items():
        a, b = zip(*want[year])
        w_exp, w_imp, _ = zip(*want[year].values())
        reference = AnnualTradeNetwork(year, a, b, w_exp, w_imp)
        assert net == reference
        assert net.nodes == reference.nodes
        assert net.degrees.tolist() == [(a + b).count(code) for code in net.nodes]


# Filler codes that sort before the report sets' codes, so that these land
# at indices past 23,170 and one year's cell keys reach 2**31.
WIDE_CODES = tuple(sorted({f"{i:05d}" for i in range(23_200)} | {"AA", "BB", "CC", "DD"}))


@settings(max_examples=40, deadline=None)
@given(report_sets(), st.sampled_from(["mean", "first", "max"]))
def test_int64_cell_keys_pair_as_int32_keys_do(reports, on_duplicate):
    """Over a code table large enough that 4 * years * codes**2 reaches
    2**31, the cell keys fall back to int64 and give the pairs of the same
    rows over their own small code table."""
    recs, _ = reports
    small = columns_of(recs)
    code_map = np.array([WIDE_CODES.index(code) for code in small.codes])
    wide = DyadicColumns(small.years, WIDE_CODES, small.year, code_map[small.reporter],
                         code_map[small.partner], small.exports, small.imports)
    assert 4 * len(wide.years) * len(wide.codes) ** 2 >= 2 ** 31
    want, got = pair_columns(small, on_duplicate), pair_columns(wide, on_duplicate)
    assert want.a.dtype == np.int32 and got.a.dtype == np.int64
    assert paired_rows(got) == paired_rows(want)
