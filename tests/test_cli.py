import contextlib
import csv
import io
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradenet import cli
from tradenet.cli import main
from tradenet.graph import load_snapshot
from tradenet.richclub import rich_club_curve, rich_club_size
from tradenet.synth import GravityParams, GrowthSchedule, generate_network, generate_panel


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def synth_csv(tmp_path, name="trade.csv", years="1990:1992", countries=30, seed=3):
    path = tmp_path / name
    rc = main(["synth", "--countries", str(countries), "--seed", str(seed),
               "--years", years, "--dyadic", str(path)])
    assert rc == 0
    return path


class TestSynthCommand:
    def test_writes_dyadic_and_snapshots(self, tmp_path):
        snap_dir = tmp_path / "snaps"
        rc = main(["synth", "--countries", "20", "--seed", "1", "--year", "1980",
                   "--dyadic", str(tmp_path / "d.csv"), "--snapshot-dir", str(snap_dir)])
        assert rc == 0
        assert (tmp_path / "d.csv").exists()
        net = load_snapshot(snap_dir / "1980_network.json")
        assert net.year == 1980
        expected = generate_network(GravityParams(n_countries=20, seed=1), 1980)
        assert net == expected

    def test_requires_an_output(self, tmp_path):
        assert main(["synth", "--countries", "5"]) == 2

    @pytest.mark.parametrize("option", ["--n-multiplier", "--gdp-multiplier", "--gdp-scale-final"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_growth_exits_2(self, tmp_path, capsys, option, value):
        snap_dir = tmp_path / "snaps"
        assert main(["synth", "--countries", "5", "--years", "2000:2001", option, value,
                     "--snapshot-dir", str(snap_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "positive and finite" in err, err
        assert not snap_dir.exists()

    @pytest.mark.parametrize("multiplier, error", [
        ("1e200", "5e+200 countries have too many pairs to index"),
        ("1e308", "country count overflows in year 2001")])
    def test_overflowing_country_count_exits_2(self, tmp_path, capsys, multiplier, error):
        snap_dir = tmp_path / "snaps"
        assert main(["synth", "--countries", "5", "--years", "2000:2002", "--n-multiplier",
                     multiplier, "--snapshot-dir", str(snap_dir)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not snap_dir.exists()

    @pytest.mark.parametrize("options", [["--years", "2000:2001", "--gdp-multiplier", "1e300"],
                                         ["--gdp-logmean", "1e300"]])
    def test_overflowing_gdp_scale_gives_one_error_line(self, tmp_path, capsys, options):
        snap_dir = tmp_path / "snaps"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape main
            assert main(["synth", "--countries", "5", *options,
                         "--snapshot-dir", str(snap_dir)]) == 2
        assert capsys.readouterr().err == "error: edge (C000, C001) has a non-finite weight\n"
        assert not snap_dir.exists()

    @pytest.mark.parametrize("option, field", [("--gdp-logmean", "gdp_logmean"),
                                               ("--gdp-logsd", "gdp_logsd"),
                                               ("--noise-logsd", "noise_logsd"),
                                               ("--coupling", "coupling_exponent")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, option, field, value):
        snap_dir = tmp_path / "snaps"
        assert main(["synth", "--countries", "5", f"{option}={value}",
                     "--snapshot-dir", str(snap_dir)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not snap_dir.exists()

    def test_out_of_memory_exits_2_with_one_error_line(self, tmp_path):
        """A MemoryError is one error line and exit 2, not a traceback and
        exit 1, which would read as some years failing, and no file is
        written.  The pair mask of 100,000 countries needs 9.3 GiB; the
        child runs main under a 1.5 GB address-space limit, set after its
        imports.  Never run this argv without the limit."""
        script = ("import resource, sys; from tradenet.cli import main; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2); "
                  "sys.exit(main(sys.argv[1:]))")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        child = subprocess.run([sys.executable, "-c", script, "synth", "--countries", "100000",
                                "--dyadic", str(out / "panel.csv")],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: out of memory") and child.stderr.count("\n") == 1
        assert not out.exists()

    def test_a_fifo_is_written_in_place(self, tmp_path):
        """A --dyadic path that is a FIFO stays one, and its reader gets the
        bytes a regular file gets."""
        argv = ["synth", "--countries", "5", "--year", "2000", "--dyadic"]
        assert main(argv + [str(tmp_path / "regular.csv")]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert main(argv + [str(fifo)]) == 0
        finally:
            reader.join(timeout=10)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == [(tmp_path / "regular.csv").read_bytes()]
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_link_stays_and_its_target_is_replaced(self, tmp_path):
        """A --dyadic path that is a link to a regular file stays a link, and
        its target gets the bytes a regular file gets."""
        argv = ["synth", "--countries", "5", "--year", "2000", "--dyadic"]
        assert main(argv + [str(tmp_path / "regular.csv")]) == 0
        (tmp_path / "target.csv").write_text("")
        (tmp_path / "ln").mkdir()
        link = tmp_path / "ln" / "link.csv"
        link.symlink_to(Path("..") / "target.csv")
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "regular.csv").read_bytes()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("options", [["--gdp-scale-final", "nan", "--n-final", "-4"],
                                         ["--n-final", "-4"], ["--gdp-scale-final", "0"]])
    def test_final_values_are_checked_without_years(self, tmp_path, capsys, options):
        snap_dir = tmp_path / "snaps"
        assert main(["synth", "--countries", "5", *options, "--snapshot-dir", str(snap_dir)]) == 2
        assert capsys.readouterr().err == "error: endpoints must be positive and finite\n"
        assert not snap_dir.exists()

    def test_deterministic_files(self, tmp_path):
        a = synth_csv(tmp_path, "a.csv")
        b = synth_csv(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_panel_growth_flags(self, tmp_path):
        snap_dir = tmp_path / "snaps"
        rc = main(["synth", "--countries", "10", "--years", "2000:2004",
                   "--n-final", "20", "--snapshot-dir", str(snap_dir)])
        assert rc == 0
        nets = [load_snapshot(p) for p in sorted(snap_dir.glob("*.json"))]
        assert [n.year for n in nets] == [2000, 2001, 2002, 2003, 2004]
        # link counts follow the compounding country schedule exactly
        mult = (20 / 10) ** (1 / 4)
        for t, net in enumerate(nets):
            n_t = round(10 * mult**t)
            assert net.n_links == max(1, round(0.5 * n_t * (n_t - 1) / 2))


class TestSynthDefaults:
    """Each GravityParams and GrowthSchedule default is written once, in the
    dataclass: synth given only --countries generates with the field
    defaults, and each option given reaches its field."""

    def test_one_year_gets_the_field_defaults(self, tmp_path):
        with mock.patch.object(cli, "generate_panel", wraps=generate_panel) as gen:
            assert main(["synth", "--countries", "7", "--dyadic", str(tmp_path / "d.csv")]) == 0
        gen.assert_called_once_with(GravityParams(7), [2000], GrowthSchedule())

    def test_panel_gets_the_field_defaults(self, tmp_path):
        with mock.patch.object(cli, "generate_panel", wraps=generate_panel) as gen:
            assert main(["synth", "--countries", "7", "--years", "2000:2001",
                         "--dyadic", str(tmp_path / "d.csv")]) == 0
        gen.assert_called_once_with(GravityParams(7), [2000, 2001], GrowthSchedule())

    def test_every_option_reaches_its_field(self, tmp_path):
        with mock.patch.object(cli, "generate_panel", wraps=generate_panel) as gen:
            assert main(["synth", "--countries", "7", "--density", "0.3", "--gdp-logmean", "1",
                         "--gdp-logsd", "2", "--coupling", "0.5", "--noise-logsd", "0.7",
                         "--seed", "9", "--n-multiplier", "1.1", "--gdp-multiplier", "1.2",
                         "--years", "2000:2001", "--dyadic", str(tmp_path / "d.csv")]) == 0
        gen.assert_called_once_with(GravityParams(7, 1.0, 2.0, 0.5, 0.3, 0.7, 9), [2000, 2001],
                                    GrowthSchedule(1.1, 1.2))

    def test_final_values_replace_the_multipliers(self, tmp_path):
        with mock.patch.object(cli, "generate_panel", wraps=generate_panel) as gen:
            assert main(["synth", "--countries", "10", "--years", "2000:2004", "--n-final", "20",
                         "--gdp-scale-final", "3", "--gdp-multiplier", "5",
                         "--dyadic", str(tmp_path / "d.csv")]) == 0
        gen.assert_called_once_with(GravityParams(10), [2000, 2001, 2002, 2003, 2004],
                                    GrowthSchedule(2 ** (1 / 4), 3 ** (1 / 4)))


REVERSED_RANGES = [["percolate", "--fit", "0.9:0.1"], ["percolate", "--fit", "0.5:0.5"],
                   ["panel", "--exp-fit-range", "0.9:0.1"], ["panel", "--fit-range", "10:1"],
                   ["panel", "--degree-fit-range", "20:5"], ["fit", "--fit-range", "nan:1"]]
BAD_BIN_SPECS = [["metrics", "--disparity-bins-per-decade", "0"],
                 ["metrics", "--disparity-min-count", "0"],
                 ["panel", "--disparity-bins-per-decade", "0"],
                 ["panel", "--disparity-min-count", "-1"]]
# Weights and degrees are positive: a window that starts at or below 0 cannot fit.
LOW_WINDOWS = [["fit", "--fit-range=0:10"], ["fit", "--fit-range=-5:10"],
               ["panel", "--fit-range=0:1"], ["panel", "--degree-fit-range=0:10"],
               ["panel", "--degree-fit-range=-1:5"]]
BAD_FIT_SETTINGS = [["panel", "--bins-per-decade", "0"], ["fit", "--bins-per-decade", "-2"],
                    ["panel", "--collapse-bins-per-decade", "0"],
                    ["fit", "--collapse-bins-per-decade", "0"], ["fit", "--fit-decades", "0"],
                    ["panel", "--fit-decades", "-1"], ["fit", "--fit-decades", "inf"],
                    ["panel", "--fit-decades", "nan"], ["fit", "--collapse-window", "-1"],
                    ["panel", "--collapse-window", "0"], ["fit", "--collapse-window", "nan"]]


class TestArgumentErrors:
    """A bad argument value exits 2 with one error line, before any input is
    read or any file is written."""

    @pytest.mark.parametrize("argv",
                             REVERSED_RANGES + LOW_WINDOWS + BAD_BIN_SPECS + BAD_FIT_SETTINGS)
    def test_checked_before_input_is_read(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv[:1] + ["--input", str(tmp_path / "absent.csv"), "--outdir", str(out)]
                  + argv[1:])
        err = capsys.readouterr().err
        assert rc == 2 and "does not exist" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv, word", [
        (["summary", "--years", "abc"], "year"),
        (["summary", "--years", "1990,"], "year"),
        (["summary", "--years", "1990:1989"], "year"),
        (["percolate", "--fit", "0.1"], "range"),
        (["percolate", "--emit-every", "0"], "emit-every"),
        (["percolate", "--emit-every", "-3"], "emit-every"),
        (["panel", "--emit-every", "0"], "emit-every"),
        (["panel", "--workers", "-1"], "--workers"),
        (["panel", "--threshold", "1.5"], "threshold"),
        (["richclub", "--threshold", "1.5"], "threshold"),
        (["richclub", "--threshold", "0"], "threshold"),
        *((argv, "range") for argv in REVERSED_RANGES),
        *((argv, "LO must be positive") for argv in LOW_WINDOWS),
        *((argv, argv[1]) for argv in BAD_BIN_SPECS),
        *((argv, argv[1]) for argv in BAD_FIT_SETTINGS),
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, argv, word):
        data = synth_csv(tmp_path, years="1990:1990", countries=12)
        capsys.readouterr()
        out = tmp_path / "out"
        try:
            rc = main(argv[:1] + ["--input", str(data), "--outdir", str(out)] + argv[1:])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and word in err, err
        if argv in BAD_BIN_SPECS + BAD_FIT_SETTINGS:  # a RunConfig check names its flag first
            assert err.startswith(f"error: {argv[1]} "), err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_synth_seed_outside_64_bits(self, tmp_path, capsys, seed):
        """A seed is not reduced mod 2**64: one outside [0, 2**64) is an
        error, not another seed's panel."""
        out = tmp_path / "out"
        rc = main(["synth", "--countries", "4", "--seed", seed, "--dyadic", str(out / "d.csv"),
                   "--snapshot-dir", str(out / "snaps")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"
        assert not out.exists()


GOLDEN_PANEL = Path(__file__).parent / "golden" / "synth" / "out" / "panel.csv"
GOLDEN_SNAPSHOTS = Path(__file__).parent / "golden" / "synth_snapshots" / "out"
# Per option: (values the command should run with, values it should reject).
# Edge values that the analyses may refuse per year or per fit are on the
# left; either way the exit code contract must hold.
INPUT_OPTIONS = {
    "--format": (["csv"], ["tsv", "psv"]),
    "--years": (["all", "2002", "2001:2002", "2002,1999", "2001:2100", "2001:2003000"],
                ["", "abc", "1990,", "2003:2001", "2050:2100"]),
    "--on-duplicate": (["mean", "first", "max"], ["median"]),
    "--missing": (["zero", "copy"], ["none"]),
    "--output-format": (["csv", "json"], ["xml"]),
}
COUNTS = (["1", "3", "10", "1000"], ["-1", "0", "1.5", "x"])
POSITIVE = (["0.5", "2.5", "1e-300", "1e300"], ["-1", "0", "inf", "nan", "x"])
RANGES = (["0.05:0.9", "1:1e6", "0:1", "-1:5", "1:inf", "0.3:0.31"],
          ["0.9:0.1", "nan:1", "1", "x:y"])
# The weight and degree fit windows must also start above 0.
WINDOWS = (["0.05:0.9", "1:1e6", "1:inf", "0.3:0.31"],
           ["0.9:0.1", "nan:1", "1", "x:y", "0:1", "-1:5"])
WEIGHT_FIT_OPTIONS = {"--bins-per-decade": COUNTS, "--fit-range": WINDOWS,
                      "--fit-decades": POSITIVE,
                      "--collapse-bins-per-decade": COUNTS, "--collapse-window": POSITIVE}
DISPARITY_OPTIONS = {"--flow": (["total", "export", "import"], ["net"]),
                     "--disparity-bins-per-decade": COUNTS, "--disparity-min-count": COUNTS}
THRESHOLD = (["0.5", "0.99", "1e-300"], ["-1", "0", "1", "1.5", "nan", "x"])
MULTIPLIERS = (["1", "0.5", "1.5", "1e-300"], ["0", "-1", "nan", "inf", "-inf"])
# At most 10 countries and 3 years, and no multiplier that grows the country
# count past 23, so that every synth run stays small.
SYNTH_OPTIONS = {
    "--countries": (["2", "5", "10"], ["1", "0", "-3", "x"]),
    "--years": (["2000", "2000:2001", "1999:2001", "2001,1999"], ["", "x", "2001:2000", "all"]),
    "--density": (["0.5", "1", "1e-300"], ["0", "1.5", "nan"]),
    "--n-multiplier": MULTIPLIERS,
    "--gdp-multiplier": MULTIPLIERS,
    "--n-final": (["2", "10"], ["0", "-1", "x"]),
    "--gdp-scale-final": (["1", "0.5", "10"], MULTIPLIERS[1]),
}
COMMAND_OPTIONS = {
    "summary": {},
    "metrics": DISPARITY_OPTIONS,
    "fit": WEIGHT_FIT_OPTIONS,
    "percolate": {"--order": (["desc", "asc", "both"], ["up"]), "--emit-every": COUNTS,
                  "--fit": RANGES},
    "richclub": {"--threshold": THRESHOLD},
    "panel": {**WEIGHT_FIT_OPTIONS, **DISPARITY_OPTIONS, "--exp-fit-range": RANGES,
              "--emit-every": COUNTS, "--threshold": THRESHOLD, "--degree-fit-range": WINDOWS},
    "synth": SYNTH_OPTIONS,
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_argument_values_keep_the_exit_code_contract(data):
    """Exit 0, 1 or 2 for any argument values, no exception but argparse's
    SystemExit(2), exit 2 for a value to reject, and an exit 2 leaves no
    outdir behind.

    Each option is left out, given a value to run with or, at a share of
    the draws fixed per example, a value to reject.  synth is always given
    --countries; without --years it makes a one-year panel."""
    command = data.draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    bad_share = data.draw(st.sampled_from([0, 0, 5, 30]), label="bad share in 100")
    if command == "synth":
        argv, options, output = [command], SYNTH_OPTIONS, "--snapshot-dir"
        always = {"--countries"}
    else:
        argv = [command, "--input", str(GOLDEN_PANEL)]
        options, output = {**INPUT_OPTIONS, **COMMAND_OPTIONS[command]}, "--outdir"
        always = set()
    rejected = False
    for option, (good, bad) in options.items():
        if option in always or data.draw(st.booleans(), label=f"{option} given"):
            bad_draw = data.draw(st.sampled_from(range(100))) < bad_share
            rejected = rejected or bad_draw
            argv.append(f"{option}={data.draw(st.sampled_from(bad if bad_draw else good))}")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "out"
        try:
            rc = main(argv + [output, str(out)])
        except SystemExit as exc:
            assert exc.code == 2
            rc = 2
        assert rc in (0, 1, 2)
        assert rc == 2 or not rejected
        if rc == 2:
            assert not out.exists()
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


ANALYSES = ["summary", "metrics", "fit", "percolate", "richclub", "panel"]


def own_flags(command):
    """The flags an analysis subcommand takes, from this file's tables."""
    return {"--input", "--outdir", *INPUT_OPTIONS, *COMMAND_OPTIONS[command],
            *(["--weights"] if command == "fit" else [])}


class TestSubcommandOptions:
    """Each analysis subcommand takes exactly its own options: its --help
    lists them, and an option that only other subcommands take is a usage
    error."""

    @pytest.mark.parametrize("command", ANALYSES)
    def test_help_lists_exactly_its_own_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
        assert sorted(listed) == sorted(own_flags(command))

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ANALYSES
        for flag in sorted(set().union(*map(own_flags, ANALYSES)) - own_flags(command))])
    def test_another_subcommands_flag_exits_2(self, tmp_path, capsys, command, flag):
        if flag == "--weights":
            value = str(tmp_path / "weights.txt")
        else:
            value = next(options[flag][0][0] for options in COMMAND_OPTIONS.values()
                         if flag in options)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(GOLDEN_PANEL), "--outdir", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and flag in err, err
        assert not out.exists()


class TestConfigFromArgs:
    """Each RunConfig default is written once, in RunConfig or the library
    function that shares it: an analysis subcommand given only --input and
    --outdir runs with every field's default, and so does a LO:HI range
    given as the empty string."""

    @pytest.mark.parametrize("command", ANALYSES)
    def test_defaults_are_the_field_defaults(self, command):
        args = cli.build_parser().parse_args([command, "--input", "x", "--outdir", "o"])
        assert cli._config_from_args(args) == cli.RunConfig("x", "o")

    @pytest.mark.parametrize("argv", [["fit", "--fit-range", ""],
                                      ["panel", "--fit-range", ""],
                                      ["panel", "--exp-fit-range", ""],
                                      ["panel", "--degree-fit-range", ""]])
    def test_empty_range_means_the_field_default(self, argv):
        args = cli.build_parser().parse_args(argv + ["--input", "x", "--outdir", "o"])
        assert cli._config_from_args(args) == cli.RunConfig("x", "o")


class TestYearSelection:
    """A LO:HI range selects the years of the input inside it; a year listed
    on its own is requested whether or not the input has it."""

    def run(self, tmp_path, capsys, years):
        out = tmp_path / "out"
        rc = main(["panel", "--input", str(GOLDEN_PANEL), "--years", years,
                   "--outdir", str(out)])
        manifest = out / "manifest.json"
        entries = json.loads(manifest.read_text())["years"] if manifest.exists() else None
        return rc, capsys.readouterr().err, entries

    @pytest.mark.parametrize("years", ["2001:2100", "2001:2003000000", "1:2003"])
    def test_range_selects_the_available_years(self, tmp_path, capsys, years):
        start = time.perf_counter()
        rc, err, entries = self.run(tmp_path, capsys, years)
        assert rc == 0 and err == ""
        assert sorted(entries) == ["2001", "2002", "2003"]
        assert all("files" in entry for entry in entries.values())
        assert time.perf_counter() - start < 10.0

    def test_absent_single_year_is_one_error(self, tmp_path, capsys):
        rc, err, entries = self.run(tmp_path, capsys, "2001,2099")
        assert rc == 1
        assert err == "error: year 2099: no records for year 2099\n"
        assert sorted(entries) == ["2001", "2099"] and "error" in entries["2099"]

    def test_empty_selection_exits_2(self, tmp_path, capsys):
        rc, err, entries = self.run(tmp_path, capsys, "")
        assert rc == 2 and entries is None
        assert err == "error: invalid year selection ''\n"
        assert main(["synth", "--countries", "5", "--years", "",
                     "--dyadic", str(tmp_path / "d.csv")]) == 2
        assert not (tmp_path / "d.csv").exists()

    def test_range_without_available_year_exits_2(self, tmp_path, capsys):
        rc, err, entries = self.run(tmp_path, capsys, "2050:2100")
        assert rc == 2 and entries is None
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestSnapshotDirectorySelection:
    """In a snapshot directory, the year in a ``<year>_network.json`` name
    selects the file before it is parsed."""

    def summary(self, snap_dir, tmp_path, years):
        with mock.patch.object(cli, "load_snapshot", wraps=load_snapshot) as spy, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["summary", "--input", str(snap_dir), "--years", years,
                       "--outdir", str(tmp_path / "out")])
        return rc, [Path(c.args[0]).name for c in spy.call_args_list], err.getvalue()

    def test_parses_only_the_selected_files(self, tmp_path):
        rc, parsed, _ = self.summary(GOLDEN_SNAPSHOTS, tmp_path, "2001")
        assert rc == 0 and parsed == ["2001_network.json"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["2001_summary.csv"]

    def test_range_parses_the_files_inside_it(self, tmp_path):
        rc, parsed, _ = self.summary(GOLDEN_SNAPSHOTS, tmp_path, "2002:2100")
        assert rc == 0 and parsed == ["2002_network.json", "2003_network.json"]

    def test_named_year_must_match_the_document(self, tmp_path):
        snaps = tmp_path / "snaps"
        shutil.copytree(GOLDEN_SNAPSHOTS, snaps)
        shutil.copyfile(snaps / "2001_network.json", snaps / "2005_network.json")
        rc, parsed, _ = self.summary(snaps, tmp_path, "2001:2003")
        assert rc == 0 and "2005_network.json" not in parsed
        rc, parsed, err = self.summary(snaps, tmp_path, "2005")
        assert rc == 2 and parsed == ["2005_network.json"]
        assert err == "error: snapshot 2005_network.json holds year 2001\n"

    def test_name_without_a_year_is_parsed(self, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        shutil.copyfile(GOLDEN_SNAPSHOTS / "2002_network.json", snaps / "latest_network.json")
        shutil.copyfile(GOLDEN_SNAPSHOTS / "2003_network.json", snaps / "2003_network.json")
        rc, parsed, _ = self.summary(snaps, tmp_path, "2002")
        assert rc == 0 and parsed == ["latest_network.json"]
        assert (tmp_path / "out" / "2002_summary.csv").exists()


class TestAnalysisCommands:
    def test_summary_from_csv(self, tmp_path):
        data = synth_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["summary", "--input", str(data), "--outdir", str(out)]) == 0
        rows = read_csv(out / "1990_summary.csv")
        assert rows[0] == ["year", "N", "L", "rho", "W", "mean_w", "w_max",
                           "w_max_over_W"]
        assert rows[1][0] == "1990"
        assert (out / "1992_summary.csv").exists()

    def test_summary_from_snapshot(self, tmp_path):
        snap_dir = tmp_path / "snaps"
        main(["synth", "--countries", "15", "--year", "1985",
              "--snapshot-dir", str(snap_dir)])
        out = tmp_path / "out"
        rc = main(["summary", "--input", str(snap_dir / "1985_network.json"),
                   "--outdir", str(out)])
        assert rc == 0 and (out / "1985_summary.csv").exists()

    def test_summary_json_output(self, tmp_path):
        data = synth_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["summary", "--input", str(data), "--years", "1990",
                     "--outdir", str(out), "--output-format", "json"]) == 0
        doc = json.loads((out / "1990_summary.json").read_text())
        assert doc[0]["L"] == round(0.5 * 30 * 29 / 2)
        assert set(doc[0]) == {"year", "N", "L", "rho", "W", "mean_w", "w_max",
                               "w_max_over_W"}

    def test_metrics_files(self, tmp_path):
        data = synth_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["metrics", "--input", str(data), "--outdir", str(out)]) == 0
        rows = read_csv(out / "1991_metrics.csv")
        assert rows[0] == ["country", "k", "k_exp", "k_imp", "s", "Y"]
        assert 25 <= len(rows) - 1 <= 30  # one row per retained country
        assert (out / "disparity_curve.csv").exists()
        fit = json.loads((out / "disparity_fit.json").read_text())
        assert 0.0 < fit["exponent"] < 1.0

    def test_fit_files(self, tmp_path):
        data = synth_csv(tmp_path, countries=60)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(data), "--years", "1990",
                     "--outdir", str(out)]) == 0
        fits = json.loads((out / "1990_fits.json").read_text())
        assert "w0" in fits["lognormal"] and "tau" in fits["power_law"]
        assert (out / "1990_weight_hist.csv").exists()
        assert (out / "1990_collapse.csv").exists()

    def test_fit_weight_list(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("".join(f"{1.5 ** i}\n" for i in range(40)))
        out = tmp_path / "out"
        assert main(["fit", "--weights", str(wfile), "--outdir", str(out)]) == 0
        assert (out / "weights_fits.json").exists()

    def test_fit_requires_some_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("empty_input", [False, True])
    def test_fit_takes_one_of_input_and_weights(self, tmp_path, capsys, empty_input):
        data = "" if empty_input else str(synth_csv(tmp_path, years="1990:1990", countries=12))
        wfile = tmp_path / "w.txt"
        wfile.write_text("1\n2\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", data, "--weights", str(wfile),
                  "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "not allowed" in err, err
        assert not (tmp_path / "out").exists()

    def test_percolate_emit_every(self, tmp_path):
        data = synth_csv(tmp_path)
        out_all = tmp_path / "all"
        out_thin = tmp_path / "thin"
        main(["percolate", "--input", str(data), "--years", "1990",
              "--outdir", str(out_all)])
        main(["percolate", "--input", str(data), "--years", "1990",
              "--emit-every", "10", "--order", "desc", "--outdir", str(out_thin)])
        full = read_csv(out_all / "1990_percolation.csv")
        thin = read_csv(out_thin / "1990_percolation.csv")
        n_links = sum(1 for row in full[1:] if row[0] == "descending")
        assert len(thin) - 1 <= n_links // 10 + 1
        assert thin[-1][1] == "1.0"  # last point always kept

    def test_percolate_with_fit(self, tmp_path):
        data = synth_csv(tmp_path, countries=60)
        out = tmp_path / "out"
        assert main(["percolate", "--input", str(data), "--years", "1990",
                     "--fit", "0.02:0.4", "--outdir", str(out)]) == 0
        doc = json.loads((out / "1990_percolation_fit.json").read_text())
        assert "descending" in doc and "ascending" in doc

    def test_richclub_files(self, tmp_path):
        data = synth_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["richclub", "--input", str(data), "--threshold", "0.5",
                     "--outdir", str(out)]) == 0
        # One row per year, from that year's network alone.
        series = [["year", "S_RC", "club_size", "N"]]
        for net in generate_panel(GravityParams(n_countries=30, seed=3), range(1990, 1993)):
            club_size, s_rc = rich_club_size(rich_club_curve(net), net, 0.5)
            series.append([str(net.year), repr(s_rc), str(club_size), str(net.n_nodes)])
        assert read_csv(out / "richclub_series.csv") == series
        curve = read_csv(out / "1990_richclub.csv")
        assert curve[1][1] == "1.0" and curve[-1][1] == "0.0"


CSV_HEADER = b"year,reporter,partner,export,import\n"
# Weight lists that log_histogram rejects, by test id.
BAD_WEIGHT_LISTS = {"weights-empty": "\n", "weights-zero": "1\n0\n",
                    "weights-negative": "2\n-1\n", "weights-nan": "1\nnan\n",
                    "weights-inf": "inf\n3\n"}


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path):
        assert main(["summary", "--input", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["summary", "metrics", "fit", "percolate",
                                         "richclub", "panel", *BAD_WEIGHT_LISTS])
    def test_input_error_leaves_no_outdir(self, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--input", str(tmp_path / "nope.csv")]
        if command in BAD_WEIGHT_LISTS:
            weights = tmp_path / "weights.txt"
            weights.write_text(BAD_WEIGHT_LISTS[command])
            argv = ["fit", "--weights", str(weights)]
        assert main(argv + ["--outdir", str(out)]) == 2
        assert not out.exists()

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,reporter,partner,export,import\n1990,USA,USA,1,1\n")
        assert main(["summary", "--input", str(bad), "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("edges", [
        '[["A","B",1.0,2.0],["A","B",3.0,4.0]]',  # one edge twice
        '[["A","B",1.0,Infinity]]',
    ])
    def test_invalid_snapshot(self, tmp_path, capsys, edges):
        snap = tmp_path / "2000_network.json"
        snap.write_text('{"format":"trade-network-snapshot","version":1,"year":2000,'
                        f'"nodes":["A","B"],"edges":{edges}}}')
        assert main(["summary", "--input", str(snap), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "edge (A, B)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, name, data, word", [
        (["summary", "--input"], "latin1.csv", CSV_HEADER + b"1990,CAF\xe9,USA,1,1\n",
         "line 2: input is not UTF-8"),
        (["summary", "--input"], "long.csv", CSV_HEADER + b"1990,USA," + b"A" * 200_000 + b",1,1\n",
         "line 2: field larger than field limit"),
        (["summary", "--input"], "2000_network.json",
         b'{"format":"trade-network-snapshot",\n"nodes":["\xe9"]}', "line 2: input is not UTF-8"),
        (["fit", "--weights"], "weights.txt", b"1.5\n2\xe9\n", "line 2: input is not UTF-8"),
    ], ids=["csv-not-utf8", "csv-long-field", "snapshot-not-utf8", "weights-not-utf8"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, argv, name, data, word):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(argv + [str(path), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {word}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["synth", "panel"])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys, command):
        """A file that cannot be moved into place, since a directory holds its
        name, exits 2 and leaves no temporary file; in synth neither does the
        dyadic file written around it.  The one error line names that file,
        not the temporary file that is gone."""
        if command == "synth":
            dest = tmp_path / "snaps" / "2001_network.json"
            argv = ["synth", "--countries", "5", "--years", "2000:2002", "--dyadic",
                    str(tmp_path / "d.csv"), "--snapshot-dir", str(tmp_path / "snaps")]
        else:
            dest = tmp_path / "out" / "2002_summary.csv"
            argv = ["panel", "--input", str(GOLDEN_PANEL), "--outdir", str(tmp_path / "out")]
        dest.mkdir(parents=True)
        assert main(argv) == 2
        assert not list(tmp_path.rglob("*.tmp"))
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": '{dest}'\n"), err
        assert err.count("\n") == 1 and ".tmp" not in err.replace(str(tmp_path), ""), err

    def test_absent_year_is_partial_failure(self, tmp_path):
        data = synth_csv(tmp_path)
        out = tmp_path / "out"
        rc = main(["summary", "--input", str(data), "--years", "1990,1999",
                   "--outdir", str(out)])
        assert rc == 1
        assert (out / "1990_summary.csv").exists()
        assert not (out / "1999_summary.csv").exists()


class TestPanel:
    def test_single_year_manifest_and_six_files(self, tmp_path):
        data = synth_csv(tmp_path, years="1990:1990")
        out = tmp_path / "out"
        assert main(["panel", "--input", str(data), "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = manifest["years"]["1990"]["files"]
        assert len(files) == 6
        for name in files:
            assert (out / name).exists()
        assert manifest["panel_files"] == []
        produced = {p.name for p in out.iterdir()}
        assert produced == set(files) | {"manifest.json"}

    def test_multi_year_series_and_manifest(self, tmp_path):
        data = synth_csv(tmp_path, years="1990:1994", countries=40)
        out = tmp_path / "out"
        assert main(["panel", "--input", str(data), "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["years"]) == {"1990", "1991", "1992", "1993", "1994"}
        assert "panel_summary.csv" in manifest["panel_files"]
        assert "panel_richclub.csv" in manifest["panel_files"]
        rows = read_csv(out / "panel_summary.csv")
        assert len(rows) == 6
        fits = json.loads((out / "panel_fits.json").read_text())
        assert "disparity" in fits

    def test_rerun_byte_identical(self, tmp_path):
        data = synth_csv(tmp_path, years="1990:1992")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["panel", "--input", str(data), "--outdir", str(out1)]) == 0
        assert main(["panel", "--input", str(data), "--outdir", str(out2)]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_partial_failure_recorded_in_manifest(self, tmp_path):
        data = synth_csv(tmp_path, years="1990:1991")
        out = tmp_path / "out"
        rc = main(["panel", "--input", str(data), "--years", "1990,1991,1999",
                   "--outdir", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" in manifest["years"]["1999"]
        assert "files" in manifest["years"]["1990"]

    def test_snapshot_dir_as_its_own_outdir(self, tmp_path):
        snaps = tmp_path / "snaps"
        assert main(["synth", "--countries", "12", "--years", "1990:1991",
                     "--snapshot-dir", str(snaps)]) == 0
        # the second run reads a directory holding the first run's outputs
        for _ in range(2):
            assert main(["panel", "--input", str(snaps), "--outdir", str(snaps)]) == 0

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        data = synth_csv(tmp_path, years="1990:1990")
        out = tmp_path / "from_env"
        monkeypatch.setenv("TRADENET_OUTDIR", str(out))
        assert main(["summary", "--input", str(data)]) == 0
        assert (out / "1990_summary.csv").exists()

    @pytest.mark.parametrize("flow, per_year", [("total", 1), ("export", 2)])
    def test_node_metric_columns_once_per_network_and_flow(self, tmp_path, monkeypatch,
                                                          flow, per_year):
        """The metrics table, the pooled disparity curve and the rich club
        share one computation per network and flow."""
        import tradenet.metrics

        calls = []
        columns = tradenet.metrics._columns

        def counted(net, flow):
            calls.append((net.year, flow))
            return columns(net, flow)

        monkeypatch.setattr(tradenet.metrics, "_columns", counted)
        data = synth_csv(tmp_path, years="1990:1992", countries=20)
        assert main(["panel", "--input", str(data), "--outdir", str(tmp_path / "out"),
                     "--flow", flow]) == 0
        assert len(calls) == 3 * per_year
        assert len(set(calls)) == len(calls)

    def test_year_outputs_do_not_depend_on_other_years(self, tmp_path):
        data = synth_csv(tmp_path, years="1990:1993")
        out_all = tmp_path / "all"
        assert main(["panel", "--input", str(data), "--outdir", str(out_all)]) == 0
        for year in (1990, 1992):
            out = tmp_path / str(year)
            assert main(["panel", "--input", str(data), "--years", str(year),
                         "--outdir", str(out)]) == 0
            for p in sorted(out.glob(f"{year}_*")):
                assert p.read_bytes() == (out_all / p.name).read_bytes(), p.name


def test_readme_cli_lines_parse():
    """Every ``tradenet`` line of README's CLI example parses with the
    parser as built, and the options of each one that reads --input build
    a RunConfig, which checks them."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("tradenet ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])  # an unknown option exits 2
        assert args.command == argv[1]
        if "--input" in argv:
            cli._config_from_args(args)
