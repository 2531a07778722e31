import csv
import json

import pytest

from tradenet.cli import main
from tradenet.graph import load_snapshot
from tradenet.synth import GravityParams, generate_network


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


def test_cli_builds_no_per_record_objects(tmp_path, monkeypatch):
    import tradenet.graph
    import tradenet.ingest

    def forbidden(*args, **kwargs):
        raise AssertionError("per-record object built on a CLI path")

    for module in (tradenet.ingest, tradenet.graph):
        for name in ("DyadicRecord", "PairedFlows"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    data = synth_csv(tmp_path, years="1990:1991")
    assert main(["summary", "--input", str(data), "--outdir", str(tmp_path / "s")]) == 0
    assert main(["panel", "--input", str(data), "--outdir", str(tmp_path / "p")]) == 0


def test_cli_builds_no_edge_objects(tmp_path, monkeypatch):
    """The CLI works on the network's arrays: no EdgeWeights, no edges or
    neighbors() view, on any subcommand."""
    import tradenet.graph

    def forbidden(*args, **kwargs):
        raise AssertionError("per-edge object built on a CLI path")

    monkeypatch.setattr(tradenet.graph, "EdgeWeights", forbidden)
    monkeypatch.setattr(tradenet.graph.AnnualTradeNetwork, "edges", property(forbidden))
    monkeypatch.setattr(tradenet.graph.AnnualTradeNetwork, "neighbors", forbidden)
    snaps = tmp_path / "snaps"
    data = tmp_path / "d.csv"
    assert main(["synth", "--countries", "25", "--years", "1990:1991", "--dyadic", str(data),
                 "--snapshot-dir", str(snaps)]) == 0
    for argv in (["panel", "--input", str(data)], ["panel", "--input", str(snaps)],
                 ["summary", "--input", str(data)], ["metrics", "--input", str(snaps)],
                 ["percolate", "--input", str(data), "--fit", "0.05:0.9"],
                 ["richclub", "--input", str(snaps)], ["fit", "--input", str(data)]):
        assert main(argv + ["--outdir", str(tmp_path / argv[0])]) == 0, argv


class TestArgumentErrors:
    """A bad argument value exits 2 with one error line, before any input is
    read or any file is written."""

    @pytest.mark.parametrize("argv, word", [
        (["summary", "--years", "abc"], "year"),
        (["summary", "--years", "1990,"], "year"),
        (["percolate", "--fit", "0.1"], "range"),
        (["percolate", "--emit-every", "0"], "emit-every"),
        (["percolate", "--emit-every", "-3"], "emit-every"),
        (["panel", "--emit-every", "0"], "emit-every"),
        (["panel", "--workers", "-1"], "--workers"),
        (["panel", "--threshold", "1.5"], "threshold"),
        (["richclub", "--threshold", "1.5"], "threshold"),
        (["richclub", "--threshold", "0"], "threshold"),
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
        assert not out.exists() or not any(out.iterdir())


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
        series = read_csv(out / "richclub_series.csv")
        assert series[0] == ["year", "S_RC", "club_size", "N"]
        assert len(series) == 4
        curve = read_csv(out / "1990_richclub.csv")
        assert curve[1][1] == "1.0" and curve[-1][1] == "0.0"


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path):
        assert main(["summary", "--input", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path)]) == 2

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
