import json
import struct
import warnings
import zlib

import numpy as np
import pytest

from rsnsim import cli
from rsnsim.cli import main
from rsnsim.device import default_ranges
from rsnsim.solver import SimulationTrace
from rsnsim.topology import BetaShape, Grid, generate_network


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


GEN_DOC = {"interface_dim": 4, "subdivision": 1, "alpha": 2.0, "beta": 5.0,
           "xi": 4, "seed": 7}
README_GEN_DOC = {"interface_dim": 4, "subdivision": 1, "alpha": 10, "beta": 1,
                  "xi": 4, "seed": 7}
# short wires strand the input: seed 0 needs augmented edges
SHORT_GEN_DOC = {"interface_dim": 4, "subdivision": 1, "alpha": 1, "beta": 10,
                 "xi": 1, "seed": 0, "input_node": 2, "ground_node": 46}
SWEEP_DOC = {"alphas": [1.0, 2.0], "betas": [5.0], "xis": [2], "amplitudes": [2.0],
             "trials": 2, "base_seed": 5, "duration": 0.05}


def check_png(data):
    """Assert `data` is a whole 8-bit RGB PNG: signature, chunk CRCs, IDAT size."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, tags, idat = 8, [], b""
    while pos < len(data):
        length, tag = struct.unpack(">I4s", data[pos:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + body), tag
        tags.append(tag)
        if tag == b"IDAT":
            idat += body
        pos += 12 + length
    assert tags[0] == b"IHDR" and tags[-1] == b"IEND"
    width, height, depth, colour = struct.unpack(">IIBB", data[16:26])
    assert (depth, colour) == (8, 2)
    assert len(zlib.decompress(idat)) == height * (1 + 3 * width)


class TestGenerate:
    def test_writes_topology(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "topology.json").read_text())
        assert len(doc["edges"]) >= 196
        assert len(doc["edges"]) - doc["n_augmented"] == 196
        out = capsys.readouterr().out
        assert "interface nodes: 16" in out
        assert "connected: True" in out

    def test_flat_grid(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_DOC, subdivision=0, xi=2))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "topology.json").read_text())
        assert len(doc["edges"]) - doc["n_augmented"] == 16 * 2

    def test_reproducible_files(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/topology.json").read_bytes() == \
               (tmp_path / "b/topology.json").read_bytes()

    def test_writes_manifest(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["command"] == "generate"
        assert doc["seeds"] == [7]
        assert doc["config"]["alpha"] == 2.0
        # the terminals generate chose: the first and last interface posts
        assert (doc["config"]["input_node"], doc["config"]["ground_node"]) == (0, 48)

    @pytest.mark.parametrize("doc", [README_GEN_DOC, SHORT_GEN_DOC])
    def test_recorded_seed_regenerates_file(self, tmp_path, doc):
        cfg = write_json(tmp_path / "gen.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "topology.json").read_text()
        saved = json.loads(text)
        if doc is SHORT_GEN_DOC:
            assert saved["n_augmented"] > 0
            assert (saved["input_node"], saved["ground_node"]) == (2, 46)
        topo = generate_network(Grid.from_dict(saved["grid"]),
                                BetaShape(doc["alpha"], doc["beta"]), doc["xi"],
                                default_ranges(), saved["seed"],
                                input_node=saved["input_node"],
                                ground_node=saved["ground_node"])
        assert topo.to_json() + "\n" == text

    @pytest.mark.parametrize("over", [
        {"xi": 0}, {"interface_dim": 1}, {"alpha": 0}, {"edge_count": 0},
        {"input_node": 1}, {"input_node": 99}, {"ground_node": 0},
    ])
    def test_bad_value_is_config_error(self, tmp_path, caplog, over):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_DOC, **over))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "config error:" in caplog.text
        assert not (tmp_path / "topology.json").exists()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--seed", "8",
              "--out", str(tmp_path / "a")])
        main(["generate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/topology.json").read_bytes() != \
               (tmp_path / "b/topology.json").read_bytes()

    def test_unknown_key_exits_1(self, tmp_path, caplog):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_DOC, pitch=3))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "pitch" in caplog.text
        # values that a cast would coerce are rejected too
        for key, value in (("xi", 2.7), ("xi", True), ("seed", "7"),
                           ("subdivision", 1.5), ("edge_count", 99.5),
                           ("input_node", False), ("alpha", True),
                           ("beta", "5"), ("alpha", float("nan")),
                           ("beta", float("inf"))):
            caplog.clear()
            cfg = write_json(tmp_path / "gen.json", dict(GEN_DOC, **{key: value}))
            assert main(["generate", "--config", cfg,
                         "--out", str(tmp_path)]) == 1, (key, value)
            assert key in caplog.text
        assert not (tmp_path / "topology.json").exists()


class TestSimulate:
    @pytest.fixture
    def topo_file(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--out", str(tmp_path)])
        return str(tmp_path / "topology.json")

    def test_trace_row_count(self, tmp_path, topo_file):
        cfg = write_json(tmp_path / "sim.json", {"amplitude": 2.0, "duration": 1.0})
        assert main(["simulate", "--topology", topo_file, "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 1001
        assert lines[0] == "t,v_in,i_src," + ",".join(
            f"node_{i}" for i in range(1, 17))

    def test_zero_amplitude_zero_energy(self, tmp_path, topo_file):
        cfg = write_json(tmp_path / "sim.json", {"amplitude": 0.0, "duration": 0.1})
        main(["simulate", "--topology", topo_file, "--config", cfg,
              "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["energy_joules"] == 0.0
        assert summary["switching_events"] == 0

    def test_rerun_identical(self, tmp_path, topo_file):
        cfg = write_json(tmp_path / "sim.json", {"amplitude": 2.0, "duration": 0.1})
        main(["simulate", "--topology", topo_file, "--config", cfg,
              "--out", str(tmp_path / "a")])
        main(["simulate", "--topology", topo_file, "--config", cfg,
              "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/trace.csv").read_bytes() == \
               (tmp_path / "b/trace.csv").read_bytes()

    def test_bad_value_exits_1(self, tmp_path, topo_file, caplog):
        for key, value in (("amplitude", True), ("amplitude", "8"),
                           ("amplitude", float("nan")), ("dt", False),
                           ("frequency", float("inf")), ("amplitude", 10 ** 400),
                           ("decay_mode", "bogus"), ("decay_mode", 3)):
            caplog.clear()
            cfg = write_json(tmp_path / "sim.json", {key: value})
            assert main(["simulate", "--topology", topo_file, "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1, (key, value)
            assert key in caplog.text and "config error:" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_energy_independent_of_decimation(self, tmp_path, topo_file,
                                              monkeypatch):
        simulate, traces = cli.simulate, []

        def recording_simulate(*args, **kwargs):
            traces.append(simulate(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "simulate", recording_simulate)
        summaries = {}
        for d in (1, 10, 5000):
            cfg = write_json(tmp_path / "sim.json", {"amplitude": 2.0,
                                                     "duration": 0.1,
                                                     "decimation": d})
            out = tmp_path / f"d{d}"
            assert main(["simulate", "--topology", topo_file, "--config", cfg,
                         "--out", str(out)]) == 0
            summaries[d] = json.loads((out / "summary.json").read_text())
            rows = (out / "trace.csv").read_text().splitlines()
            n_rows = len(range(0, 100, d))
            assert len(rows) == 1 + n_rows
            # only the recorded rows of interface voltages are held
            assert traces[-1].interface_voltages.shape[0] == n_rows
        assert summaries[1]["energy_joules"] > 0.0
        for d in (10, 5000):
            for key in ("energy_joules", "mean_power_watts", "duration_seconds",
                        "switching_events"):
                assert summaries[d][key] == summaries[1][key], (d, key)

    def test_missing_topology_exits_2(self, tmp_path):
        assert main(["simulate", "--topology", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_corrupt_topology_exits_2(self, tmp_path, topo_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--topology", str(bad),
                     "--out", str(tmp_path)]) == 2

        out = tmp_path / "out"
        for edit in (lambda d: d["edges"][3].update(b=9999),
                     lambda d: d["edges"][3].update(a=-1),
                     lambda d: d.update(ground_node=500),
                     lambda d: d["edges"][3]["params"].update(tau=0.0),
                     lambda d: d["edges"][3]["params"].pop("eta"),
                     lambda d: d["edges"][3]["state"].update(w_prime=1.5),
                     lambda d: d["edges"][3]["state"].update(w=2),
                     lambda d: d["edges"][3].update(a=0.7),
                     lambda d: d["edges"][3].update(a=True),
                     lambda d: d.update(input_node=0.5),
                     lambda d: d["edges"][3]["state"].update(w=1.9),
                     lambda d: d.update(seed=1.9),
                     lambda d: d.update(n_augmented=True),
                     lambda d: d["grid"].update(subdivision=1.7),
                     lambda d: d["edges"][3]["params"].update(epsilon=True),
                     lambda d: d["edges"][3]["params"].update(tau="0.2"),
                     lambda d: d["edges"][3]["state"].update(w_prime=True),
                     lambda d: d["edges"][3]["state"].update(w_prime="0.5"),
                     lambda d: d["edges"][3].update(b=d["edges"][3]["a"]),
                     lambda d: d.update(ground_node=d["input_node"])):
            doc = json.loads(open(topo_file).read())
            edit(doc)
            write_json(bad, doc)
            assert main(["simulate", "--topology", str(bad),
                         "--out", str(out)]) == 2, doc["edges"][3]
        assert not (out / "trace.csv").exists()


class TestAnalyze:
    def test_entropy_energy_summary(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--out", str(tmp_path)])
        sim = write_json(tmp_path / "sim.json", {"amplitude": 2.0, "duration": 0.1})
        main(["simulate", "--topology", str(tmp_path / "topology.json"),
              "--config", sim, "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["analyze", "--trace", str(tmp_path / "trace.csv"),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "analysis.json").read_text())
        assert 0.0 <= doc["entropy_bits"] <= np.log2(16)
        assert doc["energy_joules"] >= 0.0
        assert doc["n_signals"] == 16

    def test_corrupt_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,\"x\n")
        assert main(["analyze", "--trace", str(bad)]) == 2

    def test_no_center_flag(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_DOC)
        main(["generate", "--config", cfg, "--out", str(tmp_path)])
        sim = write_json(tmp_path / "sim.json", {"amplitude": 2.0, "duration": 0.1})
        main(["simulate", "--topology", str(tmp_path / "topology.json"),
              "--config", sim, "--out", str(tmp_path)])
        main(["analyze", "--trace", str(tmp_path / "trace.csv"),
              "--out", str(tmp_path / "c")])
        main(["analyze", "--trace", str(tmp_path / "trace.csv"), "--no-center",
              "--out", str(tmp_path / "u")])
        c = json.loads((tmp_path / "c/analysis.json").read_text())
        u = json.loads((tmp_path / "u/analysis.json").read_text())
        assert c["centered"] and not u["centered"]


class TestSweep:
    def test_record_and_aggregate_files(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_DOC)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rec_lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(rec_lines) == 1 + 2 * 1 * 1 * 1 * 2
        assert rec_lines[0].startswith("alpha,beta,xi,v,trial,seed,entropy_bits")
        agg_lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(agg_lines) == 1 + 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool"] == "rsnsim"
        assert len(manifest["seeds"]) == 4
        assert manifest["config"]["alphas"] == [1.0, 2.0]

    def test_aggregate_means_match_records(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_DOC)
        main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        recs = (tmp_path / "records.csv").read_text().splitlines()[1:]
        h = {}
        for line in recs:
            parts = line.split(",")
            h.setdefault(float(parts[0]), []).append(float(parts[6]))
        for line in (tmp_path / "aggregate.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            alpha, mean_h = float(parts[0]), float(parts[6])
            assert mean_h == pytest.approx(np.mean(h[alpha]), rel=1e-8)

    def test_heatmap_images(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_DOC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # "heatmap rendering failed" fails
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                         "--heatmap"]) == 0
        assert (tmp_path / "entropy_xi2_v2.png").exists()
        assert (tmp_path / "energy_vs_entropy.png").exists()
        for name in ("entropy_xi2_v2.png", "energy_vs_entropy.png"):
            check_png((tmp_path / name).read_bytes())

    def test_unknown_key_exits_1(self, tmp_path, caplog):
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_DOC, voltages=[1]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "voltages" in caplog.text
        # values that a cast would coerce are rejected before any run
        for key, value in (("center", "false"), ("center", 0), ("xis", [2.7]),
                           ("xis", [True]), ("trials", 1.9), ("base_seed", "5"),
                           ("interface_dim", 4.5), ("alphas", [True]),
                           ("amplitudes", ["8"]), ("betas", [float("nan")]),
                           ("amplitudes", [True]), ("dt", float("nan")),
                           ("duration", True), ("frequency", "5"),
                           ("ranges", dict(default_ranges().to_dict(),
                                           g_floor=True)),
                           # values that would fail every record
                           ("alphas", [0]), ("betas", [-1]), ("xis", [0]),
                           ("interface_dim", 1), ("subdivision", -1),
                           ("edge_count", 0)):
            caplog.clear()
            cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_DOC, **{key: value}))
            assert main(["sweep", "--config", cfg,
                         "--out", str(tmp_path)]) == 1, (key, value)
            assert key in caplog.text
        assert not (tmp_path / "records.csv").exists()

    def test_integral_float_accepted(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_DOC, trials=1.0))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "records.csv").read_text().splitlines()) == 3


class TestHierarchyCommand:
    def test_runs_and_writes(self, tmp_path):
        doc = dict(SWEEP_DOC, alphas=[1.0], trials=1, k=2,
                   readout_a=2, readout_b=9)
        cfg = write_json(tmp_path / "h.json", doc)
        assert main(["hierarchy", "--config", cfg, "--out", str(tmp_path)]) == 0
        rec_lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(rec_lines) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "hierarchy"
        assert manifest["config"]["k"] == 2

    @pytest.mark.parametrize("key,value", [
        ("readout_b", 99), ("readout_a", 17), ("k", 2.5), ("readout_a", True),
    ])
    def test_bad_value_exits_1(self, tmp_path, caplog, key, value):
        doc = dict(SWEEP_DOC, alphas=[1.0], trials=1, k=2,
                   readout_a=2, readout_b=9)
        doc[key] = value
        cfg = write_json(tmp_path / "h.json", doc)
        assert main(["hierarchy", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "readout" in caplog.text or key in caplog.text
        assert not (tmp_path / "records.csv").exists()


def test_trace_csv_read_back_matches(tmp_path):
    cfg = write_json(tmp_path / "gen.json", GEN_DOC)
    main(["generate", "--config", cfg, "--out", str(tmp_path)])
    sim = write_json(tmp_path / "sim.json", {"amplitude": 2.0, "duration": 0.05})
    main(["simulate", "--topology", str(tmp_path / "topology.json"),
          "--config", sim, "--out", str(tmp_path)])
    trace = SimulationTrace.read_csv(tmp_path / "trace.csv")
    assert trace.n_steps == 50
    assert trace.n_interface == 16
