"""Command-line interface: schemas, exit codes, determinism, manifests."""

import json
import os

import numpy as np
import pytest

from mskcollide import ExperimentConfig, montecarlo, run_point
from mskcollide.cli import main


def test_chiptable_stdout(capsys):
    assert main(["chiptable"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 17
    row0 = out[1].split(",")
    assert row0[0] == "0"
    assert row0[1:9] == ["1", "1", "0", "1", "1", "0", "0", "1"]


def test_chiptable_file_and_structure(tmp_path):
    path = tmp_path / "chips.csv"
    assert main(["chiptable", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    rows = [list(map(int, line.split(",")[1:])) for line in lines[1:]]
    assert rows[1] == list(np.roll(rows[0], 4))
    flipped = [c ^ 1 if i % 2 else c for i, c in enumerate(rows[0])]
    assert rows[8] == flipped


def test_validate_passes_at_stated_tolerance():
    assert main(["validate", "--draws", "60", "--tolerance", "1e-9",
                 "--seed", "5"]) == 0


def test_validate_zero_tolerance_fails():
    assert main(["validate", "--draws", "1", "--tolerance", "0"]) == 1


def test_validate_passband():
    assert main(["validate", "--draws", "15", "--tolerance", "1e-2",
                 "--passband", "--seed", "5"]) == 0


def test_sweep_flags_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--out", str(out), "--coding", "uncoded",
               "--tau-start", "0", "--tau-stop", "0.2", "--tau-step", "0.1",
               "--sir-start", "-5", "--sir-stop", "5", "--sir-step", "5",
               "--packets", "50", "--seed", "7"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau_over_T,sir_db,prr_mean,prr_std,ber,ser,packets"
    assert len(lines) == 1 + 3 * 3
    cfg = ExperimentConfig(packets_per_point=50, master_seed=7,
                           tau_grid=(0.0, 0.1, 0.2), sir_db_grid=(-5.0, 0.0, 5.0))
    want = run_point(cfg, 0.0, -5.0)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -5.0
    assert float(first[2]) == want.prr_mean


def test_sweep_json_mirrors_csv(tmp_path):
    args = ["sweep", "--coding", "uncoded", "--tau-start", "0", "--tau-stop",
            "0", "--tau-step", "0.1", "--sir-start", "0", "--sir-stop", "1",
            "--sir-step", "1", "--packets", "40", "--seed", "3"]
    csv_path = tmp_path / "a.csv"
    json_path = tmp_path / "a.json"
    assert main(args + ["--out", str(csv_path), "--format", "csv"]) == 0
    assert main(args + ["--out", str(json_path), "--format", "json"]) == 0
    header, *rows = csv_path.read_text().strip().split("\n")
    parsed = json.loads(json_path.read_text())
    assert [list(r) == header.split(",") for r in map(dict.keys, parsed)]
    for line, obj in zip(rows, parsed):
        cells = line.split(",")
        assert float(cells[0]) == obj["tau_over_T"]
        assert float(cells[2]) == obj["prr_mean"]


def test_sweep_preset_runs_small(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["sweep", "--preset", "fig8c", "--packets", "20",
               "--tau-start", "0", "--tau-stop", "0", "--tau-step", "1",
               "--out", str(out), "--seed", "2"])
    assert rc == 0
    assert out.exists()


def test_sweep_manifest_written(tmp_path):
    out = tmp_path / "m.csv"
    main(["sweep", "--out", str(out), "--tau-start", "0", "--tau-stop", "0",
          "--tau-step", "1", "--sir-start", "0", "--sir-stop", "0",
          "--sir-step", "1", "--packets", "30", "--seed", "11"])
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["tool"] == "mskcollide"
    assert manifest["command"] == "sweep"
    assert manifest["master_seed"] == 11
    assert manifest["config"]["packets_per_point"] == 30
    assert manifest["outputs"][0]["path"] == "m.csv"
    import hashlib
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_sweep_tau_in_nanoseconds(tmp_path):
    out = tmp_path / "ns.csv"
    main(["sweep", "--out", str(out), "--tau-unit", "ns",
          "--tau-start", "-500", "--tau-stop", "500", "--tau-step", "500",
          "--sir-start", "0", "--sir-stop", "0", "--sir-step", "1",
          "--packets", "20", "--seed", "1"])
    taus = [float(line.split(",")[0]) for line in out.read_text().strip().split("\n")[1:]]
    assert taus == [-1.0, 0.0, 1.0]


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    rc = main(["sweep", "--out", str(tmp_path / "x.csv"), "--packets", "10"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_partial_grid_flags_rejected(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path / "x.csv"),
               "--tau-start", "0", "--tau-stop", "1"])
    assert rc == 2


def test_sweep_unwritable_path(tmp_path):
    rc = main(["sweep", "--out", "/nonexistent-dir/x.csv",
               "--tau-start", "0", "--tau-stop", "0", "--tau-step", "1",
               "--sir-start", "0", "--sir-stop", "0", "--sir-step", "1",
               "--packets", "10"])
    assert rc == 2


def test_sweep_config_file(tmp_path):
    cfg = ExperimentConfig(packets_per_point=25, tau_grid=(0.0,),
                           sir_db_grid=(0.0, 5.0), master_seed=8)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_sweep_config_file_bad_key(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"unknown_field": 3}))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_byte_identical_reruns(tmp_path):
    args = ["sweep", "--coding", "hdd", "--payload-mode", "identical",
            "--tau-start", "0", "--tau-stop", "0.2", "--tau-step", "0.1",
            "--sir-start", "-10", "--sir-stop", "0", "--sir-step", "5",
            "--packets", "60", "--seed", "21"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_zone_schema_and_values(tmp_path):
    out = tmp_path / "zone.csv"
    rc = main(["zone", "--out", str(out), "--sir-db", "-40",
               "--coding", "uncoded", "--tau-start", "0", "--tau-stop", "0",
               "--tau-step", "1", "--phi-points", "4", "--packets", "50",
               "--seed", "4"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau_over_T,phi_c,ber_or_ser"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == 0.0  # interferer received cleanly at (0, 0)


def test_zone_preset(tmp_path):
    out = tmp_path / "z.csv"
    rc = main(["zone", "--preset", "fig11b", "--packets", "10",
               "--tau-start", "0", "--tau-stop", "0.1", "--tau-step", "0.1",
               "--phi-points", "2", "--out", str(out), "--seed", "1"])
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == 5


def test_ninterf_table(tmp_path):
    out = tmp_path / "n.csv"
    rc = main(["ninterf", "--max-n", "2", "--packets", "60",
               "--out", str(out), "--seed", "6"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,layout,payload_mode,prr_mean,prr_std"
    assert len(lines) == 1 + 2 * 2 * 2
    assert main(["ninterf", "--max-n", "0", "--out", str(out)]) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


_ONE_SIR = ["--sir-start", "0", "--sir-stop", "0", "--sir-step", "1", "--packets", "10"]
_ONE_POINT = ["--tau-start", "0", "--tau-stop", "0", "--tau-step", "1", *_ONE_SIR]


@pytest.mark.parametrize("config, argv", [
    ({"packets_per_point": "10"}, []),
    ({"packets_per_point": 10.5}, []),
    ({"tau_grid": [0.0, float("nan")], "sir_db_grid": [0.0]}, []),
    ({"tau_grid": [True]}, []),
    ({"sir_db_grid": [-7000.0]}, []),
    ({"sir_db_grid": [7000.0], "target": "interferer"}, []),
    ([5], []),
    (None, ["sweep", "--noise-std", "nan", *_ONE_POINT]),
    (None, ["sweep", "--phi-mode", "fixed", "--phi-c", "inf", *_ONE_POINT]),
    (None, ["zone", "--sir-db", "nan", "--packets", "10"]),
    (None, ["zone", "--sir-db", "-7000", "--packets", "10"]),
    (None, ["validate", "--steps", "10"]),
    (None, ["validate", "--tolerance", "nan", "--draws", "1"]),
    (None, ["sweep", "--tau-start", "0", "--tau-stop", "1", "--tau-step", "nan", *_ONE_SIR]),
    (None, ["sweep", "--tau-start", "0", "--tau-stop", "inf", "--tau-step", "1", *_ONE_SIR]),
    (None, ["sweep", "--tau-start", "0", "--tau-stop", "1e6", "--tau-step", "1e-9",
            *_ONE_SIR]),
    (None, ["zone", "--phi-points", "1000000", "--packets", "10"]),
    (None, ["validate", "--steps", "100000000000000000000"]),
    ({"tau_grid": [i / 1000 for i in range(1025)], "packets_per_point": 10}, []),
    (None, ["validate", "--passband", "--carrier-multiple", "100000000000000000000",
            "--draws", "1"]),
], ids=["packets-str", "packets-float", "tau-nan", "tau-bool", "sir-overflow", "sir-underflow",
        "config-not-object", "noise-nan", "phi-inf", "zone-sir-nan", "zone-sir-overflow",
        "validate-steps", "validate-tolerance-nan", "tau-step-nan", "tau-stop-inf",
        "grid-oversize", "zone-phi-points-oversize", "validate-steps-huge",
        "config-grid-oversize", "validate-carrier-huge"])
def test_bad_input_is_config_error(tmp_path, capsys, config, argv):
    out = ["--out", str(tmp_path / "x.csv")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        if isinstance(config, dict):
            config = {"tau_grid": [0.0], "sir_db_grid": [0.0], **config}
        cfg_path.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(cfg_path), *out]
    elif argv[0] != "validate":
        argv = [*argv, *out]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _die(args):
    os._exit(7)


def test_worker_crash_is_one_line_and_exit_3(tmp_path, capfd, monkeypatch):
    # forked workers inherit the patched task, so every pool task kills its worker
    monkeypatch.setattr(montecarlo, "_sweep_task", _die)
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--threads", "2", "--tau-start", "0", "--tau-stop", "1",
               "--tau-step", "1", *_ONE_SIR, "--out", str(out)])
    err = capfd.readouterr().err
    assert rc == 3
    assert err.startswith("worker error: ") and err.count("\n") == 1
    assert not out.exists()
