"""Config file format, presets, overrides, and the CLI front end."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debyeflow import cli, experiments, limit
from debyeflow.cli import main as cli_main
from debyeflow.config_io import (
    ConfigError,
    ExperimentConfig,
    LAYER_PRESETS,
    PRESET_NAMES,
    evaluate_trace,
    format_trace,
    parse_config,
    parse_config_text,
    parse_trace,
    preset_defaults,
    serialize_config,
)
from debyeflow.npns import StepError


def parse(text):
    return parse_config_text(textwrap.dedent(text))


# ---------------------------------------------------------------------------
# trace expressions


def test_trace_constant_and_single_mode():
    assert parse_trace("2.0") == (2.0, 0.0, "", 0)
    assert parse_trace(" 1.5 + 0.25*cos(2*pi*x) ") == (1.5, 0.25, "cos", 2)
    assert parse_trace("3 + 1e-1 * sin( 4 * pi * x )") == (3.0, 0.1, "sin", 4)


def test_trace_rejects_odd_mode_and_junk():
    with pytest.raises(ConfigError, match="odd"):
        parse_trace("2.0 + 0.5*cos(3*pi*x)")
    for bad in ("2.0 + cos(2*pi*x)", "sin(2*pi*x)", "2,0", "two"):
        with pytest.raises(ConfigError, match="expected a constant"):
            parse_trace(bad)


def test_trace_format_round_trip():
    for text in ("2.0", "1.5 + 0.25*cos(2*pi*x)", "2.0 + -0.5*sin(6*pi*x)"):
        spec = parse_trace(text)
        assert parse_trace(format_trace(spec)) == spec, f"not canonical: {text!r}"


def test_trace_evaluation():
    x = np.linspace(0.0, 1.0, 9, endpoint=False)
    assert np.array_equal(evaluate_trace("2.0", x), np.full(9, 2.0))
    got = evaluate_trace("1.0 + 0.5*cos(2*pi*x)", x)
    assert np.allclose(got, 1.0 + 0.5 * np.cos(2 * np.pi * x), rtol=1e-15)


# ---------------------------------------------------------------------------
# parsing


def test_minimal_file_applies_preset_defaults():
    cfg = parse("""\
        [sweep]
        preset = thm1_rate
    """)
    assert cfg == preset_defaults("thm1_rate")
    assert cfg.ny == 2048 and cfg.t_end == 0.1, "thm1 fixture defaults"


def test_empty_text_is_the_custom_preset():
    assert parse("") == preset_defaults("custom")


def test_comments_and_blank_lines_are_ignored():
    cfg = parse("""\
        # leading comment
        [params]
        ; alt comment style
        eps = 0.25  # inline
        [grid]

        ny = 65
    """)
    assert cfg.eps == 0.25 and cfg.ny == 65


def test_unknown_key_is_an_error_naming_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'epz'"):
        parse("""\
            [params]
            epz = 0.1
        """)


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[physics\]"):
        parse("""\
            [physics]
            eps = 0.1
        """)


def test_malformed_value_names_key_line_and_type():
    with pytest.raises(ConfigError, match=r"line 2: ny: expected int, got '12.5'"):
        parse("""\
            [grid]
            ny = 12.5
        """)
    with pytest.raises(ConfigError, match=r"line 2: strict: expected bool \(true\|false\), got 'yes'"):
        parse("""\
            [output]
            strict = yes
        """)
    with pytest.raises(ConfigError, match=r"line 2: eps_list: expected comma-separated floats"):
        parse("""\
            [sweep]
            eps_list = 0.5, x
        """)
    with pytest.raises(ConfigError, match=r"line 3: preset: expected one of \('thm1_rate', .*'custom'\), got 'thm3'"):
        parse("""\
            [sweep]
            eps_list = 0.5, 0.25
            preset = thm3
        """)


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'eps' \(first set on line 2\)"):
        parse("""\
            [params]
            eps = 0.1
            eps = 0.2
        """)


def test_key_before_section_is_an_error():
    with pytest.raises(ConfigError, match="key before any"):
        parse("eps = 0.1")


def test_positive_z2_is_rejected():
    with pytest.raises(ConfigError, match=r"z1 > 0 > z2, got z1=1.0, z2=1.0"):
        parse("""\
            [params]
            z2 = 1.0
        """)


def test_validation_failures_surface_with_context():
    with pytest.raises(ConfigError, match="D1 >= D2 > 0"):
        parse("""\
            [params]
            D1 = 1.0
            D2 = 2.0
        """)
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse("""\
            [sweep]
            eps_list = 0.1, 0.2
        """)
    with pytest.raises(ConfigError, match="auto grading"):
        parse("""\
            [grid]
            ny = 0
        """)
    with pytest.raises(ConfigError, match=r"ny >= 8/eps_min"):
        parse("""\
            [sweep]
            preset = layer_profile
            [grid]
            ny = 65
        """)
    with pytest.raises(ConfigError, match="must stay positive"):
        parse("""\
            [boundary]
            gamma1_lower = 1.0 + 2.0*cos(2*pi*x)
            [grid]
            d = 2
            nx = 8
        """)


def test_nonconstant_trace_needs_d2():
    with pytest.raises(ConfigError, match="constant when d = 1"):
        parse("""\
            [boundary]
            w_upper = 0.1 + 0.05*sin(2*pi*x)
        """)
    with pytest.raises(ConfigError, match="w_upper: boundary traces must be constant when d = 1"):
        ExperimentConfig(w_upper="0.1 + 0.05*sin(2*pi*x)")
    cfg = parse("""\
        [boundary]
        w_upper = 0.1 + 0.05*sin(2*pi*x)
        [grid]
        d = 2
        nx = 8
        ny = 33
    """)
    assert parse_trace(cfg.w_upper) == (0.1, 0.05, "sin", 2)


def test_parse_config_prefixes_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[params]\nz2 = 3\n")
    with pytest.raises(ConfigError, match="exp.cfg"):
        parse_config(path)


# ---------------------------------------------------------------------------
# serialization and hashing


def test_serialize_round_trips_every_preset():
    for preset in PRESET_NAMES:
        cfg = preset_defaults(preset)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg, f"{preset} defaults did not round-trip"


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1e-4, 0.5),
    ny=st.integers(9, 600),
    dt=st.floats(1e-6, 0.1),
    t_end=st.floats(1e-4, 5.0),
    ic_bump=st.floats(0.0, 3.0),
    n_eps=st.integers(1, 5),
    strict=st.booleans(),
)
def test_round_trip_property(eps, ny, dt, t_end, ic_bump, n_eps, strict):
    eps_list = tuple(eps * 0.5**k for k in range(n_eps))
    cfg = ExperimentConfig(
        eps=eps, ny=ny, dt=dt, t_end=t_end, ic_bump=ic_bump,
        eps_list=eps_list, strict=strict,
    )
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg, f"round-trip drift: {again} != {cfg}"
    assert again.hash() == cfg.hash()


def test_hash_is_short_stable_and_field_sensitive():
    cfg = preset_defaults("thm1_rate")
    h = cfg.hash()
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert preset_defaults("thm1_rate").hash() == h
    assert replace(cfg, eps=0.1).hash() != h, "hash must react to field changes"


def test_hash_ignores_output_directory():
    # rerunning the same experiment into another directory keeps its identity
    cfg = preset_defaults("custom")
    moved = replace(cfg, output_dir="elsewhere/run7")
    assert moved.hash() == cfg.hash(), "output_dir must not enter the hash"
    assert serialize_config(moved) != serialize_config(cfg), "canonical text stays faithful"


# the artifact rows of every shipped preset carry these hashes, in this
# preset order (the CLI's choices and the digest script's line order)
PRESET_HASHES = [
    ("thm1_rate", "3e2a4f514d58"),
    ("thm51_rate", "190f0dd50f1b"),
    ("energy_identity", "158eda5bb5fb"),
    ("layer_profile", "673a90f4aaa1"),
    ("initial_layer_decay", "8e7a18fab8a7"),
    ("custom", "64fc6677bfce"),
]


def test_preset_hashes_are_pinned():
    assert [(p, preset_defaults(p).hash()) for p in PRESET_NAMES] == PRESET_HASHES


# ---------------------------------------------------------------------------
# presets


def test_an_invalid_config_cannot_be_built():
    # the checks run when a config is built, directly or by replace
    with pytest.raises(ConfigError, match="dt must be positive, got -1.0"):
        replace(preset_defaults("thm1_rate"), dt=-1.0)
    with pytest.raises(ConfigError, match="preset energy_identity runs at a single eps"):
        ExperimentConfig(preset="energy_identity")


def test_preset_table_is_complete_and_valid():
    for preset in PRESET_NAMES:
        cfg = preset_defaults(preset)
        assert cfg.preset == preset
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_defaults("thm3_rate")


def test_layer_presets_default_to_graded_grids():
    for preset in LAYER_PRESETS:
        assert preset_defaults(preset).ny == 0, f"{preset} should auto-grade ny"


# ---------------------------------------------------------------------------
# cli


def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_requires_config_or_preset(capsys):
    assert run_cli("sweep") == 2
    assert "one of --config or --preset" in capsys.readouterr().err


def test_cli_rejects_bad_eps(capsys):
    assert run_cli("sweep", "--preset", "custom", "--eps", "0.1,zap") == 2
    assert "comma list of floats" in capsys.readouterr().err


def test_cli_rejects_an_empty_eps(tmp_path, capsys):
    # an empty --eps is a bad list, not an absent flag: exit 2, nothing written
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--preset", "energy_identity", "--eps", "", "--out", str(out)) == 2
    assert "--eps: expected a comma list of floats, got ''" in capsys.readouterr().err
    assert not out.exists()


def _capture_runs(monkeypatch) -> list:
    runs = []

    def fake_run(cfg, parallel=True):
        runs.append(cfg)
        return {"pass": True, "slope": None, "window": None, "paths": {}}

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return runs


def test_cli_overrides_reach_the_run(tmp_path, monkeypatch, capsys):
    # --eps, --out and --strict are applied over the preset and re-validated
    runs = _capture_runs(monkeypatch)
    out = str(tmp_path / "elsewhere")
    assert run_cli("sweep", "--preset", "thm1_rate", "--eps", "0.25,0.125", "--out", out, "--strict") == 0
    assert runs == [replace(preset_defaults("thm1_rate"), eps_list=(0.25, 0.125), output_dir=out, strict=True)]
    assert run_cli("sweep", "--preset", "thm1_rate", "--eps", "0.125,0.125") == 2
    assert "strictly decreasing" in capsys.readouterr().err
    assert len(runs) == 1


@pytest.mark.parametrize("preset", ["energy_identity", "initial_layer_decay"])
def test_cli_single_eps_presets_take_one_eps(tmp_path, monkeypatch, capsys, preset):
    # these presets run at cfg.eps: --eps sets it for sweep and run alike,
    # and a second value has no run to go to
    runs = _capture_runs(monkeypatch)
    for command in ("sweep", "run"):
        assert run_cli(command, "--preset", preset, "--eps", "0.0625") == 0
        assert (runs[-1].eps, runs[-1].eps_list) == (0.0625, (0.0625,))
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--preset", preset, "--eps", "0.125,0.0625", "--out", str(out)) == 2
    assert "runs at a single eps" in capsys.readouterr().err
    assert len(runs) == 2 and not out.exists()


@pytest.mark.parametrize("preset", ["energy_identity", "initial_layer_decay"])
def test_cli_run_and_sweep_take_a_files_eps(tmp_path, monkeypatch, preset):
    # a file's eps is the one eps of these presets, for run as for sweep
    runs = _capture_runs(monkeypatch)
    config = tmp_path / "exp.cfg"
    config.write_text(f"[sweep]\npreset = {preset}\n[params]\neps = 0.0625\n")
    for command in ("sweep", "run"):
        assert run_cli(command, "--config", str(config)) == 0
    assert [r.eps for r in runs] == [0.0625, 0.0625]
    assert runs[0] == runs[1], "run and sweep run the same config"


@pytest.mark.parametrize("preset", ["energy_identity", "initial_layer_decay"])
def test_single_eps_presets_run_at_a_files_eps_list(tmp_path, monkeypatch, capsys, preset):
    # a file's eps_list sets the one eps; one that also sets a different
    # eps is rejected naming both values, never run at either silently
    cfg = parse_config_text(f"[sweep]\npreset = {preset}\neps_list = 0.0625\n")
    assert (cfg.eps, cfg.eps_list) == (0.0625, (0.0625,))
    runs = _capture_runs(monkeypatch)
    config = tmp_path / "exp.cfg"
    config.write_text(f"[sweep]\npreset = {preset}\neps_list = 0.0625\n")
    for command in ("sweep", "run"):
        assert run_cli(command, "--config", str(config)) == 0
    assert [r.eps for r in runs] == [0.0625, 0.0625]
    config.write_text(f"[sweep]\npreset = {preset}\neps_list = 0.0625\n[params]\neps = 0.125\n")
    assert run_cli("run", "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert "runs at a single eps" in err and "0.0625" in err and "0.125" in err
    with pytest.raises(ConfigError, match="single eps"):
        replace(preset_defaults(preset), eps=0.0625)
    assert len(runs) == 2


def test_energy_preset_rejects_save_every_other_than_one(tmp_path, capsys):
    # the energy study reads every step; a file's save_every = 4 used to
    # parse, enter the config hash and then be overridden to 1
    with pytest.raises(ConfigError, match="save_every = 4"):
        parse_config_text("[sweep]\npreset = energy_identity\n[time]\nsave_every = 4\n")
    with pytest.raises(ConfigError, match="saves every step"):
        replace(preset_defaults("energy_identity"), save_every=2)
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = energy_identity\n[time]\nsave_every = 4\n")
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 2
    assert "save_every" in capsys.readouterr().err and not out.exists()


def test_cli_rejects_a_removed_preset(tmp_path, capsys):
    # thm2_h2_rate's claim (c04) is graded on thm51_rate's sweep: the name
    # is gone, and both routes exit 2 naming the presets there are
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--preset", "thm2_h2_rate")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "thm2_h2_rate" in err and all(name in err for name in PRESET_NAMES)
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm2_h2_rate\n")
    assert run_cli("sweep", "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert "preset: expected one of" in err and all(name in err for name in PRESET_NAMES)


def test_cli_sweep_runs_initial_layer_decay_at_the_given_eps(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = initial_layer_decay\n[grid]\nny = 33\n[time]\ndt = 0.01\nt_end = 0.3\n")
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--config", str(config), "--eps", "0.0625", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["per_epsilon"][0]["epsilon"] == 0.0625


@pytest.mark.parametrize(
    "text, eps",
    [
        ("[time]\ndt = nan\n", None),
        ("[params]\nz1 = nan\n", None),
        ("[params]\nic_bump = nan\n", None),
        ("[sweep]\neps_list = 0.25, nan\n", None),
        ("[time]\nt_end = inf\n", None),
        ("", "nan"),
    ],
    ids=["dt", "z1", "ic_bump", "eps_list", "t_end", "eps_flag"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, text, eps):
    # NaN passes every sign check and inf overflows the step count: both
    # are config errors, exit 2 before anything is written
    config = tmp_path / "exp.cfg"
    config.write_text("[grid]\nny = 33\n" + text)
    out = tmp_path / "artifacts"
    flags = ("--eps", eps) if eps else ()
    assert run_cli("sweep", "--config", str(config), *flags, "--out", str(out), "--serial") == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_missing_sweep(tmp_path, capsys):
    assert run_cli("report", "--preset", "thm1_rate", "--out", str(tmp_path)) == 2
    assert f"{tmp_path / 'sweep.csv'}: no sweep.csv" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["energy_identity", "initial_layer_decay"])
def test_cli_report_of_a_non_rate_preset_names_the_rule(tmp_path, capsys, preset):
    # sweep writes no sweep.csv for these presets, so "run `sweep` first"
    # would be wrong advice: the error says refit is for rate presets
    assert run_cli("report", "--preset", preset, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "refit only applies to rate presets" in err and "sweep.csv" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, checks",
    [(("sweep", "--config", "F"), 1), (("sweep", "--preset", "thm1_rate"), 1), (("run", "--config", "F"), 2)],
    ids=["sweep_config", "sweep_preset", "run_config"],
)
def test_cli_checks_each_config_once(tmp_path, monkeypatch, argv, checks):
    # a config is checked when it is built: the file's (or preset's)
    # config, then run's copy at its first eps; nothing checks it again
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm1_rate\n[grid]\nny = 129\n")
    runs = _capture_runs(monkeypatch)
    calls = []
    post_init = ExperimentConfig.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    assert run_cli(*(str(config) if a == "F" else a for a in argv)) == 0
    assert len(calls) == checks and runs[-1] is calls[-1]
    runs[-1].hash()
    assert len(calls) == checks, "hash() builds no second config"


def test_cli_rejects_config_with_preset(tmp_path, capsys):
    # the two flags cannot be combined, even when the file holds nothing
    # but its preset's defaults: exit 2, and nothing is written
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = custom\n")
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--config", str(config), "--preset", "thm1_rate", "--out", str(out)) == 2
    assert "one of --config or --preset" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_eps_graded_below_the_ny_floor(tmp_path, capsys):
    # thm51_rate grades ny = ceil(8/eps) + 1, which is 5 at eps = 2: a
    # config error that names the eps, not a solver abort with error.json
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--preset", "thm51_rate", "--eps", "2.0,1.0,0.5", "--out", str(out)) == 2
    assert "at eps=2.0: need at least 8 wall-normal nodes, got ny=5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key, value",
    [
        ("[params]\nz1 = -0.75\n", "z1", "-0.75"),
        ("[params]\nz2 = 0.5\n", "z2", "0.5"),
        ("[params]\nD1 = 0.75\n", "D1", "0.75"),
        ("[params]\nnu = -0.25\n", "nu", "-0.25"),
        ("[grid]\nd = 3\n", "d", "3"),
        ("[grid]\nnx = 2\n", "nx", "2"),
        ("[grid]\nd = 2\nnx = 6\n", "nx", "6"),
        ("[grid]\nny = 5\n", "ny", "5"),
    ],
    ids=["z1", "z2", "D1_below_D2", "nu", "d", "nx_d1", "nx_d2", "ny"],
)
def test_cli_rejects_a_bad_params_or_grid_value(tmp_path, capsys, text, key, value):
    # the rules of Params and ChannelGrid, met in a config: exit 2, nothing
    # written, and the message after the file name names the key and value
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = custom\n" + text)
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--config", str(config), "--out", str(out), "--serial") == 2
    message = capsys.readouterr().err.partition("invalid config:")[2]
    assert re.search(rf"\b{key}\b", message), message
    assert re.search(rf"(?<![\d.-]){re.escape(value)}(?![\d.])", message), message
    assert not out.exists()


@pytest.mark.parametrize(
    "text, name",
    [("ic_bump = -3.0\n", "c1_lim0"), ("ic_eps_amp = -40.0\n", "c1_eps0")],
    ids=["ic_bump", "ic_eps_amp"],
)
def test_cli_rejects_a_non_positive_initial_concentration(tmp_path, capsys, text, name):
    # the initial data are read off the config, so a non-positive node is
    # a config error, exit 2 with nothing written, not a solver abort; at
    # eps = 0.125 an ic_eps_amp of -40 leaves c1_lim0 positive
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = custom\n[params]\n" + text)
    out = tmp_path / "artifacts"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"initial concentration {name} must be positive" in err and "solver abort" not in err
    assert not out.exists()


def test_cli_run_sweep_report_cycle(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    config = tmp_path / "exp.cfg"
    config.write_text(textwrap.dedent("""\
        [grid]
        ny = 65
        [time]
        dt = 0.002
        t_end = 0.01
        [sweep]
        eps_list = 0.25, 0.125, 0.0625
    """))

    with pytest.warns(UserWarning, match="insufficient points"):
        assert run_cli("run", "--config", str(config), "--out", out) == 0
    report = json.loads((tmp_path / "artifacts" / "report.json").read_text())
    assert report["slope"] is None and report["pass"] is False
    assert report["warnings"][0]["code"] == "insufficient_points_for_fit"

    assert run_cli("sweep", "--config", str(config), "--out", out, "--serial") == 0
    report = json.loads((tmp_path / "artifacts" / "report.json").read_text())
    assert report["pass"] is True and 0.5 <= report["slope"] <= 1.5
    sweep_lines = (tmp_path / "artifacts" / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 4, "header plus one row per eps"

    assert run_cli("report", "--config", str(config), "--out", out) == 0
    refit = json.loads((tmp_path / "artifacts" / "report.json").read_text())
    assert np.isclose(refit["slope"], report["slope"], rtol=1e-12), (
        f"refit slope {refit['slope']} drifted from {report['slope']}"
    )
    captured = capsys.readouterr().out
    assert "pass=True" in captured


THM51_EPS = (0.125, 0.0625, 0.03125, 0.015625)


def write_thm51_sweep(out: Path, cs_slope: float, h2: list[float]) -> None:
    """A synthetic thm51_rate sweep.csv holding both graded metrics: the
    composite-gradient error an exact power law in eps, the H2 errors given."""
    out.mkdir()
    rows = [f"{e},{e ** cs_slope!r},{v!r},abc" for e, v in zip(THM51_EPS, h2)]
    header = "epsilon,err_cS_grad_LinfL2,err_c_LinfH2,config_hash"
    (out / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_report_honours_strict(tmp_path, capsys, how):
    # c03 in its window, and a monotone H2 error of slope 1.0, outside
    # c04's window: non-strict grading downgrades the miss to a warning,
    # strict fails it
    out = tmp_path / "artifacts"
    write_thm51_sweep(out, cs_slope=1.5, h2=list(THM51_EPS))
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm51_rate\n[output]\nstrict = true\n")
    strict = ("--preset", "thm51_rate", "--strict") if how == "flag" else ("--config", str(config))

    assert run_cli("report", *strict, "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    c03, c04 = report["claims"]
    assert (c03["claim"], c03["metric"], c03["pass"]) == ("c03", "err_cS_grad_LinfL2", True)
    assert (c04["claim"], c04["metric"], c04["rule"]) == ("c04", "err_c_LinfH2", "monotone")
    assert math.isclose(c04["slope"], 1.0) and c04["window"] == [0.3, 0.7] and c04["pass"] is False
    assert math.isclose(report["slope"], 1.5) and report["window"] == [1.25, 1.75]
    assert report["pass"] is False
    assert report["warnings"] == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("pass=True  (c03, err_cS_grad_LinfL2)")
    assert lines[1].endswith("pass=False  (c04, err_c_LinfH2)")

    assert run_cli("report", "--preset", "thm51_rate", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True and [c["pass"] for c in report["claims"]] == [True, True]
    assert report["warnings"][0]["code"] == "slope_outside_window"
    assert report["warnings"][0]["claim"] == "c04"
    assert "downgraded to a warning" in report["warnings"][0]["message"]


@pytest.mark.parametrize(
    "cs_slope, h2, strict, verdicts",
    [
        (1.0, [e ** 0.5 for e in THM51_EPS], False, [False, True]),
        (1.5, [0.35, 0.25, 0.26, 0.125], False, [True, False]),
        (1.5, [0.35, 0.25, 0.26, 0.125], True, [True, False]),
    ],
    ids=["c03_misses", "h2_rises_once", "h2_rises_once_strict"],
)
def test_report_fails_when_any_claim_fails(tmp_path, cs_slope, h2, strict, verdicts):
    # c03 out of its window, or an H2 error that rises once though its
    # slope sits in c04's window: that claim fails, and so does the
    # report, whose top-level fit stays c03's
    out = tmp_path / "artifacts"
    write_thm51_sweep(out, cs_slope, h2)
    cfg = replace(preset_defaults("thm51_rate"), strict=strict)
    report = experiments.refit_report(cfg, out / "sweep.csv", out / "report.json")
    assert [(c["claim"], c["pass"]) for c in report["claims"]] == list(zip(("c03", "c04"), verdicts))
    assert 0.3 <= report["claims"][1]["slope"] <= 0.7
    assert math.isclose(report["slope"], cs_slope) and report["pass"] is False
    assert report["warnings"] == []


@pytest.mark.parametrize(
    "preset, text, message",
    [
        ("thm1_rate", "epsilon,err_c_LinfL2,config_hash\n", "sweep.csv: no sweep rows"),
        ("energy_identity", "epsilon,err_c_LinfL2,config_hash\n0.1,0.1,abc\n", "only applies to rate presets"),
        ("thm1_rate", "epsilon,err_c_LinfL2,config_hash\n0.1,0.2,abc\n0.05,zap,abc\n",
         "sweep.csv: row 2, column 'err_c_LinfL2': 'zap' is not a number"),
        ("thm1_rate", "epsilon,err_u_LinfL2,config_hash\n0.1,0.1,abc\n", "sweep.csv: no 'err_c_LinfL2' column"),
    ],
    ids=["no_rows", "not_a_rate_preset", "bad_cell", "no_headline_column"],
)
def test_cli_report_rejects_a_bad_sweep_csv(tmp_path, capsys, preset, text, message):
    # a sweep.csv that cannot be refit is a usage error: exit 2 with the
    # reason on stderr, no traceback and no report
    (tmp_path / "sweep.csv").write_text(text)
    assert run_cli("report", "--preset", preset, "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_cli_sweep_prints_a_missing_fit(tmp_path, capsys):
    # two eps give no fit: the report's slope is None and the summary line says so
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm1_rate\n[grid]\nny = 33\n[time]\nt_end = 0.005\n")
    with pytest.warns(UserWarning, match="insufficient points"):
        rc = run_cli("sweep", "--config", str(config), "--eps", "0.125,0.0625", "--serial",
                     "--out", str(tmp_path / "out"))
    assert rc == 0
    assert "thm1_rate: slope=n/a  window=[0.85, 1.15]  pass=False" in capsys.readouterr().out


def test_serial_runs_load_only_scipys_compiled_lapack_and_csr_modules(tmp_path):
    # a fresh interpreter: a serial d = 1 sweep loads nothing from scipy
    # but its compiled LAPACK wrapper, neither numpy.f2py nor the process
    # pool; a d = 2 run config loads the d = 2 solver in its set-up, which
    # adds scipy's compiled CSR kernels and no scipy package, and that run
    # completes without loading more; nor does a corner-layer solve
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm1_rate\n[grid]\nny = 129\n")
    script = textwrap.dedent(f"""
        import json, sys
        from dataclasses import replace
        from debyeflow.cli import main
        from debyeflow.config_io import preset_defaults
        from debyeflow.experiments import build_fixture, run_experiment

        names = ("scipy.sparse", "scipy.sparse.linalg", "numpy.f2py", "concurrent.futures.process",
                 "debyeflow.coupled2d")

        def loaded():
            return ([m for m in names if m in sys.modules],
                    sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

        rc = main(["sweep", "--config", {str(config)!r}, "--eps", "0.25,0.125", "--serial",
                   "--out", {str(tmp_path / "d1")!r}])
        after_1d = loaded()
        cfg = replace(preset_defaults("custom"), d=2, nx=4, ny=9, dt=1e-3, t_end=2e-3,
                      eps_list=(0.25, 0.125))
        fx = build_fixture(cfg, cfg.eps_list[0])
        after_config = loaded()
        report = run_experiment(cfg, out_dir={str(tmp_path / "d2")!r}, parallel=False)
        after_2d = loaded()
        import numpy as np
        from debyeflow.layers import clustered_xi_grid, solve_mixed_layer
        taus = np.linspace(0.0, 0.1, 3)
        solve_mixed_layer(0.1 * taus, -0.1 * taus, 2.0, 2.0, fx.run.params, clustered_xi_grid(20.0, 16), taus)
        after_mixed = loaded()
        print(json.dumps({{"rc": rc, "after_1d": after_1d, "after_config": after_config,
                          "after_2d": after_2d, "after_mixed": after_mixed,
                          "rows": len(report["per_epsilon"])}}))
    """)
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    assert result["after_1d"] == [[], ["scipy.linalg._flapack"]]
    compiled = ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]
    assert result["after_config"] == [["debyeflow.coupled2d"], compiled]
    assert result["after_2d"] == [["debyeflow.coupled2d"], compiled]
    assert result["after_mixed"] == [["debyeflow.coupled2d"], compiled]
    assert result["rows"] == 2


def test_cli_report_rebuilds_a_thm1_rate_report_byte_for_byte(tmp_path):
    # the refit carries every metric c01 and c02 grade, so a regraded
    # thm1_rate report is the run's report
    out = tmp_path / "artifacts"
    config = tmp_path / "exp.cfg"
    config.write_text("[sweep]\npreset = thm1_rate\n[grid]\nny = 129\n[time]\nt_end = 0.01\n")
    assert run_cli("sweep", "--config", str(config), "--out", str(out), "--serial") == 0
    ran = (out / "report.json").read_bytes()
    (out / "report.json").unlink()
    assert run_cli("report", "--config", str(config), "--out", str(out)) == 0
    assert (out / "report.json").read_bytes() == ran
    report = json.loads(ran)
    assert len(report["per_epsilon"]) == 5
    for entry in report["per_epsilon"]:
        assert {"err_c_LinfL2", "err_grad_c_L2L2", "err_rho_over_eps_L2L2",
                "eps_grad_psi_LinfL2", "ny", "dt"} <= set(entry)
        assert "config_hash" not in entry and "wall_clock_s" not in entry


def _abort_in_worker(cfg, eps, limit):
    raise StepError(0.125, "forced abort", {"min_c1": -1.0, "max_c1": 2.0, "min_c2": 1.0, "max_c2": 2.0}, eps)


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched metric function reaches pool workers only through fork",
)
def test_cli_pooled_abort_writes_error_payload(tmp_path, monkeypatch, capsys):
    # the abort is raised inside a pool worker, so it must survive the
    # pickle round trip back to the parent to become exit code 3
    monkeypatch.setattr(experiments, "_rate_metrics", _abort_in_worker)
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--preset", "custom", "--eps", "0.25,0.125", "--out", str(out)) == 3
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "StepError"
    assert payload["t"] == 0.125
    assert payload["epsilon"] == 0.25, "the first eps of the sweep aborts first"
    assert payload["extrema"]["min_c1"] == -1.0
    assert not (out / "report.json").exists()
    assert "solver abort" in capsys.readouterr().err


def test_cli_limit_nan_abort_writes_error_payload(tmp_path, monkeypatch, capsys):
    # a NaN made by the limit's diffusion solve aborts the sweep as a
    # StepError of the first eps that shares the limit run
    original = limit._implicit_diffusion

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        out[0, 7] = np.nan
        return out

    monkeypatch.setattr(limit, "_implicit_diffusion", poisoned)
    config = tmp_path / "exp.cfg"
    config.write_text("[grid]\nny = 33\n[time]\ndt = 0.002\nt_end = 0.01\n")
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--config", str(config), "--eps", "0.25,0.125",
                   "--out", str(out), "--serial") == 3
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "StepError"
    assert payload["epsilon"] == 0.25
    assert payload["t"] == 0.002
    assert all(np.isfinite(v) for v in payload["extrema"].values())
    assert not (out / "report.json").exists()
    assert "solver abort" in capsys.readouterr().err


def _abort_energy_run(cfg, fx):
    # t = the run's dt tells the four energy jobs apart
    raise StepError(fx.run.dt, "forced abort", {"min_c1": -1.0, "max_c1": 2.0, "min_c2": 1.0, "max_c2": 2.0},
                    fx.run.params.eps)


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched run function reaches pool workers only through fork",
)
def test_cli_pooled_energy_abort_writes_error_payload(tmp_path, monkeypatch, capsys):
    # every energy job aborts in its pool worker; the first submitted, the
    # finest dt level, is the one reported
    monkeypatch.setattr(experiments, "_run_eps", _abort_energy_run)
    out = tmp_path / "artifacts"
    assert run_cli("sweep", "--preset", "energy_identity", "--out", str(out)) == 3
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "StepError"
    assert payload["t"] == preset_defaults("energy_identity").dt / 4
    assert payload["epsilon"] == preset_defaults("energy_identity").eps
    assert payload["extrema"]["min_c1"] == -1.0
    assert not (out / "report.json").exists() and not (out / "diag.csv").exists()
    assert "solver abort" in capsys.readouterr().err


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "debyeflow.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("run", "sweep", "report"):
        assert sub in proc.stdout
