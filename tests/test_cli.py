import configparser
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hypokin import cli
from hypokin.errors import ConfigError
from hypokin.fields import read_gfd
from hypokin.scenario import load_scenario, preset_path

TINY_CONFIG = """
[model]
d = 1
B = 0 0  1 0

[grid]
points_per_dim = 48 48

[drift]
beta = 0.3
seed = 5
amplitude = 0.25
modes_per_shell = 4
mollify = 4

[fp]
epsilon = 0.2
n_t = 9
u0_sigmas = 0.7 3.0

[simulation]
particles = 4000
dt = 1e-2
checkpoints = 0.25 0.5

[martingale]
particles = 3000
windows = 0.2 0.4
n_sources = 1

[run]
T = 0.5
seed = 1
"""


@pytest.fixture()
def tiny_config(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CONFIG)
    return str(p)


def test_cli_import_does_not_load_ndimage():
    # the interpolator imports scipy.ndimage on first use; a top-level
    # import would slow every CLI start-up
    code = ("import hypokin.cli, sys; "
            "sys.exit('scipy.ndimage' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0


def test_presets_parse():
    for name in ("kinetic-langevin", "chain-3"):
        scn = load_scenario(preset_path(name))
        model = scn.build_model()
        assert model.hypoelliptic


def test_tracer_installs_on_every_target():
    # perfbench/tracing.py wraps solver functions and methods by name: each
    # target must be replaced on install and restored on uninstall, so a
    # rename or a dropped method fails here rather than in a traced run
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def owner_and_name(mod_name, attr):
        owner = importlib.import_module(f"hypokin.{mod_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = owner.__dict__[cls_name]
        return owner, attr

    targets = [owner_and_name(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    originals = [owner.__dict__[name] for owner, name in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(targets, originals):
            assert owner.__dict__[name] is not original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(targets, originals):
        assert owner.__dict__[name] is original, name


@pytest.mark.parametrize("workload",
                         ["fp-kinetic", "zvonkin-ladder", "cli-validate"])
def test_benchmark_op_passes_its_checks(workload, tmp_path, monkeypatch):
    # two ops of each perfbench workload at seed 0 on one set-up, with the
    # worker's own set-up, op and output checks: a failed check here is a
    # failed benchmark op, and the second op, which reads the memo the
    # first one filled, must give the same digest
    import importlib.util

    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))      # the worker imports tracing
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    config = str(tmp_path / "config.cfg")
    worker.write_config(worker.inputs_of(workload, 0), config)
    setup, op = worker.OPS[workload]
    inputs = setup(config, str(tmp_path))
    digests = []
    for _ in range(2):
        _, failures, digest, _ = worker.run_op(op, inputs)
        assert failures == []
        digests.append(digest)
    assert digests[0] is not None
    assert digests[1] == digests[0]


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_path("no-such-preset")


def test_invalid_beta_message(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(TINY_CONFIG.replace("beta = 0.3", "beta = 0.6"))
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "beta must lie in (0, 1/2)" in str(err.value)


def test_missing_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[model]\nd = 1\nB = 0 0 1 0\n")
    with pytest.raises(ConfigError) as err:
        load_scenario(str(p))
    assert "[grid]" in str(err.value)


def test_exit_codes(tiny_config, tmp_path):
    out = str(tmp_path / "o1")
    assert cli.main(["solve-fp", "--config", tiny_config, "--out", out]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("beta = 0.3", "beta = 0.9"))
    assert cli.main(["solve-fp", "--config", str(bad),
                     "--out", str(tmp_path / "o2")]) == 2
    # numerical failure: absurd drift with no iteration budget
    div = tmp_path / "div.cfg"
    div.write_text(TINY_CONFIG
                   .replace("amplitude = 0.25", "amplitude = 60.0")
                   .replace("[fp]", "[fp]\nmax_iters = 3"))
    assert cli.main(["solve-fp", "--config", str(div),
                     "--out", str(tmp_path / "o3")]) == 3
    # a drift strong enough to drive the solved field negative (criterion 8)
    neg = tmp_path / "neg.cfg"
    neg.write_text(TINY_CONFIG.replace("amplitude = 0.25", "amplitude = 3.0"))
    assert cli.main(["solve-fp", "--config", str(neg),
                     "--out", str(tmp_path / "o5")]) == 3
    assert os.path.exists(tmp_path / "o5" / "conservation.csv")


@pytest.mark.parametrize("old, new, key, extra", [
    ("[model]\nd = 1", "[model]\nd = 5", "[model]", []),
    ("points_per_dim = 48 48", "points_per_dim = 47 48", "points_per_dim", []),
    ("points_per_dim = 48 48", "points_per_dim = 48 48 48", "points_per_dim",
     []),
    ("[grid]", "[grid]\nhalf_extents = 0 1", "half_extents", []),
    ("amplitude = 0.25", "amplitude = nan", "amplitude", []),
    ("amplitude = 0.25", "amplitude = inf", "amplitude", []),
    ("mollify = 4", "mollify = -3", "mollify", []),
    ("modes_per_shell = 4", "modes_per_shell = 0", "modes_per_shell", []),
    ("particles = 4000", "particles = 500", "particles", []),
    ("dt = 1e-2", "dt = -1e-2", "dt", []),
    ("n_sources = 1", "n_sources = 0", "n_sources", []),
    ("B = 0 0  1 0", "B = 1 0  1 0", "[model] B", []),
    ("", "", "[run] seed", ["--seed", "-5"]),
    ("particles = 3000", "particles = 0", "[martingale] particles", []),
    ("[run]", "[kolmogorov]\nlambda = -1\n\n[run]", "[kolmogorov] lambda",
     []),
    # n_t = 9 over T = 0.5: both windows snap to the mesh time 0.1875
    ("windows = 0.2 0.4", "windows = 0.2 0.2", "[martingale] windows", []),
    ("windows = 0.2 0.4", "windows = 0.2 0.21", "[martingale] windows", []),
    ("[fp]", "[fp]\npicard_tol = 0", "[fp] picard_tol", []),
    ("[fp]", "[fp]\npicard_tol = -1", "[fp] picard_tol", []),
    ("[fp]", "[fp]\nrho = -50", "[fp] rho", []),
    # the band-limited Gaussian rings below -MASS_TOL on 48 points
    ("u0_sigmas = 0.7 3.0", "u0_sigmas = 0.4 3.0", "[fp] u0_sigmas", []),
    # no step at all, a step past T, a step past the first window end
    ("dt = 1e-2", "dt = 10", "[simulation] dt", []),
    ("dt = 1e-2", "dt = 0.6", "[simulation] dt", []),
    ("dt = 1e-2", "dt = 0.2", "[simulation] dt", []),
], ids=["d", "odd-points", "points-count", "half-extents", "nan", "inf",
        "mollify", "modes", "kde-particles", "dt", "n-sources",
        "B-not-strictly-triangular", "negative-seed-override",
        "martingale-particles", "kolmogorov-lambda-negative",
        "windows-repeated", "windows-one-mesh-time", "picard-tol-zero",
        "picard-tol-negative", "rho-negative", "u0-unresolved", "dt-no-step",
        "dt-past-T", "dt-past-first-window"])
def test_malformed_key_exits_2(old, new, key, extra, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace(old, new) if old else TINY_CONFIG)
    assert cli.main(["solve-fp", "--config", str(bad),
                     "--out", str(tmp_path / "o")] + extra) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("particles = 4000", "partciles = 4000", "[simulation] partciles"),
    ("[simulation]", "[simulation]\nenabled = false", "[simulation] enabled"),
    ("[fp]", "[fp]\nenabled = true", "[fp] enabled"),
    ("[simulation]", "[simulaton]", "[simulaton]"),
    ("[drift]", "[drift]\nchannels = 2", "[drift] channels"),
    ("[fp]", "[fp]\nscheme = linear", "[fp] scheme"),
    ("[fp]", "[fp]\nnonlinearity = constant", "[fp] nonlinearity"),
    ("[fp]", "[fp]\nnonlinearity_value = 2.0", "[fp] nonlinearity_value"),
    ("[run]", "[schauder]\ngamma = -0.4\n\n[run]", "[schauder]"),
    ("[drift]", "[drift]\nwindow = true", "[drift] window"),
], ids=["misspelt", "retired-simulation-enabled", "retired-fp-enabled",
        "unknown-section", "retired-drift-channels", "retired-fp-scheme",
        "retired-fp-nonlinearity", "retired-fp-nonlinearity-value",
        "retired-schauder-section", "retired-drift-window"])
def test_unknown_key_exits_2(old, new, key, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace(old, new))
    assert cli.main(["solve-fp", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_two_channel_drift_exits_2(tiny_config, tmp_path, capsys):
    # the drift has model.d channels; a second one is a config error on
    # every subcommand, from the key or from the file
    from hypokin.fields import write_gfd
    from hypokin.spectral import random_smooth_field

    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG.replace("[drift]", "[drift]\nchannels = 2"))
    for cmd in ("probe-schauder", "solve-fp", "solve-kolmogorov", "zvonkin",
                "simulate", "martingale-test", "full-validate"):
        assert cli.main([cmd, "--config", str(bad),
                         "--out", str(tmp_path / cmd)]) == 2
        assert "[drift] channels" in capsys.readouterr().err
    scn = load_scenario(tiny_config)
    grid = scn.build_grid(scn.build_model())
    write_gfd(str(tmp_path / "b2.gfd"), random_smooth_field(grid, 3, 2))
    bad.write_text(TINY_CONFIG.replace(
        "[drift]", "[drift]\nkind = file\npath = b2.gfd"))
    for cmd in ("solve-fp", "solve-kolmogorov", "zvonkin"):
        assert cli.main([cmd, "--config", str(bad),
                         "--out", str(tmp_path / cmd)]) == 2
        assert "[drift] path" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    start = text.index("```ini\n") + len("```ini\n")
    block = text[start:text.index("```", start)]
    example = tmp_path / "readme.cfg"
    example.write_text(block)
    scn = load_scenario(str(example))
    assert scn.build_model().hypoelliptic
    # the example sets or names every key the parser reads
    words = set(block.replace("=", " ").split())
    assert {k.split(".")[1] for k in scn.resolved} <= words


def test_manifest_determinism(tiny_config, tmp_path):
    import hashlib
    for cmd in ("solve-fp", "full-validate"):
        out1, out2 = str(tmp_path / cmd / "a"), str(tmp_path / cmd / "b")
        assert cli.main([cmd, "--config", tiny_config, "--out", out1]) == 0
        assert cli.main([cmd, "--config", tiny_config, "--out", out2]) == 0
        m1 = json.load(open(os.path.join(out1, "manifest.json")))
        m2 = json.load(open(os.path.join(out2, "manifest.json")))
        assert m1["files"] == m2["files"]
        assert len(m1["files"]) > 0
        # checksums actually describe the emitted bytes
        for name, digest in m1["files"].items():
            with open(os.path.join(out1, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_solve_fp_b_zero_matches_semigroup(tiny_config, tmp_path):
    from hypokin.semigroup import apply_Pprime

    out = str(tmp_path / "z")
    assert cli.main(["solve-fp", "--config", tiny_config, "--out", out,
                     "--b-zero"]) == 0
    scn = load_scenario(tiny_config)
    model = scn.build_model()
    grid = scn.build_grid(model)
    u0 = scn.build_u0(grid)
    times = scn.time_mesh()
    for i in (0, 4, 8):
        emitted = read_gfd(os.path.join(out, f"fp_u_{i:04d}.gfd"), grid=grid)
        ref = u0 if times[i] == 0 else apply_Pprime(model, times[i], u0)
        rel = np.max(np.abs(emitted.values - ref.values)) / ref.sup_norm()
        assert rel < 1e-10


CHAIN3_SMALL = pathlib.Path(preset_path("chain-3")).read_text().replace(
    "points_per_dim = 64 64 64", "points_per_dim = 16 16 16").replace(
    "n_t = 48", "n_t = 3")


def _beyond_headroom(grid):
    """Lattice modes with |xi_a| > Nyquist_a / 2 on some position axis."""
    outside = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.blocks.d, grid.N):
        m = grid.shape[axis]
        k = np.abs(np.rint(np.fft.fftfreq(m) * m))
        shape = [1] * grid.N
        shape[axis] = m
        outside = outside | (k > m / 4).reshape(shape)
    return outside


@pytest.mark.parametrize("text", [TINY_CONFIG, CHAIN3_SMALL],
                         ids=["kinetic", "chain-3"])
@pytest.mark.parametrize("kind", ["synthesize", "file"])
def test_drift_position_headroom(text, kind, tmp_path):
    from hypokin.fields import write_gfd
    from hypokin.spectral import random_smooth_field, synthesize_besov_field

    cfg = tmp_path / "drift.cfg"
    cfg.write_text(text)
    scn = load_scenario(str(cfg))
    grid = scn.build_grid(scn.build_model())
    if kind == "file":
        raw = random_smooth_field(grid, 3, decay=0.0)
        write_gfd(str(tmp_path / "b.gfd"), raw)
        cfg.write_text(text.replace("kind = synthesize\n", "").replace(
            "[drift]", "[drift]\nkind = file\npath = b.gfd"))
        scn = load_scenario(str(cfg))
    else:
        raw = synthesize_besov_field(
            scn["drift.beta"], scn["drift.seed"], grid,
            modes_per_shell=scn["drift.modes_per_shell"],
            amplitude=scn["drift.amplitude"], window=True)
    outside = _beyond_headroom(grid)
    raw_spec = np.fft.fftn(raw.values[..., 0])
    assert np.max(np.abs(raw_spec[outside])) > 1e-6 * np.max(np.abs(raw_spec))
    for level in (0, None):
        b = scn.build_drift(grid, mollify_level=level)
        for f in (b.at_index(0), b.at_index(b.n_t - 1)):
            spec = np.fft.fftn(f.values[..., 0])
            assert np.max(np.abs(spec[outside])) \
                < 1e-12 * np.max(np.abs(spec))
    # below the cut, every velocity frequency is kept as drawn (the time
    # modulation of a synthesized drift is 1 at t = 0)
    b0 = np.fft.fftn(scn.build_drift(grid, mollify_level=0)
                     .at_index(0).values[..., 0])
    assert np.allclose(b0[~outside], raw_spec[~outside],
                       rtol=0.0, atol=1e-10 * np.max(np.abs(raw_spec)))


_NUMBER = st.one_of(
    st.integers(-3, 48).map(str),
    st.floats(-1e3, 1e3, allow_subnormal=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "x", ""]))
_EDITABLE = [("model", "d"), ("model", "B"), ("grid", "points_per_dim"),
             ("grid", "half_extents"), ("drift", "beta"), ("drift", "seed"),
             ("drift", "amplitude"),
             ("drift", "modes_per_shell"), ("drift", "mollify"),
             ("fp", "epsilon"), ("fp", "n_t"), ("fp", "u0_sigmas"),
             ("run", "T")]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(_EDITABLE),
                       st.lists(_NUMBER, min_size=1, max_size=3).map(" ".join),
                       min_size=1, max_size=3))
def test_config_values_build_or_config_error(tmp_path, edits):
    """Any value of these keys, on grids no larger than the tiny config's,
    either builds the scenario's objects or is reported as a ConfigError."""
    cfg = configparser.ConfigParser()
    cfg.read_string(TINY_CONFIG)
    for (section, key), value in edits.items():
        cfg.set(section, key, value)
    path = tmp_path / "prop.cfg"
    with open(path, "w") as fh:
        cfg.write(fh)
    try:
        scn = load_scenario(str(path))
        model = scn.build_model()
        grid = scn.build_grid(model)
        scn.build_u0(grid)
        scn.build_drift(grid)
    except ConfigError:
        pass


def test_seed_override_changes_config(tiny_config):
    scn = load_scenario(tiny_config, seed_override=99)
    assert scn["run.seed"] == 99


def test_probe_schauder_emits_csv(tiny_config, tmp_path):
    # pytest raises TimeTooSmallWarning (pyproject.toml): a probe time
    # narrower than one velocity cell fails the run
    out = str(tmp_path / "s")
    assert cli.main(["probe-schauder", "--config", tiny_config,
                     "--out", out]) == 0
    rows = open(os.path.join(out, "schauder.csv")).read().splitlines()
    assert rows[0].startswith("operator,gamma,alpha,t,field_id,ratio")
    assert len(rows) > 10
    # the lowest time is the square of the velocity cell, 2 pi / 48
    t_col = rows[0].split(",").index("t")
    times = {float(r.split(",")[t_col]) for r in rows[1:]}
    assert min(times) == pytest.approx((2 * np.pi / 48) ** 2)
    assert max(times) == pytest.approx(0.1)
    diag = json.load(open(os.path.join(out, "schauder.json")))
    assert "slopes" in diag and "Pprime" in diag["slopes"]
    decay = open(os.path.join(out, "kernel_decay.csv")).read().splitlines()
    assert decay[0] == "t,j,l1_norm"


def test_probe_schauder_coarse_velocity_exits_2(tmp_path, capsys):
    # 16 velocity points on [-pi, pi): a cell of 0.39, so no probe time
    # below 0.1 is resolved
    bad = tmp_path / "coarse.cfg"
    bad.write_text(TINY_CONFIG.replace("points_per_dim = 48 48",
                                       "points_per_dim = 16 48"))
    assert cli.main(["probe-schauder", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
    assert "[grid] points_per_dim" in capsys.readouterr().err


D2_CONFIG = TINY_CONFIG.replace(
    "d = 1\nB = 0 0  1 0",
    "d = 2\nB = 0 0 0 0  0 0 0 0  1 0 0 0  0 1 0 0").replace(
    "points_per_dim = 48 48", "points_per_dim = 24 24 16 16").replace(
    "u0_sigmas = 0.7 3.0", "u0_sigmas = 0.9 0.9 9.0 9.0").replace(
    "n_t = 9", "n_t = 5")


def test_two_dimensional_noise_runs(tmp_path):
    # a two-dimensional noisy block: the scalar F scales both drift
    # channels; n_t = 5 keeps every step wider than a velocity cell
    cfg = tmp_path / "d2.cfg"
    cfg.write_text(D2_CONFIG)
    for cmd in ("solve-fp", "full-validate"):
        out = str(tmp_path / cmd)
        assert cli.main([cmd, "--config", str(cfg), "--out", out]) == 0
    u = read_gfd(os.path.join(tmp_path, "solve-fp", "fp_u_0004.gfd"))
    assert u.grid.shape == (24, 24, 16, 16) and u.channels == 1
    with open(os.path.join(tmp_path, "full-validate", "trajectories.bin"),
              "rb") as fh:
        assert json.loads(fh.readline())["N"] == 4


def test_full_validate_pipeline(tiny_config, tmp_path):
    out = str(tmp_path / "fv")
    assert cli.main(["full-validate", "--config", tiny_config,
                     "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "fp_contraction" in summary
    assert "marginal_distances" in summary
    assert "martingale_max_abs_z" in summary
    assert summary["control_max_abs_z"] > summary["martingale_max_abs_z"]
    # trajectory dump: one-line JSON header then float64 blocks
    with open(os.path.join(out, "trajectories.bin"), "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    assert header["N"] == 2 and header["M"] == 4000
    expect = header["M"] * header["N"] * 8 * len(header["checkpoint_times"])
    assert len(blob) == expect
    mart = open(os.path.join(out, "martingale.csv")).read().splitlines()
    assert mart[0].startswith("g_id,h_id,s,t,")


def test_zvonkin_subcommand(tiny_config, tmp_path):
    out = str(tmp_path / "zv")
    assert cli.main(["zvonkin", "--config", tiny_config, "--out", out]) == 0
    ladder = open(os.path.join(out, "lambda_ladder.csv")).read().splitlines()
    assert ladder[0] == "lambda,achieved_norm,grad_sup"
    rt = open(os.path.join(out, "zvonkin_roundtrip.csv")).read().splitlines()
    assert len(rt) == 4
    for line in rt[1:]:
        assert float(line.split(",")[1]) < 1e-8


def test_solve_kolmogorov_subcommand(tiny_config, tmp_path):
    # the march writes the solution, its Picard certificate the numbers
    outs = [str(tmp_path / name) for name in ("a", "b")]
    for out in outs:
        assert cli.main(["solve-kolmogorov", "--config", tiny_config,
                         "--out", out]) == 0
    diag = json.load(open(os.path.join(outs[0], "kolmogorov.json")))
    assert set(diag) == {"iterations", "contraction", "rho", "sup_norm",
                         "grad_sup"}
    assert diag["iterations"] > 2 and 0.0 <= diag["contraction"] < 1.0
    files = [json.load(open(os.path.join(out, "manifest.json")))["files"]
             for out in outs]
    assert files[0] == files[1]
    assert any(name.startswith("kolmogorov_u") for name in files[0])
