"""CLI behavior: outputs, exit codes, reproducibility, config round-trip."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iterlog
from iterlog import cli, rrt, verify
from iterlog.cli import run
from iterlog.dist import LatticeLaw, RngStream
from iterlog.plot import Series, emit_plot
from iterlog.renewal import convolve_levels, perturbed_table, renewal_sequence


def _capture(capsys):
    return capsys.readouterr().out


def test_moments_json(capsys):
    assert run(["moments", "--law", "exp:rate=1"]) == 0
    out = json.loads(_capture(capsys))
    assert out["mu"] == 1.0
    assert out["m2"] == 2.0
    assert out["var"] == 1.0
    assert out["a"] == pytest.approx([1.0, math.sqrt(3.0), 2.0 * math.sqrt(5.0)])


def test_renewal_csv_binomials(tmp_path):
    path = tmp_path / "v.csv"
    code = run(["renewal", "--law", "lattice:d=1;p=1", "--K", "3", "--N", "20", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,t,V1,V2,V3"
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[2]) == math.comb(n, 1)
        assert float(cells[3]) == math.comb(n, 2)
        assert float(cells[4]) == math.comb(n, 3)


def test_renewal_eta_csv_matches_stieltjes_chain(tmp_path):
    path = tmp_path / "v.csv"
    code = run(["renewal", "--law", "lattice:d=1;p=0.2,0.5,0.3", "--eta", "lattice:d=1;p=0.6,0,0.4",
                "--K", "3", "--N", "300", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,t,V1,V2,V3"
    law, eta = LatticeLaw(1.0, np.array([0.2, 0.5, 0.3])), LatticeLaw(1.0, np.array([0.6, 0.0, 0.4]))
    chain = convolve_levels(perturbed_table(renewal_sequence(law, 300), 1.0, eta, 300, law.moments().mean), 3)
    got = np.array([[float(x) for x in line.split(",")[2:]] for line in lines[1:]]).T
    assert got.shape == chain.values.shape
    assert np.all(np.abs(got - chain.values) <= 1e-12 * chain.values)


def test_renewal_constants_json(capsys):
    code = run(["renewal", "--law", "geom:p=0.5", "--eta", "geom:p=0.5",
                "--K", "2", "--N", "50", "--format", "json"])
    assert code == 0
    consts = json.loads(_capture(capsys))["constants"]
    assert consts[0]["c_k"] == pytest.approx(0.0, abs=1e-10)
    assert consts[1]["c_k"] == pytest.approx(-0.25, abs=1e-10)
    assert consts[0]["d_lim"] == pytest.approx(1.0, abs=1e-10)


def test_renewal_json_independent_of_horizon(capsys):
    outputs = []
    for n in ("40", "40000"):
        args = ["renewal", "--law", "geom:p=0.5", "--eta", "geom:p=0.5", "--K", "3", "--N", n]
        assert run(args + ["--format", "json"]) == 0
        outputs.append(_capture(capsys))
    assert outputs[0] == outputs[1]


def test_renewal_json_refuses_what_a_table_refuses(capsys):
    json_fmt = ["--format", "json"]
    assert run(["renewal", "--law", "exp:rate=1"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--eta", "exp:rate=1"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--eta", "lattice:d=0.5;p=1"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--N", "-1"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--eta", "geom:p=0.5", "--N", "-1"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--K", "0"] + json_fmt) == 2
    assert run(["renewal", "--law", "geom:p=0.5", "--K", "3", "--N", "50000000"] + json_fmt) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--law", "geom:p=0.5"], "c9cebeec280c696a31afc4c514b3902af56d1b3fe30f3e53c917bdc6d59b8358"),
        (["--law", "lattice:d=0.5;p=0.2,0.5,0.3", "--eta", "lattice:d=0.5;p=0.6,0,0.4"],
         "f195a67115f61454072874ac00e4b889c45203cc91dee4a38f4206875193ca86"),
    ],
    ids=["geom", "lattice_eta"],
)
def test_renewal_constants_bytes(argv, digest, capsys):
    # sha256 of stdout: every constant keeps its key, its order and its float bits
    assert run(["renewal"] + argv + ["--K", "3", "--format", "json"]) == 0
    assert hashlib.sha256(_capture(capsys).encode()).hexdigest() == digest


def test_renewal_constants_of_a_degenerate_law(capsys):
    # the unit step has no LIL normalization, as ``moments`` has no ``a``; b, d_lim and c_k are defined
    unit = "lattice:d=1;p=1"
    assert run(["renewal", "--law", unit, "--eta", unit, "--K", "2", "--format", "json"]) == 0
    consts = json.loads(_capture(capsys))["constants"]
    keys = ["k", "mu", "second_moment", "sigma2", "b", "span", "d_lim", "eta_mean", "c_k"]
    assert [list(c) for c in consts] == [keys, keys]
    assert consts[0]["d_lim"] == 1.0
    assert consts[1]["c_k"] == -0.5  # the unit-step level-2 residual


def test_simulate_deterministic_counts(capsys):
    code = run(["simulate", "--law", "lattice:d=1;p=1", "--K", "2", "--t", "5.5"])
    assert code == 0
    out = json.loads(_capture(capsys))
    assert out["counts"] == [5, 10]


def test_simulate_path_csv(tmp_path):
    path = tmp_path / "path.csv"
    code = run(["simulate", "--law", "exp:rate=1", "--K", "2", "--t", "20",
                "--grid", "linear:start=5,stop=20,count=4", "--seed", "3", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,Y1,Y2"
    assert len(lines) == 5


def test_linear_grid_needs_start_and_stop(capsys):
    args = ["simulate", "--law", "exp:rate=1", "--t", "5", "--grid"]
    assert run(args + ["linear:stop=5"]) == 2
    assert "start=" in capsys.readouterr().err
    assert run(args + ["linear:start=1"]) == 2
    assert "stop=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, message",
    [
        ("linear:start=1,stop=5,cnt=3", "not cnt"),
        ("geometric:start=1,stop=5", "not stop"),
        ("linear:start=1,stop=5,base=2", "not base"),
        ("linear:start=1,stop=5,count=2.5", "whole number"),
        ("geometric:count=0", "whole number"),
        ("geometric:count=inf", "whole number"),
        ("linear:start=1,stop=5,count=3,count=4", "duplicate key 'count'"),
        ("linear:start=1,stop=5,count", "key=value"),
        ("spiral:count=3", "unknown grid kind"),
        ("geometric:start=nan,count=3", "grid must be a finite"),
    ],
)
def test_grid_spec_checked_as_laws_are(grid, message, capsys):
    args = ["simulate", "--law", "exp:rate=1", "--K", "1", "--t", "60", "--grid", grid]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_grid_spec_spacing_and_defaults_unchanged(capsys):
    args = ["simulate", "--law", "exp:rate=1", "--K", "1", "--t", "300", "--seed", "3", "--grid"]
    assert run(args + ["linear: start=1 , stop=5, count=3.0"]) == 0
    assert [line.split(",")[0] for line in _capture(capsys).splitlines()] == ["t", "1", "3", "5"]
    assert run(args + ["geometric"]) == 0
    ts = [float(line.split(",")[0]) for line in _capture(capsys).splitlines()[1:]]
    assert ts == (math.e**2 * 1.5 ** np.arange(10)).tolist()


def test_simulate_path_svg(tmp_path):
    path = tmp_path / "path.svg"
    code = run(["simulate", "--law", "exp:rate=1", "--K", "2", "--t", "20",
                "--grid", "linear:start=5,stop=20,count=4", "--seed", "3",
                "--format", "svg", "--out", str(path)])
    assert code == 0
    body = path.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body


def test_mc_csv_reproducible(tmp_path):
    args = ["mc", "--law", "exp:rate=1", "--K", "2", "--t", "30", "--replicas", "64",
            "--seed", "7"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "replica,k,t,Y,clt_stat,lil_stat"
    assert len(lines) == 1 + 64 * 2


def test_mc_takes_no_grid(tmp_path, capsys):
    args = ["mc", "--law", "exp:rate=1", "--K", "2", "--t", "20", "--replicas", "8",
            "--seed", "3", "--format", "json"]
    assert run(args + ["--grid", "linear:start=5,stop=20,count=4"]) == 2
    capsys.readouterr()
    assert run(args) == 0
    capsys.readouterr()
    # nor from a config file: a grid adds nothing to the summary and would walk the last generation
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"grid": "linear:start=5,stop=20,count=4"}))
    assert run(args + ["--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown config key 'grid'" in captured.err


def test_mc_json_summary(capsys):
    code = run(["mc", "--law", "geom:p=0.5", "--K", "1", "--t", "40",
                "--replicas", "200", "--seed", "5", "--format", "json"])
    assert code == 0
    out = json.loads(_capture(capsys))
    assert out["replicas"] == 200
    assert abs(out["means"][0] - 20.0) < 2.0
    assert "clt_quantiles" in out


def test_mc_threads_env_invariance(tmp_path, monkeypatch):
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ITERLOG_THREADS", threads)
        path = tmp_path / f"mc{threads}.json"
        code = run(["mc", "--law", "exp:rate=1", "--K", "2", "--t", "25",
                    "--replicas", "128", "--seed", "11", "--format", "json",
                    "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_mc_threads_env_not_integer(monkeypatch, capsys):
    monkeypatch.setenv("ITERLOG_THREADS", "abc")
    code = run(["mc", "--law", "exp:rate=1", "--K", "1", "--t", "5", "--replicas", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ITERLOG_THREADS" in err and "'abc'" in err


def test_rrt_enumerate_json(capsys):
    code = run(["rrt", "--enumerate", "3", "--K", "3"])
    assert code == 0
    pmf = json.loads(_capture(capsys))
    assert pmf["2,1,0"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "extra, ignored",
    [
        (["--n", "50"], "--n"),
        (["--replicas", "9"], "--replicas"),
        (["--seed", "4"], "--seed"),
        (["--n", "50", "--replicas", "9", "--seed", "4"], "--n, --replicas, --seed"),
    ],
    ids=["n", "replicas", "seed", "all"],
)
def test_rrt_enumerate_refuses_sampling_options(capsys, extra, ignored):
    assert run(["rrt", "--enumerate", "3", "--K", "2"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--enumerate ignores {ignored};" in captured.err


@pytest.mark.parametrize("argv", [["rrt", "--enumerate", "3", "--K", "2"], ["verify", "--checks", "c1"]])
def test_dump_of_an_overriding_option_reloads(tmp_path, capsys, argv):
    # the options the dump's run ignored are dumped as null, so reloading it is no clash
    dump = tmp_path / "cfg.json"
    assert run(argv + ["--dump-config", str(dump)]) == 0
    first = _capture(capsys)
    ignored = ("suite",) if argv[0] == "verify" else ("n", "replicas", "seed")
    assert all(json.loads(dump.read_text())[name] is None for name in ignored)
    assert run([argv[0], "--config", str(dump)]) == 0
    assert _capture(capsys) == first


def test_rrt_enumerate_past_nine_vertices(capsys):
    assert run(["rrt", "--enumerate", "12", "--K", "2"]) == 0
    pmf = json.loads(_capture(capsys))
    assert math.fsum(pmf.values()) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert all(sum(map(int, key.split(","))) <= 12 for key in pmf)


def test_rrt_enumerate_over_the_state_limit(capsys):
    assert run(["rrt", "--enumerate", "51", "--K", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "profile chain at n = 51, K = 3 walks more than 262144 states" in captured.err


def test_rrt_needs_a_level(capsys):
    assert run(["rrt", "--n", "5", "--K", "0"]) == 2
    assert run(["rrt", "--enumerate", "3", "--K", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("need k_max >= 1") == 2


def test_rrt_needs_a_replica(capsys):
    assert run(["rrt", "--n", "5", "--replicas", "0"]) == 2
    assert run(["rrt", "--n", "5", "--replicas", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("need replicas >= 1") == 2


def test_moments_needs_a_level(capsys):
    assert run(["moments", "--law", "exp:rate=1", "--K", "0"]) == 2
    assert run(["moments", "--law", "exp:rate=1", "--K", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("need K >= 1") == 2
    assert run(["moments", "--law", "exp:rate=1", "--K", "1"]) == 0
    assert json.loads(_capture(capsys))["a"] == [1.0]


def test_rrt_csv(tmp_path, capsys):
    path = tmp_path / "rrt.csv"
    code = run(["rrt", "--n", "30", "--K", "2", "--replicas", "5", "--seed", "2",
                "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,X,statistic"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "30"
    assert first[3] != ""  # statistic defined for n = 30 > e^e
    # the trees are those of the block sampler on stream (seed, 0), a row each
    rows = [[int(line.split(",")[2]) for line in lines[1 + 2 * r : 3 + 2 * r]] for r in range(5)]
    assert rows == rrt.sample_profiles(30, 2, RngStream(2, 0), 5).tolist()
    assert run(["rrt", "--n", "100", "--K", "3", "--replicas", "50", "--seed", "1"]) == 0
    digest = "a53bcd74d185e7cfd4e023c766cb82a28ae61cdfba9b9c2e90c1ed3ccfc9be37"
    assert hashlib.sha256(_capture(capsys).encode()).hexdigest() == digest


def test_gauss_json(capsys):
    code = run(["gauss", "--k", "2", "--t", "10", "--h", "0.1", "--replicas", "500",
                "--seed", "3", "--format", "json"])
    assert code == 0
    out = json.loads(_capture(capsys))
    assert out["b1_variance_target"] == pytest.approx(1000.0 / 3.0)
    assert out["b2_variance"] == 0.0  # default exponential weight vanishes


def test_gauss_step_and_replica_errors(capsys):
    base = ["gauss", "--k", "2", "--t", "1", "--seed", "3"]
    for h in ("0", "-0.1", "2"):
        assert run(base + ["--h", h]) == 2
        assert "need h > 0 and t_max >= h" in capsys.readouterr().err
    assert run(base + ["--h", "0.1", "--replicas", "1", "--format", "json"]) == 2
    assert "at least two replicas" in capsys.readouterr().err
    assert run(base + ["--h", "0.1", "--replicas", "1"]) == 0  # one CSV row is fine
    assert len(_capture(capsys).splitlines()) == 2


def test_gauss_defaults_to_the_smallest_k(capsys):
    assert run(["gauss", "--t", "1", "--h", "0.1", "--seed", "3"]) == 0
    default = _capture(capsys)
    assert run(["gauss", "--k", "2", "--t", "1", "--h", "0.1", "--seed", "3"]) == 0
    assert _capture(capsys) == default


def test_verify_single_check_deterministic(capsys):
    assert run(["verify", "--checks", "c1,c2", "--seed", "7", "--format", "json"]) == 0
    first = _capture(capsys)
    assert run(["verify", "--checks", "c1,c2", "--seed", "7", "--format", "json"]) == 0
    assert first == _capture(capsys)
    report = json.loads(first)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "c1_exact_convolution" in names


def test_verify_gated_failure_exit_code(monkeypatch, capsys):
    def failing(seed):
        return [verify.CheckResult("forced", False, 1.0, 0.0, 0.0, "test")]

    monkeypatch.setitem(verify.CHECKS, "forced", (failing, 1.0, False))
    assert run(["verify", "--checks", "forced"]) == 1
    assert "FAIL" in _capture(capsys)


def test_verify_plot_reuses_the_r_lil_series(monkeypatch, tmp_path, capsys):
    real, calls = verify.lil_extrema_series, []

    def counted(seed):
        calls.append(seed)
        return real(seed, replicas=20)

    monkeypatch.setattr(verify, "lil_extrema_series", counted)
    assert run(["verify", "--checks", "r_lil", "--seed", "7", "--plot", str(tmp_path / "a.svg")]) == 0
    assert calls == [7]  # the check's series is the plot's
    # a run without r_lil computes the same series for its plot
    assert run(["verify", "--checks", "c1", "--seed", "7", "--plot", str(tmp_path / "b.svg")]) == 0
    assert calls == [7, 7]
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    capsys.readouterr()


def test_lil_extrema_series_independent_of_worker_count(monkeypatch):
    # 64 replicas, the fewest that map_blocks hands to a pool
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = verify.lil_extrema_series(7, replicas=64)
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    pooled = verify.lil_extrema_series(7, replicas=64)
    assert serial[1].shape == (64, 26)
    assert serial[0].tobytes() == pooled[0].tobytes()
    assert serial[1].tobytes() == pooled[1].tobytes()
    # the first 20 replicas are the blocks of a 20-replica ensemble
    few = verify.lil_extrema_series(7, replicas=20)
    assert few[1].tobytes() == serial[1][:20].tobytes()


def test_chi2_two_sample_too_few_counts():
    with pytest.raises(ValueError, match="min_pooled=25"):
        verify._chi2_two_sample(np.array([1, 2, 3]), np.array([1, 2]))


def test_level1_chi2_p_value_pinned():
    # where scipy.stats gets imported must not move the seed-7 p-value
    (chi2,) = [c for c in verify.run_check("c7", 7) if c.name == "c7_level1_chi2"]
    assert chi2.computed == 0.4387597097276895


@pytest.mark.parametrize(
    "check, pinned",
    [
        ("c7", {"c7_profile_tv": 0.004276666666666665, "c7_level1_mean": 0.26409018890654695}),
        ("c8", {"c8_b1_variance": 323.49148717957263, "c8_b2_lattice_variance": 8.284471566118645}),
        ("c6", {"c6_identity": 0.0,
                "c6_subtree_trend": [0.06307287768872175, 0.03207544846685959, 0.028095288334278847]}),
    ],
)
def test_tree_and_gauss_values_pinned(check, pinned):
    # drawing the tree and Gaussian blocks a chunk at a time, or reading J_k a
    # block at a time, must not move a seed-7 value
    computed = {c.name: c.computed for c in verify.run_check(check, 7)}
    assert {name: computed[name] for name in pinned} == pinned


def test_scipy_stats_loaded_only_by_commands_that_need_it():
    src = str(Path(iterlog.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys\n"
        "from iterlog import cli\n"
        "def scipy_modules():\n"
        "    return [m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules]\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['mc', '--law', 'exp:rate=1', '--K', '2', '--t', '5', '--replicas', '4']) == 0\n"
        "    assert cli.run(['rrt', '--n', '30', '--K', '2', '--replicas', '3']) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, timeout=120, check=True)


def test_usage_errors(capsys):
    assert run(["moments", "--law", "bogus:x=1"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["moments", "--law", "exp:rate=1", "--seed", "3"]) == 2  # nothing there draws
    assert run(["renewal", "--law", "geom:p=0.5", "--N", "5", "--format", "json", "--seed", "3"]) == 2
    assert run(["renewal", "--law", "exp:rate=1", "--N", "5"]) == 2  # needs a lattice law
    assert run(["renewal", "--law", "geom:p=0.5", "--eta", "exp:rate=1", "--N", "5"]) == 2
    assert run(["verify", "--checks", "zzz"]) == 2
    assert run(["verify", "--checks", ""]) == 2  # an empty list names no check; it is not the fast suite
    assert run(["verify", "--suite", "full", "--checks", "c1"]) == 2  # --checks would drop the suite
    assert run(["gauss", "--law", "lattice:d=1;p=1", "--t", "inf"]) == 2  # refused before a table of t sites
    assert run(["gauss", "--t", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--checks ignores --suite;" in captured.err
    assert captured.err.count("need h > 0 and t_max >= h") == 2
    assert "Traceback" not in captured.err


def test_config_file_round_trip(tmp_path, capsys):
    dump = tmp_path / "cfg.json"
    assert run(["moments", "--law", "exp:rate=2", "--K", "2", "--dump-config", str(dump)]) == 0
    first = _capture(capsys)
    cfg = json.loads(dump.read_text())
    assert cfg == {"out": None, "fmt": "json", "law": "exp:rate=2", "levels": 2}  # moments' options only
    config_path = tmp_path / "use.json"
    config_path.write_text(json.dumps({"law": "exp:rate=2", "levels": 2}))
    assert run(["moments", "--law", "exp:rate=2", "--config", str(config_path)]) == 0
    assert json.loads(first) == json.loads(_capture(capsys))
    # a dumped config passes the checks a config file gets
    assert run(["moments", "--law", "exp:rate=2", "--config", str(dump)]) == 0
    assert _capture(capsys) == first


def test_config_flag_overrides_file(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"law": "exp:rate=1", "levels": 1}))
    assert run(["moments", "--law", "exp:rate=4", "--config", str(config_path)]) == 0
    out = json.loads(_capture(capsys))
    assert out["mu"] == 0.25
    assert len(out["a"]) == 1  # levels taken from the file


@pytest.mark.parametrize(
    "argv, body, message",
    [
        (["rrt", "--n", "5"], {"replicass": 5}, "unknown config key 'replicass'"),
        (["rrt", "--n", "5"], {"mode": "discrete"}, "unknown config key 'mode'"),
        (["rrt", "--n", "5"], {"fmt": "yaml"}, "argument --format: invalid choice: 'yaml'"),
        (["verify", "--checks", "c1"], {"suite": "slow"}, "argument --suite: invalid choice: 'slow'"),
        (["mc", "--law", "exp:rate=1", "--t", "5"], {"fmt": "svg"}, "argument --format: invalid choice: 'svg'"),
        (["moments", "--law", "exp:rate=1"], [1, 2], "config file must hold a JSON object"),
        (["verify"], {"checks": ""}, "unknown check ''"),
        (["verify", "--checks", "c1"], {"suite": "full"}, "--checks ignores --suite;"),
        (["verify", "--suite", "full"], {"checks": "c1"}, "--checks ignores --suite;"),
        (["verify"], {"suite": "fast", "checks": "c1"}, "--checks ignores --suite;"),
        (["rrt", "--enumerate", "3"], {"n": 50, "replicas": 9}, "--enumerate ignores --n, --replicas;"),
        (["rrt", "--n", "5"], {"enumerate_n": 3}, "--enumerate ignores --n;"),
        (["rrt"], {"enumerate_n": 3, "replicas": 9, "seed": 4}, "--enumerate ignores --replicas, --seed;"),
        (["moments", "--law", "exp:rate=1"], {"levels": 2.5}, "argument --K: invalid int value: '2.5'"),
        (["mc", "--law", "exp:rate=1"], {"t": "abc"}, "argument --t: invalid float value: 'abc'"),
        (["moments", "--law", "exp:rate=1"], {"replicas": 5}, "unknown config key 'replicas'"),
    ],
    ids=["misspelt_key", "mode", "fmt", "suite", "fmt_of_subcommand", "not_an_object", "empty_checks",
         "suite_with_checks", "checks_with_suite", "both_in_file", "sampling_with_enumerate",
         "enumerate_with_n", "enumerate_in_file", "fractional_levels", "text_horizon", "foreign_key"],
)
def test_config_file_checked_as_flags_are(tmp_path, capsys, argv, body, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(body))
    assert run(argv + ["--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--law", "exp:rate=1", "--t", "5", "--format", "svg"], "simulate writes "),
        (["simulate", "--law", "exp:rate=1", "--t", "5", "--format", "csv"], "simulate writes "),
        (["simulate", "--law", "exp:rate=1", "--t", "20", "--grid", "linear:start=5,stop=20,count=4",
          "--format", "json"], "simulate writes "),
        (["mc", "--law", "exp:rate=1", "--t", "5", "--replicas", "4", "--format", "svg"], "invalid choice: 'svg'"),
        (["mc", "--law", "exp:rate=1", "--t", "5", "--replicas", "4", "--format", "text"], "invalid choice: 'text'"),
        (["moments", "--law", "exp:rate=1", "--format", "csv"], "invalid choice: 'csv'"),
        (["renewal", "--law", "geom:p=0.5", "--N", "5", "--format", "svg"], "invalid choice: 'svg'"),
        (["rrt", "--n", "5", "--format", "json"], "rrt writes "),
        (["rrt", "--enumerate", "3", "--format", "csv"], "rrt writes "),
        (["gauss", "--k", "2", "--t", "1", "--h", "0.1", "--format", "text"], "invalid choice: 'text'"),
        (["verify", "--checks", "c1", "--format", "csv"], "invalid choice: 'csv'"),
    ],
    ids=["simulate_svg_no_grid", "simulate_csv_no_grid", "simulate_json_grid", "mc_svg", "mc_text",
         "moments_csv", "renewal_svg", "rrt_json", "rrt_enumerate_csv", "gauss_text", "verify_csv"],
)
def test_format_a_subcommand_cannot_write_is_refused(tmp_path, capsys, argv, message):
    # a format no run of the subcommand writes is not among its --format choices
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_readme_commands_resolve(tmp_path, monkeypatch, capsys):
    # each example of the README's command-line section parses and asks for a format its subcommand writes;
    # its --dump-config, given alone, resolves to the same options and writes the same bytes
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("iterlog ")]
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)  # where the examples' --out files go

    def written():
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.stem not in ("first", "again")}
        return _capture(capsys), files

    for argv in lines:
        if argv[0] in ("mc", "gauss", "verify"):  # seconds a run: these only parse and resolve
            monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg: 0)
        assert run(argv + ["--dump-config", "first.json"]) == 0
        first = written()
        assert run([argv[0], "--config", "first.json", "--dump-config", "again.json"]) == 0
        assert written() == first
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_emit_plot_single_point(tmp_path):
    path = tmp_path / "one.svg"
    emit_plot([Series(np.array([1.0]), np.array([2.0]))], str(path))
    body = path.read_text()
    assert "<circle" in body


def test_emit_plot_reference_lines(tmp_path):
    path = tmp_path / "ref.svg"
    emit_plot(
        [Series(np.array([1.0, 2.0, 3.0]), np.array([0.1, -0.2, 0.4]))],
        str(path),
        ref_lines=(-1.0, 1.0),
    )
    assert path.read_text().count('class="reference"') == 2


def test_emit_plot_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="empty series"):
        emit_plot([], str(path))
    with pytest.raises(ValueError, match="empty series"):
        emit_plot([Series(np.array([]), np.array([]))], str(path))
    assert not path.exists()


def test_emit_plot_deterministic(tmp_path):
    xs = np.linspace(1.0, 5.0, 20)
    ys = np.sin(xs)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot([Series(xs, ys, "wave")], str(p1), title="t", ref_lines=(0.0,))
    emit_plot([Series(xs, ys, "wave")], str(p2), title="t", ref_lines=(0.0,))
    assert p1.read_bytes() == p2.read_bytes()
