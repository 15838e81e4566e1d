import pytest

from papuf import compute_report, load_crps
from papuf.cli import ExperimentConfig, main


def run(*argv):
    return main(list(argv))


def test_device_new_is_byte_identical(tmp_path):
    for name in ("a", "b"):
        rc = run(
            "device", "new", "--design", "pa-puf", "--stages", "64", "--seed", "7",
            "--out-dir", str(tmp_path / name), "--out", str(tmp_path / name / "device.txt"),
        )
        assert rc == 0
    a = (tmp_path / "a" / "device.txt").read_text()
    b = (tmp_path / "b" / "device.txt").read_text()
    assert a == b


def test_device_show(tmp_path, capsys):
    run("device", "new", "--design", "ff-pa-puf", "--stages", "16", "--ff-taps", "2:5,5:9",
        "--seed", "3", "--out-dir", str(tmp_path), "--out", str(tmp_path / "d.txt"))
    capsys.readouterr()
    assert run("device", "show", str(tmp_path / "d.txt")) == 0
    out = capsys.readouterr().out
    assert "design=FF_PA_PUF" in out
    assert "ff_taps=2:5,5:9" in out
    lines = [l for l in out.splitlines() if "=" in l]
    assert lines == sorted(lines)  # stable ordering for diff-based testing


def test_crp_gen_then_metrics_matches_module_recompute(tmp_path, capsys):
    rc = run(
        "crp", "gen", "--design", "pa-puf", "--stages", "16", "--population", "3",
        "--challenges", "12", "--repetitions", "5", "--response-size", "16",
        "--sigma-noise", "1.5", "--seed", "5", "--out-dir", str(tmp_path),
        "--out", str(tmp_path / "crps.csv"),
    )
    assert rc == 0
    capsys.readouterr()
    assert run("metrics", "--crps", str(tmp_path / "crps.csv"), "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    crps = load_crps(tmp_path / "crps.csv")
    report = compute_report(crps)
    assert f"uniqueness={report.uniqueness:.4f}" in out
    assert f"reliability={report.reliability:.4f}" in out
    assert f"uniformity_avg={report.uniformity_avg:.4f}" in out
    assert f"bit_aliasing_avg={report.bit_aliasing_avg:.4f}" in out
    assert f"robustness_unstable={report.unstable:.4f}" in out
    hist = (tmp_path / "intra_hd_hist.csv").read_text().splitlines()
    assert hist[1] == "bin,count"
    assert len(hist) == 2 + 17  # bins 0..16


def test_crp_gen_deterministic(tmp_path):
    args = [
        "crp", "gen", "--design", "pa-puf", "--stages", "16", "--population", "2",
        "--challenges", "5", "--repetitions", "2", "--response-size", "8",
        "--sigma-noise", "1.0", "--seed", "9",
    ]
    run(*args, "--out-dir", str(tmp_path / "x"), "--out", str(tmp_path / "x" / "crps.csv"))
    run(*args, "--out-dir", str(tmp_path / "y"), "--out", str(tmp_path / "y" / "crps.csv"))
    assert (tmp_path / "x" / "crps.csv").read_text() == (tmp_path / "y" / "crps.csv").read_text()


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("stages=16\npopulation=2\nchallenges=4\nrepetitions=2\nresponse_size=8\nseed=3\n")
    rc = run(
        "crp", "gen", "--config", str(config), "--challenges", "6",
        "--out-dir", str(tmp_path), "--out", str(tmp_path / "crps.csv"),
    )
    assert rc == 0
    crps = load_crps(tmp_path / "crps.csv")
    assert crps.n_challenges == 6  # flag wins over config file
    assert crps.netlist.stages == 16  # config file wins over default
    echoed = (tmp_path / "effective-config.kv").read_text()
    assert "challenges=6" in echoed
    assert "stages=16" in echoed


def test_keygen_round_trip_and_failure(tmp_path, capsys):
    run("device", "new", "--design", "pa-puf", "--stages", "64", "--seed", "7",
        "--sigma-noise", "1.9", "--out-dir", str(tmp_path), "--out", str(tmp_path / "dev.txt"))
    assert run(
        "keygen", "enroll", "--device", str(tmp_path / "dev.txt"), "--seed", "4",
        "--out-dir", str(tmp_path), "--helper-out", str(tmp_path / "helper.txt"),
    ) == 0
    out = capsys.readouterr().out
    key_line = next(l for l in out.splitlines() if l.startswith("key_hex="))
    assert run(
        "keygen", "reproduce", "--device", str(tmp_path / "dev.txt"),
        "--helper", str(tmp_path / "helper.txt"), "--seed", "11", "--out-dir", str(tmp_path),
    ) == 0
    out = capsys.readouterr().out
    assert key_line in out  # same key from a fresh noisy read
    # a different device cannot reproduce the key: explicit failure, exit 1
    run("device", "new", "--design", "pa-puf", "--stages", "64", "--seed", "8",
        "--sigma-noise", "1.9", "--out-dir", str(tmp_path), "--out", str(tmp_path / "other.txt"))
    capsys.readouterr()
    rc = run(
        "keygen", "reproduce", "--device", str(tmp_path / "other.txt"),
        "--helper", str(tmp_path / "helper.txt"), "--seed", "12", "--out-dir", str(tmp_path),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" == err[err.index("\n") :]  # one-line machine-parsable error


def test_attack_train_and_eval(tmp_path, capsys):
    run("crp", "gen", "--design", "apuf", "--stages", "16", "--population", "1",
        "--challenges", "40", "--repetitions", "1", "--response-size", "32",
        "--seed", "2", "--out-dir", str(tmp_path), "--out", str(tmp_path / "train.csv"))
    run("crp", "gen", "--design", "apuf", "--stages", "16", "--population", "1",
        "--challenges", "10", "--repetitions", "1", "--response-size", "32",
        "--seed", "2", "--challenge-seed", "2026",
        "--out-dir", str(tmp_path), "--out", str(tmp_path / "holdout.csv"))
    capsys.readouterr()
    assert run(
        "attack", "train", "--crps", str(tmp_path / "train.csv"), "--seed", "1",
        "--out", str(tmp_path / "model.txt"), "--out-dir", str(tmp_path),
    ) == 0
    capsys.readouterr()
    assert run("attack", "eval", "--model", str(tmp_path / "model.txt"),
               "--crps", str(tmp_path / "holdout.csv")) == 0
    out = capsys.readouterr().out
    accuracy = float(out.split("accuracy=")[1].strip())
    assert accuracy >= 90.0  # same-seed device, noiseless, linear design


def test_sweep_size_runs(tmp_path, capsys):
    rc = run(
        "sweep", "size", "--design", "pa-puf", "--stages", "16", "--population", "3",
        "--challenges", "6", "--repetitions", "3", "--sigma-noise", "1.5",
        "--sizes", "8,16,32,64,128", "--seeds", "1", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    rows = (tmp_path / "sweep_size.csv").read_text().splitlines()
    assert rows[1] == "response_size,uniqueness,reliability"
    assert [r.split(",")[0] for r in rows[2:]] == ["8", "16", "32", "64", "128"]


def test_sweep_ff_runs(tmp_path):
    rc = run(
        "sweep", "ff", "--stages", "16", "--population", "3", "--challenges", "6",
        "--repetitions", "3", "--sigma-noise", "2.0", "--taps", "0,2,4", "--seeds", "2",
        "--out-dir", str(tmp_path),
    )
    assert rc == 0
    rows = (tmp_path / "sweep_ff.csv").read_text().splitlines()
    assert rows[1] == "tap_count,uniqueness,reliability"
    assert [r.split(",")[0] for r in rows[2:]] == ["0", "2", "4"]


def test_crp_gen_with_calibrate_target(tmp_path, capsys):
    rc = run(
        "crp", "gen", "--design", "pa-puf", "--stages", "64", "--population", "1",
        "--challenges", "4", "--repetitions", "3", "--response-size", "8",
        "--calibrate-target", "95.37", "--seed", "6",
        "--out-dir", str(tmp_path), "--out", str(tmp_path / "crps.csv"),
    )
    assert rc == 0
    out = capsys.readouterr().out
    sigma = float(out.split("calibrated_sigma_noise=")[1].splitlines()[0])
    assert sigma > 0
    crps = load_crps(tmp_path / "crps.csv")
    assert crps.params.sigma_noise == pytest.approx(sigma)
    echoed = (tmp_path / "effective-config.kv").read_text()
    assert f"sigma_noise={sigma}" in echoed


def test_attack_compare_emits_table(tmp_path):
    rc = run(
        "attack", "compare", "--designs", "apuf,pa-puf", "--stages", "16",
        "--budget", "1024", "--seeds", "2", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    rows = (tmp_path / "attack_compare.csv").read_text().splitlines()
    assert rows[0].startswith("# config=")
    assert rows[1] == "design,features,accuracy_mean,accuracy_std,accuracies"
    assert len(rows) == 2 + 4  # two designs x two feature maps


def test_keygen_enroll_with_explicit_challenge(tmp_path, capsys):
    run("device", "new", "--design", "pa-puf", "--stages", "16", "--seed", "5",
        "--out-dir", str(tmp_path), "--out", str(tmp_path / "dev.txt"))
    capsys.readouterr()
    rc = run(
        "keygen", "enroll", "--device", str(tmp_path / "dev.txt"),
        "--challenge-hex", "a5c3", "--seed", "1",
        "--out-dir", str(tmp_path), "--helper-out", str(tmp_path / "helper.txt"),
    )
    assert rc == 0
    assert "challenge_hex=a5c3" in (tmp_path / "helper.txt").read_text()
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines == sorted(lines)


def test_version_flag(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out.startswith("papuf ")


def test_report_refuses_mixed_hashes(tmp_path, capsys):
    (tmp_path / "one.kv").write_text("# config=aaaaaaaaaaaa\nx=1\n")
    (tmp_path / "two.kv").write_text("# config=bbbbbbbbbbbb\ny=2\n")
    rc = run("report", str(tmp_path / "one.kv"), str(tmp_path / "two.kv"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = run("report", str(tmp_path / "one.kv"), str(tmp_path / "two.kv"), "--force")
    assert rc == 0
    out = capsys.readouterr().out
    assert "one.kv:x=1" in out
    assert "two.kv:y=2" in out


def test_report_csv_format(tmp_path, capsys):
    (tmp_path / "one.kv").write_text("# config=aaaaaaaaaaaa\nx=1\n")
    rc = run("report", str(tmp_path / "one.kv"), "--format", "csv")
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "key,value"


def test_usage_error_exit_code():
    assert run("no-such-command") == 2
    assert run("device") == 2
    assert run("crp", "gen", "--design", "hexagon") == 2


def test_validation_error_exit_code(tmp_path, capsys):
    rc = run("metrics", "--crps", str(tmp_path / "missing.csv"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_device_file_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "d.txt"
    run("device", "new", "--design", "pa-puf", "--stages", "16", "--seed", "3",
        "--out-dir", str(tmp_path), "--out", str(path))
    path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n")
    capsys.readouterr()
    assert run("device", "show", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ff_taps" in err


def test_crp_file_without_netlist_header_is_an_error(tmp_path, capsys):
    assert run("crp", "gen", "--design", "pa-puf", "--stages", "16", "--population", "2",
               "--challenges", "3", "--response-size", "8", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "crps.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(l for l in lines if not l.startswith("# netlist=")) + "\n")
    capsys.readouterr()
    assert run("metrics", "--crps", str(path), "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "netlist" in err


@pytest.mark.parametrize(
    "prefix, replacement, named",
    [("n=", None, "'n'"), ("offset_hex=", None, "'offset_hex'"), ("offset_hex=", "offset_hex=ab", "offset_hex")],
)
def test_malformed_helper_file_is_an_error_not_a_traceback(tmp_path, capsys, prefix, replacement, named):
    run("device", "new", "--design", "pa-puf", "--stages", "16", "--seed", "5",
        "--out-dir", str(tmp_path), "--out", str(tmp_path / "dev.txt"))
    helper = tmp_path / "helper.txt"
    assert run("keygen", "enroll", "--device", str(tmp_path / "dev.txt"), "--seed", "1",
               "--out-dir", str(tmp_path), "--helper-out", str(helper)) == 0
    lines = [replacement if l.startswith(prefix) else l for l in helper.read_text().splitlines()]
    helper.write_text("\n".join(l for l in lines if l is not None) + "\n")
    capsys.readouterr()
    rc = run("keygen", "reproduce", "--device", str(tmp_path / "dev.txt"), "--helper", str(helper),
             "--out-dir", str(tmp_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "prefix, replacement, named",
    [("weights=", None, "'weights'"), ("stages=", None, "'stages'"), ("weights=", "weights=0.5 -0.5", "2 weights")],
)
def test_malformed_model_file_is_an_error_not_a_traceback(tmp_path, capsys, prefix, replacement, named):
    run("crp", "gen", "--design", "apuf", "--stages", "16", "--population", "1", "--challenges", "20",
        "--repetitions", "1", "--response-size", "8", "--out-dir", str(tmp_path))
    model = tmp_path / "model.txt"
    assert run("attack", "train", "--crps", str(tmp_path / "crps.csv"), "--epochs", "5",
               "--out", str(model), "--out-dir", str(tmp_path)) == 0
    lines = [replacement if l.startswith(prefix) else l for l in model.read_text().splitlines()]
    model.write_text("\n".join(l for l in lines if l is not None) + "\n")
    capsys.readouterr()
    assert run("attack", "eval", "--model", str(model), "--crps", str(tmp_path / "crps.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(model) in err and named in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "kind, old, new, named",
    [
        ("device", "\n", "\ngarbage\n", "line 2"),
        ("helper", "\n", "\ngarbage\n", "line 2"),
        ("model", "\n", "\ngarbage\n", "line 2"),
        ("config", "\n", "\ngarbage\n", "line 2"),
        ("config", "\nstages=16", "\nstages=sixteen", "'stages'"),
        ("crps", "# netlist=design=APUF;", "# netlist=design=APUF;stages;", "'# netlist'"),
    ],
)
def test_malformed_line_or_value_names_the_file_and_the_line_or_key(tmp_path, capsys, kind, old, new, named):
    out = str(tmp_path)
    paths = {
        "device": tmp_path / "device.txt",
        "helper": tmp_path / "helper.txt",
        "model": tmp_path / "model.txt",
        "config": tmp_path / "effective-config.kv",
        "crps": tmp_path / "crps.csv",
    }
    assert run("crp", "gen", "--design", "apuf", "--stages", "16", "--population", "1", "--challenges", "20",
               "--repetitions", "1", "--response-size", "8", "--out-dir", out) == 0
    assert run("attack", "train", "--crps", str(paths["crps"]), "--epochs", "5", "--out-dir", out) == 0
    assert run("device", "new", "--stages", "16", "--seed", "5", "--out-dir", out,
               "--out", str(paths["device"])) == 0
    assert run("keygen", "enroll", "--device", str(paths["device"]), "--out-dir", out,
               "--helper-out", str(paths["helper"])) == 0
    commands = {
        "device": ["device", "show", str(paths["device"])],
        "helper": ["keygen", "reproduce", "--device", str(paths["device"]), "--helper", str(paths["helper"]),
                   "--out-dir", out],
        "model": ["attack", "eval", "--model", str(paths["model"]), "--crps", str(paths["crps"])],
        "config": ["crp", "gen", "--config", str(paths["config"]), "--out-dir", str(tmp_path / "again")],
        "crps": ["metrics", "--crps", str(paths["crps"]), "--out-dir", out],
    }
    text = paths[kind].read_text()
    assert old in text
    paths[kind].write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert run(*commands[kind]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths[kind]) in err and named in err and len(err.splitlines()) == 1


def test_config_hash_stable():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
