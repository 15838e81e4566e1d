import csv
import shlex
from pathlib import Path

import pytest

from papuf import compute_report, load_crps
from papuf.cli import ExperimentConfig, build_parser, main


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


def test_sweep_ff_follows_the_configured_design(tmp_path, capsys):
    argv = ["sweep", "ff", "--stages", "16", "--population", "3", "--challenges", "6", "--repetitions", "3",
            "--sigma-noise", "2.0", "--taps", "0,2", "--seeds", "1"]
    for design in ([], ["--design", "pa-puf"], ["--design", "ff-pa-puf"]):
        assert run(*argv, *design, "--out-dir", str(tmp_path)) == 0
        assert capsys.readouterr().out == "0,49.6528,93.5909\n2,49.3056,85.7060\n"
    (tmp_path / "sweep_ff.csv").unlink()
    assert run(*argv, "--design", "apuf", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: the feed-forward sweep applies to the 3-line designs\n"
    assert not (tmp_path / "sweep_ff.csv").exists()


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


def test_attack_train_has_no_learning_rate_option(tmp_path, capsys):
    assert run("crp", "gen", "--design", "apuf", "--stages", "16", "--population", "1", "--challenges", "20",
               "--repetitions", "1", "--response-size", "8", "--out-dir", str(tmp_path)) == 0
    capsys.readouterr()
    assert run("attack", "train", "--crps", str(tmp_path / "crps.csv"), "--lr", "0.1",
               "--out-dir", str(tmp_path)) == 2
    assert "--lr" in capsys.readouterr().err


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
    assert run("attack", "train", "--crps", str(tmp_path / "crps.csv"),
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
    assert run("attack", "train", "--crps", str(paths["crps"]), "--out-dir", out) == 0
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


@pytest.mark.parametrize(
    "record",
    ["garbage", "d0000,zz,0,ab,8", "d0000,abc,0,ab,8", "d0000,abcd,0,zz,8", "d0000,abcd,x,ab,8"],
)
def test_malformed_crp_record_names_the_file_and_the_line(tmp_path, capsys, record):
    path = tmp_path / "crps.csv"
    assert run("crp", "gen", "--design", "pa-puf", "--stages", "16", "--population", "2",
               "--challenges", "3", "--response-size", "8", "--out-dir", str(tmp_path)) == 0
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [record]) + "\n")
    capsys.readouterr()
    assert run("metrics", "--crps", str(path), "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line {len(lines) + 1}: ") and len(err.splitlines()) == 1


_HEX_64 = "0123456789abcdef"


@pytest.mark.parametrize("value", ["zz" * 8, "ab", _HEX_64 * 2 + "0123"])
def test_bad_challenge_hex_option_is_an_error(tmp_path, capsys, value):
    device = tmp_path / "dev.txt"
    run("device", "new", "--design", "pa-puf", "--stages", "64", "--seed", "5",
        "--out-dir", str(tmp_path), "--out", str(device))
    helper = tmp_path / "helper.txt"
    assert run("keygen", "enroll", "--device", str(device), "--challenge-hex", _HEX_64,
               "--out-dir", str(tmp_path), "--helper-out", str(helper)) == 0
    for command in ("enroll", "reproduce"):
        capsys.readouterr()
        argv = ["keygen", command, "--device", str(device), "--challenge-hex", value,
                "--out-dir", str(tmp_path / "again")]
        argv += ["--helper-out", str(tmp_path / "h2.txt")] if command == "enroll" else ["--helper", str(helper)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --challenge-hex: expected 16 hex digits") and len(err.splitlines()) == 1
    assert not (tmp_path / "h2.txt").exists() and not (tmp_path / "again").exists()


def test_challenge_hex_with_nonzero_padding_is_an_error(tmp_path, capsys):
    # 12 stages take 4 hex digits; the last digit holds the 4 padding bits
    device = tmp_path / "dev.txt"
    run("device", "new", "--design", "pa-puf", "--stages", "12", "--seed", "5",
        "--out-dir", str(tmp_path), "--out", str(device))
    capsys.readouterr()
    assert run("keygen", "enroll", "--device", str(device), "--challenge-hex", "a5c3",
               "--out-dir", str(tmp_path / "out"), "--helper-out", str(tmp_path / "h.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --challenge-hex: nonzero padding bits after bit 12") and len(err.splitlines()) == 1
    assert not (tmp_path / "h.txt").exists()


@pytest.mark.parametrize(
    "key, value",
    [("# challenge_hex", "zz" * 8), ("# challenge_hex", "ab"), ("# challenge_hex", _HEX_64 * 2 + "0123"),
     ("offset_hex", "zz" * 16), ("offset_hex", "ab")],
)
def test_bad_recorded_challenge_or_offset_hex_names_the_file_and_key(tmp_path, capsys, key, value):
    device = tmp_path / "dev.txt"
    run("device", "new", "--design", "pa-puf", "--stages", "64", "--seed", "5",
        "--out-dir", str(tmp_path), "--out", str(device))
    helper = tmp_path / "helper.txt"
    assert run("keygen", "enroll", "--device", str(device), "--out-dir", str(tmp_path),
               "--helper-out", str(helper)) == 0
    lines = [f"{key}={value}" if l.startswith(f"{key}=") else l for l in helper.read_text().splitlines()]
    helper.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("keygen", "reproduce", "--device", str(device), "--helper", str(helper),
               "--out-dir", str(tmp_path / "again")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {helper}: bad {key!r}: expected ") and len(err.splitlines()) == 1
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("design,taps", [("pa-puf", []), ("ff-pa-puf", ["--ff-taps", "4:9"])])
@pytest.mark.parametrize("votes", ["0", "-1", "4"])
def test_votes_must_be_a_positive_odd_count(tmp_path, capsys, design, taps, votes):
    device = tmp_path / "dev.txt"
    assert run("device", "new", "--design", design, "--stages", "16", *taps, "--seed", "5",
               "--sigma-noise", "1.0", "--out-dir", str(tmp_path), "--out", str(device)) == 0
    helper = tmp_path / "helper.txt"
    assert run("keygen", "enroll", "--device", str(device), "--response-size", "16", "--code-m", "4",
               "--code-t", "2", "--out-dir", str(tmp_path), "--helper-out", str(helper)) == 0
    for command in ("enroll", "reproduce"):
        capsys.readouterr()
        argv = ["keygen", command, "--device", str(device), "--response-size", "16", "--votes", votes,
                "--out-dir", str(tmp_path / "again")]
        argv += ["--helper-out", str(tmp_path / "h2.txt"), "--code-m", "4", "--code-t", "2"] if command == "enroll" \
            else ["--helper", str(helper)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --votes: expected a positive odd count, got {votes}\n"
    assert not (tmp_path / "h2.txt").exists() and not (tmp_path / "again").exists()


def test_unknown_compare_design_is_an_error(tmp_path, capsys):
    assert run("attack", "compare", "--designs", "apuf,foo", "--stages", "16", "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown design 'foo'; expected one of apuf, ff-pa-puf, pa-puf\n"


def test_unknown_config_file_design_is_an_error(tmp_path, capsys):
    config = tmp_path / "experiment.kv"
    config.write_text("design=foo\nstages=16\n")
    assert run("crp", "gen", "--config", str(config), "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown design 'foo'; expected one of apuf, ff-pa-puf, pa-puf\n"
    assert not (tmp_path / "crps.csv").exists()


def test_code_m_without_a_primitive_polynomial_is_an_error(tmp_path, capsys):
    device = tmp_path / "dev.txt"
    assert run("device", "new", "--stages", "16", "--seed", "5", "--out-dir", str(tmp_path), "--out", str(device)) == 0
    capsys.readouterr()
    assert run("keygen", "enroll", "--device", str(device), "--code-m", "9", "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == "error: unsupported code parameter m=9; expected m in 3, 4, 5, 6, 7, 8\n"
    assert not (tmp_path / "helper.txt").exists()


def test_code_t_below_one_is_an_error(tmp_path, capsys):
    device = tmp_path / "dev.txt"
    assert run("device", "new", "--stages", "16", "--seed", "5", "--out-dir", str(tmp_path), "--out", str(device)) == 0
    capsys.readouterr()
    assert run("keygen", "enroll", "--device", str(device), "--code-t", "0", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: code parameter t=0 must be at least 1\n"
    assert not (tmp_path / "helper.txt").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("t=10", "t=0", "code parameter t=0 must be at least 1"),
        ("primitive_poly=0x89", "primitive_poly=0x81", "polynomial 0x81 is not primitive over GF(2^7)"),
        ("primitive_poly=0x89", "primitive_poly=0xff", "polynomial 0xff is not primitive over GF(2^7)"),
        ("m=7", "m=20", "unsupported code parameter m=20; expected m in 3, 4, 5, 6, 7, 8"),
        ("k=64", "k=65", "n=127, k=65 do not match bch(127,64,10) of m=7, t=10"),
    ],
)
def test_invalid_code_in_a_helper_file_is_an_error_not_a_key(tmp_path, capsys, old, new, message):
    device, helper, out = tmp_path / "dev.txt", tmp_path / "helper.txt", tmp_path / "again"
    assert run("device", "new", "--stages", "16", "--seed", "5", "--out-dir", str(tmp_path), "--out", str(device)) == 0
    assert run("keygen", "enroll", "--device", str(device), "--out-dir", str(tmp_path),
               "--helper-out", str(helper)) == 0
    lines = helper.read_text().splitlines()
    assert old in lines
    helper.write_text("\n".join(new if line == old else line for line in lines) + "\n")
    capsys.readouterr()
    assert run("keygen", "reproduce", "--device", str(device), "--helper", str(helper), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {helper}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("pair", ["3", "16:x", "1:2:3"])
def test_malformed_ff_tap_pair_is_named(tmp_path, capsys, pair):
    assert run("device", "new", "--design", "ff-pa-puf", "--stages", "64", "--ff-taps", f"8:12,{pair}",
               "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: bad feed-forward tap {pair!r}: expected tap:target, e.g. 16:32\n"
    assert not (tmp_path / "device.txt").exists()


@pytest.mark.parametrize(
    "command",
    [["device", "new"], ["crp", "gen"], ["sweep", "ff", "--seeds", "1"], ["sweep", "size", "--seeds", "1"]],
)
def test_an_invalid_config_is_checked_before_it_is_echoed(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(*command, "--design", "ff-pa-puf", "--ff-taps", "3", "--stages", "64", "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "effective-config.kv").exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["ff", "--taps", "-1"], "feed-forward tap count must be >= 0, got -1"),
        (["ff", "--taps", "1,x"], "--taps: expected comma-separated integers, got '1,x'"),
        (["ff", "--taps", "99"], "cannot place 99 feed-forward taps on 64 stages"),
        (["size", "--sizes", "8,7"], "response size must be one of (8, 16, 32, 64, 128), got 7"),
    ],
)
def test_invalid_sweep_values_are_checked_before_the_config_is_echoed(tmp_path, capsys, command, message):
    out = tmp_path / "out"
    assert run("sweep", *command, "--seeds", "1", "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "effective-config.kv").exists()


def test_negative_sweep_tap_count_is_an_error(tmp_path, capsys):
    assert run("sweep", "ff", "--stages", "16", "--taps", "-1", "--seeds", "1", "--out-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: feed-forward tap count must be >= 0, got -1\n"
    assert not (tmp_path / "sweep_ff.csv").exists()


def test_attack_compare_csv_has_five_fields_on_every_row(tmp_path, capsys):
    rc = run(
        "attack", "compare", "--designs", "apuf,pa-puf,ff-pa-puf", "--stages", "16",
        "--budget", "256", "--seeds", "1", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    text = (tmp_path / "attack_compare.csv").read_text()
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert [len(row) for row in rows] == [5] * 7  # the header, then three designs x two feature maps
    assert [row[0] for row in rows[1::2]] == [
        "design=APUF;stages=16;taps=none",
        "design=PA_PUF;stages=16;taps=none",
        "design=FF_PA_PUF;stages=16;taps=4:8,8:12",
    ]
    assert text.count('"') == 4  # only the two feed-forward rows are quoted


def test_readme_walkthrough_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.startswith("papuf ")]
    assert len(commands) == 14
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


@pytest.mark.parametrize(
    "command,message",
    [
        (["attack", "compare", "--stages", "16", "--budget", "1024"], "the attack comparison needs at least one seed"),
        (["sweep", "ff", "--stages", "16", "--sigma-noise", "1.0", "--taps", "0,1"], "a sweep needs at least one seed"),
        (["sweep", "size", "--stages", "16", "--sigma-noise", "1.0", "--sizes", "8"], "a sweep needs at least one seed"),
    ],
)
def test_empty_seed_list_is_an_error_not_a_nan_row(tmp_path, capsys, command, message):
    for seeds in ("0", "-2"):
        assert run(*command, "--seeds", seeds, "--out-dir", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and "nan" not in captured.out
    assert not list(tmp_path.glob("*.csv"))


def test_config_hash_stable():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
