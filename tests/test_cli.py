"""CLI and file-format tests: config parsing, trace round-trips, commands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from blockroll import cli
from blockroll.denoisers import AnalyticGaussianDenoiser, TinyAttentionDenoiser
from blockroll.engine import run
from blockroll.schedule import Orientation, Policy, PolicyConfig, schedule_for

BASE_CONFIG = """
# rollout configuration
policy = rolling-sink
K = 6
S = 5
horizon = 12
seed = 3
frame_dim = 2
denoiser = context-mean
anchor_weight = 0.5
innovation_scale = 0.1
bias = 0.01
"""


def write_config(tmp_path, text=BASE_CONFIG, name="rollout.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------------------
# config format
# --------------------------------------------------------------------------

def test_config_defaults_mirror_the_contract():
    cfg = cli.parse_config_text("")
    assert (cfg.policy.K, cfg.policy.S, cfg.policy.block_size) == (6, 5, 3)
    assert cfg.timesteps.count == 4
    assert cfg.seed == 0


def test_config_parses_all_sections():
    cfg = cli.parse_config_text(BASE_CONFIG)
    assert cfg.policy.policy is Policy.ROLLING_SINK
    assert cfg.horizon == 12
    assert cfg.seed == 3
    assert cfg.denoiser.anchor_weight == 0.5


def test_unknown_config_key_is_rejected():
    with pytest.raises(cli.UsageError, match="unknown config key: sink_ratio"):
        cli.parse_config_text("sink_ratio = 83")


def test_duplicate_config_key_is_rejected():
    with pytest.raises(cli.UsageError, match="duplicate"):
        cli.parse_config_text("K = 6\nK = 7")


def test_unparseable_value_is_rejected():
    with pytest.raises(cli.UsageError, match="cannot parse"):
        cli.parse_config_text("K = six")


def test_denoiser_parameter_mismatch_is_rejected():
    with pytest.raises(cli.UsageError, match="not valid for denoiser"):
        cli.parse_config_text("denoiser = context-mean\nrho = 0.5")


def test_explicit_timesteps_are_supported():
    cfg = cli.parse_config_text("timesteps = 1000,600,0")
    assert cfg.timesteps.steps == (1000.0, 600.0, 0.0)
    with pytest.raises(cli.UsageError, match="not both"):
        cli.parse_config_text("T = 2\ntimesteps = 1000,0")


def test_invalid_sink_size_in_config_is_a_usage_error():
    with pytest.raises(cli.UsageError, match="S must be < K"):
        cli.parse_config_text("K = 6\nS = 6")


def test_analytic_and_attention_denoisers_are_constructible():
    cfg = cli.parse_config_text("denoiser = analytic-gaussian\nrho = 0.7")
    assert isinstance(cfg.denoiser, AnalyticGaussianDenoiser)
    cfg = cli.parse_config_text(
        "denoiser = tiny-attention\nmodel_dim = 16\nhead_count = 2\nframe_dim = 5"
    )
    assert isinstance(cfg.denoiser, TinyAttentionDenoiser)
    assert cfg.denoiser.model_dim == 16


# --------------------------------------------------------------------------
# trace format
# --------------------------------------------------------------------------

def test_trace_round_trips_exactly(tmp_path):
    cfg = cli.parse_config_text(BASE_CONFIG)
    trace = run(cfg)
    path = tmp_path / "trace.jsonl"
    cli.write_trace(trace, str(path))
    parsed = cli.read_trace(str(path))
    assert len(parsed.records) == len(trace.records)
    for original, reread in zip(trace.records, parsed.records):
        assert reread.step == original.step
        assert reread.schedule == original.schedule
        assert reread.mean == original.mean
        assert reread.var == original.var
        assert reread.seed == original.seed
        assert np.array_equal(reread.frames, original.frames)
    # and writing the parsed trace reproduces the same bytes
    path2 = tmp_path / "trace2.jsonl"
    cli.write_trace(parsed, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_records_omit_frames_when_not_recorded(tmp_path):
    cfg = cli.parse_config_text(BASE_CONFIG + "record_frames = false\n")
    trace = run(cfg)
    lines = cli.trace_to_lines(trace)
    assert all("frames" not in json.loads(line) for line in lines)
    path = tmp_path / "nf.jsonl"
    cli.write_trace(trace, str(path))
    assert cli.read_trace(str(path)).records[0].frames is None


VALID_RECORD = ('{"step":0,"schedule":[],"frame_stats":{"mean":0.0,"var":1.0},'
                '"frames":[[0.0,1.0]],"seed":0}')
NEXT_RECORD = VALID_RECORD.replace('"step":0', '"step":1')


# Each bad line follows VALID_RECORD and differs from its valid successor,
# NEXT_RECORD, by one defect, which the matched reason names.
@pytest.mark.parametrize("line, reason", [
    ('{"step": 1}', "'schedule'"),
    (NEXT_RECORD.replace('"schedule":[]', '"schedule":5'), "not iterable"),
    (NEXT_RECORD.replace('"schedule":[]', '"schedule":[5]'), "not subscriptable"),
    (NEXT_RECORD.replace('{"mean":0.0,"var":1.0}', '[]'), "list indices"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '{}'), "frames must be a list of rows"),
    ("[" + NEXT_RECORD + "]", "list indices"),
    ("5", "not subscriptable"),
    (NEXT_RECORD.replace('"mean":0.0', '"mean":"x"'), "mean must be a number"),
    (NEXT_RECORD.replace('"var":1.0', '"var":false'), "var must be a number"),
    (NEXT_RECORD.replace('"mean":0.0', '"mean":NaN'), "NaN is not a finite"),
    (NEXT_RECORD.replace('"var":1.0', '"var":-Infinity'), "-Infinity is not a finite"),
    (NEXT_RECORD.replace('"step":1', '"step":true'), "step must be an integer"),
    (NEXT_RECORD.replace('"step":1', '"step":5'), "step 5 does not follow step 0"),
    (NEXT_RECORD.replace('"seed":0', '"seed":1'), "seed 1 differs"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,1.0,2.0]]'), r"frames shape \(1, 3\) differs"),
    (NEXT_RECORD.replace(',"frames":[[0.0,1.0]]', ''), "frames shape None differs"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[["0","1"]]'), "frames must be a list of rows"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,true]]'), "frames must be a list of rows"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,Infinity]]'), "Infinity is not a finite"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[0.0,1.0]'), "frames must be a list of rows"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,1.0],[0.0]]'), "inhomogeneous"),
], ids=["missing-keys", "schedule-int", "slot-int", "frame-stats-list",
        "frames-object", "line-is-list", "line-is-number", "mean-string",
        "var-bool", "mean-nan", "var-infinity", "step-bool", "step-gap",
        "mixed-seeds", "frame-width-change", "frames-dropped", "frames-strings",
        "frames-bool", "frames-infinity", "frames-1d", "frames-ragged"])
def test_malformed_trace_is_rejected(tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(VALID_RECORD + "\n" + line + "\n")
    with pytest.raises(cli.UsageError,
                       match=r"trace line 2: malformed record \(.*" + reason):
        cli.read_trace(str(path))


def test_valid_successor_is_accepted(tmp_path):
    path = tmp_path / "good.jsonl"
    path.write_text(VALID_RECORD + "\n" + NEXT_RECORD + "\n")
    assert [record.step for record in cli.read_trace(str(path)).records] == [0, 1]


@pytest.mark.parametrize("line", [
    VALID_RECORD.replace('"schedule":[]', '"schedule":5'),
    VALID_RECORD.replace('"mean":0.0', '"mean":"x"'),
], ids=["schedule-int", "mean-string"])
def test_metrics_on_malformed_trace_exits_one_without_traceback(tmp_path, capsys,
                                                                 line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    assert cli.main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 1: malformed record")
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# schedule command
# --------------------------------------------------------------------------

def test_schedule_command_matches_library_output(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    rc = cli.main([
        "schedule", "--policy", "rolling-sink", "-K", "6", "-S", "2",
        "-i", "14", "--convention", "palindrome", "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "i,slot_rank,content_id,orientation,assigned_index"
    assert rows[1:] == [
        "14,0,3,reversed,8",
        "14,1,2,reversed,9",
        "14,2,10,forward,10",
        "14,3,11,forward,11",
        "14,4,12,forward,12",
        "14,5,13,forward,13",
    ]


def test_schedule_command_step_zero_prints_no_rows(tmp_path):
    out = tmp_path / "empty.csv"
    rc = cli.main(["schedule", "--policy", "sliding-window", "-K", "6",
                   "-i", "0", "--out", str(out)])
    assert rc == 0
    assert out.read_text().strip().splitlines() == [
        "i,slot_rank,content_id,orientation,assigned_index"
    ]


def test_schedule_command_supports_ranges(capsys):
    rc = cli.main(["schedule", "--policy", "sliding-window", "-K", "3", "-S", "0",
                   "-i", "0:3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 0 + 1 + 2  # header + schedules of size 0, 1, 2


def test_schedule_command_rejects_invalid_sink(capsys):
    rc = cli.main(["schedule", "-S", "6", "-K", "6", "-i", "3"])
    assert rc == 1
    assert "S must be < K" in capsys.readouterr().err


def test_schedule_command_rejects_bad_range(capsys):
    rc = cli.main(["schedule", "-i", "abc"])
    assert rc == 1


# --------------------------------------------------------------------------
# rollout command
# --------------------------------------------------------------------------

def test_rollout_writes_one_line_per_step(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG.replace("horizon = 12",
                                                        "horizon = 3"))
    out = tmp_path / "t.jsonl"
    assert cli.main(["rollout", config, "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_rollout_is_byte_identical_across_runs(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["rollout", config, "--out", str(out1)]) == 0
    assert cli.main(["rollout", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rollout_seed_override_changes_the_trace(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli.main(["rollout", config, "--out", str(out1)])
    cli.main(["rollout", config, "--out", str(out2), "--seed", "99"])
    assert out1.read_bytes() != out2.read_bytes()


def test_rollout_trace_lines_carry_the_live_schedule(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG.replace("horizon = 12",
                                                        "horizon = 50"))
    out = tmp_path / "t.jsonl"
    cli.main(["rollout", config, "--out", str(out)])
    line20 = json.loads(out.read_text().splitlines()[20])
    assert line20["step"] == 20
    expected = schedule_for(PolicyConfig(K=6, S=5), 20)
    got = [(s["content"], s["orient"], s["index"]) for s in line20["schedule"]]
    assert got == [
        (s.content_id, s.orientation.value, s.assigned_index)
        for s in expected.slots
    ]


def test_rollout_missing_config_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["rollout", str(tmp_path / "nope.cfg"), "--out",
                   str(tmp_path / "t.jsonl")])
    assert rc == 1


def test_rollout_unwritable_output_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path)
    rc = cli.main(["rollout", config, "--out",
                   str(tmp_path / "missing_dir" / "t.jsonl")])
    assert rc == 1


def test_non_finite_rollout_exits_one_and_writes_no_trace(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG.replace("bias = 0.01", "bias = 1e308"))
    out = tmp_path / "t.jsonl"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["rollout", config, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace record for step ")
    assert "inf or NaN" in err
    assert not out.exists()


def test_internal_invariant_maps_to_exit_code_two(tmp_path, monkeypatch, capsys):
    from blockroll.engine import InternalInvariantError

    def boom(cfg):
        raise InternalInvariantError("synthetic")

    monkeypatch.setattr(cli, "run", boom)
    config = write_config(tmp_path)
    rc = cli.main(["rollout", config, "--out", str(tmp_path / "t.jsonl")])
    assert rc == 2
    assert "internal invariant" in capsys.readouterr().err


# --------------------------------------------------------------------------
# metrics command
# --------------------------------------------------------------------------

def make_trace_file(tmp_path, extra=""):
    config = write_config(tmp_path, BASE_CONFIG + extra)
    out = tmp_path / "trace.jsonl"
    assert cli.main(["rollout", config, "--out", str(out)]) == 0
    return out


def test_metrics_csv_has_one_row_per_step(tmp_path):
    trace = make_trace_file(tmp_path)
    out = tmp_path / "m.csv"
    rc = cli.main(["metrics", str(trace),
                   "--metrics", "mean_drift,flicker_proxy", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,mean_drift,flicker_proxy"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_metrics_unknown_name_lists_valid_ones(tmp_path, capsys):
    trace = make_trace_file(tmp_path)
    rc = cli.main(["metrics", str(trace), "--metrics", "sparkle"])
    assert rc == 1
    err = capsys.readouterr().err
    for name in ("mean_drift", "flicker_proxy", "repetition_score"):
        assert name in err


def test_metrics_on_frameless_trace_fails_cleanly(tmp_path, capsys):
    trace = make_trace_file(tmp_path, extra="record_frames = false\n")
    assert cli.main(["metrics", str(trace), "--metrics", "mean_drift"]) == 0
    rc = cli.main(["metrics", str(trace), "--metrics", "flicker_proxy"])
    assert rc == 1


# --------------------------------------------------------------------------
# sweep command
# --------------------------------------------------------------------------

SWEEP_CONFIG = """
K = 6
S = 5
horizon = 8
seed = 0
frame_dim = 2
denoiser = context-mean
anchor_weight = 1.0
bias = 0.05
"""


def test_single_cell_sweep_emits_three_policy_variants(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", config, "--ratios", "50", "--horizons", "8",
                   "--seeds", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("ratio,S,K,policy,horizon,seed")
    assert len(lines) == 4
    policies = [line.split(",")[3] for line in lines[1:]]
    assert policies == ["attention-sink", "sliding-indices", "rolling-sink"]
    assert all(line.split(",")[1] == "3" for line in lines[1:])


def test_default_ratio_grid_maps_to_every_sink_size(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", config, "--horizons", "8", "--seeds", "1",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()[1:]
    cells = {(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines}
    assert cells == {(0, 0), (17, 1), (33, 2), (50, 3), (67, 4), (83, 5)}


def test_full_grid_row_count(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", config, "--horizons", "8,12", "--seeds", "5",
                   "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 6 * 2 * 3 * 5


def test_sweep_rejects_ratio_without_integer_sink_size(tmp_path, capsys):
    config = write_config(tmp_path, SWEEP_CONFIG)
    rc = cli.main(["sweep", config, "--ratios", "25", "--horizons", "8"])
    assert rc == 1
    assert "integer sink size" in capsys.readouterr().err


def test_sweep_is_deterministic(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["sweep", config, "--ratios", "0,83", "--horizons", "8",
              "--seeds", "2", "--out", str(out1)])
    cli.main(["sweep", config, "--ratios", "83,0", "--horizons", "8",
              "--seeds", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sink_size_for_ratio_round_trip():
    for K in range(1, 9):
        for S in range(K):
            ratio = round(100 * S / K)
            assert cli.sink_size_for_ratio(ratio, K) == S


def test_orientation_serialization_is_stable():
    assert Orientation.FORWARD.value == "F"
    assert Orientation.REVERSED.value == "R"
