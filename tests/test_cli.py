"""CLI and file-format tests: config parsing, trace round-trips, commands."""

from __future__ import annotations

import json
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from dataclasses import replace
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blockroll import cli, engine
from blockroll import schedule as schedules
from blockroll.denoisers import (AnalyticGaussianDenoiser, ContextMeanDenoiser,
                                 TinyAttentionDenoiser)
from blockroll.engine import RolloutConfig, TraceRecord, run
from blockroll.metrics import flicker_proxy, mean_drift, repetition_score
from blockroll.sampler import _CHUNK
from blockroll.schedule import Orientation, Policy, PolicyConfig, RollConvention, schedule_for
from trace_oracle import record_to_obj

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
    assert cfg.timesteps.steps == (1000.0, 750.0, 500.0, 250.0, 0.0)
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


TINY = "denoiser = tiny-attention\n"


# Each document's full message, so a rewrite of the parser keeps every text
# and the order in which the checks run.
@pytest.mark.parametrize("text, message", [
    ("K 6", "config line 1: expected 'key = value'"),
    ("K = 6\nsink_ratio = 83", "unknown config key: sink_ratio"),
    ("K = 6\nK = 7", "duplicate config key: K"),
    ("K = six", "config key K: cannot parse value 'six'"),
    ("rho = x\ndenoiser = analytic-gaussian", "config key rho: cannot parse value 'x'"),
    ("record_frames = yes", "config key record_frames: cannot parse value 'yes'"),
    ("policy = lru", "unknown policy 'lru'; valid: sliding-window, attention-sink, "
                     "sliding-indices, rolling-sink"),
    ("convention = zigzag", "unknown convention 'zigzag'; valid: palindrome, literal-mod"),
    ("denoiser = unet", "unknown denoiser 'unet'; valid: analytic-gaussian, "
                        "context-mean, tiny-attention"),
    ("K = 6\nS = 6", "S must be < K and >= 0 (got S=6, K=6); at least one recent "
                     "slot is required"),
    ("K = 0\nS = 0", "K must be >= 1 (got K=0)"),
    ("block_size = 0", "block_size must be >= 1 (got 0)"),
    ("T = 2\ntimesteps = 1000,0", "set either T or timesteps, not both"),
    ("timesteps = 1000,0,500", "config key timesteps: timesteps must be strictly "
                               "decreasing: (1000.0, 0.0, 500.0)"),
    ("timesteps = 1000", "config key timesteps: need at least two timesteps (t_T and t_0)"),
    ("timesteps = a,0", "config key timesteps: could not convert string to float: 'a'"),
    ("timesteps = 1000,nan,0", "config key timesteps: timesteps must be strictly "
                               "decreasing: (1000.0, nan, 0.0)"),
    ("T = 0", "config key T: count must be >= 1 (got 0)"),
    ("denoiser = context-mean\nrho = 0.5",
     "config key rho is not valid for denoiser context-mean"),
    ("model_dim = 16", "config key model_dim is not valid for denoiser context-mean"),
    ("denoiser = analytic-gaussian\nrho = 1", "rho must lie in (-1, 1) (got 1.0)"),
    ("anchor_weight = 1.5", "anchor_weight must lie in [0, 1] (got 1.5)"),
    ("innovation_scale = nan", "innovation_scale must be >= 0 (got nan)"),
    ("bias = nan", "bias must be a finite number (got nan)"),
    ("bias = 1e400", "bias must be a finite number (got inf)"),
    (TINY + "model_dim = 30", "model_dim 30 not divisible by head_count 4"),
    (TINY + "model_dim = 12\nhead_count = 4", "head dim 3 must be even for rotation"),
    ("horizon = 0", "horizon must be >= 1 (got 0)"),
    ("frame_dim = 0", "frame_dim must be >= 1 (got 0)"),
    (TINY + "frame_dim = 0", "frame_dim, model_dim, head_count, layer_count must be >= 1"),
    # value parsing runs before the enums, the enums before the geometry, the
    # timesteps before the denoiser, and the denoiser before horizon
    ("policy = lru\nK = six", "config key K: cannot parse value 'six'"),
    ("S = 9\npolicy = lru", "unknown policy 'lru'; valid: sliding-window, "
                            "attention-sink, sliding-indices, rolling-sink"),
    ("denoiser = unet\nT = 0", "config key T: count must be >= 1 (got 0)"),
    ("horizon = 0\nanchor_weight = 2", "anchor_weight must lie in [0, 1] (got 2.0)"),
])
def test_config_error_messages(text, message):
    with pytest.raises(cli.UsageError) as excinfo:
        cli.parse_config_text(text)
    assert str(excinfo.value) == message


SMALL_INTS = st.integers(-2, 64).map(str)
FLOATS = st.sampled_from(["0", "0.5", "-0.1", "1.0", "0.9", "2.5", "1e400", "nan", "-inf"])
# Each key's well-typed values, some of them out of range. Integers stay small:
# a frame_dim of 10**12 or a T of 10**9 would allocate at scale before any
# check could refuse it.
TYPED_VALUES = {
    **dict.fromkeys(["K", "S", "block_size", "T", "horizon", "seed", "frame_dim",
                     "model_dim", "head_count", "layer_count", "weight_seed"], SMALL_INTS),
    **dict.fromkeys(["rho", "anchor_weight", "innovation_scale", "bias"], FLOATS),
    "policy": st.sampled_from([p.value for p in Policy] + ["lru"]),
    "convention": st.sampled_from(["palindrome", "literal-mod", "zigzag"]),
    "denoiser": st.sampled_from(["analytic-gaussian", "context-mean", "tiny-attention",
                                 "unet"]),
    "timesteps": st.sampled_from(["1000,0", "1000,500,0", "1000,0,500", "900,0",
                                  "1000", "1000,a"]),
    "record_frames": st.sampled_from(["true", "false", "True", "yes"]),
}
JUNK_VALUES = st.sampled_from(["", "x", "six", "1,2", "-"]) | st.text(max_size=4)


DENOISER_KEYS = {
    "analytic-gaussian": {"rho"},
    "context-mean": {"anchor_weight", "innovation_scale", "bias"},
    "tiny-attention": {"model_dim", "head_count", "layer_count", "weight_seed"},
}


@st.composite
def config_documents(draw) -> str:
    """Distinct keys of the full vocabulary, mostly with well-typed values
    and only the selected denoiser's keys, plus the odd junk value, junk key,
    duplicate key, comment, blank line or line without '='."""
    keys = draw(st.lists(st.sampled_from(sorted(TYPED_VALUES)), unique=True, max_size=8))
    values = {key: draw(TYPED_VALUES[key] if draw(st.integers(0, 9)) else JUNK_VALUES)
              for key in keys}
    own = DENOISER_KEYS.get(values.get("denoiser", "context-mean"), set())
    if draw(st.integers(0, 9)):
        values = {key: value for key, value in values.items()
                  if key in own or not any(key in k for k in DENOISER_KEYS.values())}
    lines = [f"{key} = {value}" for key, value in values.items()]
    for _ in range(draw(st.integers(0, 2)) // 2):
        junk = draw(st.sampled_from(["sink_ratio = 1", "Rho = 0.5", "= 1", "K 6", "",
                                     "# comment = x"] + lines[:1]))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@given(config_documents())
def test_config_document_parses_or_is_a_usage_error(text):
    try:
        cfg = cli.parse_config_text(text)
    except cli.UsageError:
        return
    assert isinstance(cfg, RolloutConfig)


SCHEDULE_FLAGS = {"--policy": TYPED_VALUES["policy"], "-K": SMALL_INTS, "-S": SMALL_INTS,
                  "--block-size": SMALL_INTS, "--convention": TYPED_VALUES["convention"],
                  "-i": SMALL_INTS | st.builds("{}:{}".format, st.integers(-2, 64),
                                               st.integers(-2, 64))}


@st.composite
def schedule_argv(draw) -> list[str]:
    """`blockroll schedule` with distinct flags, mostly with well-typed
    values, plus the odd junk value or unknown flag."""
    flags = draw(st.lists(st.sampled_from(sorted(SCHEDULE_FLAGS)), unique=True,
                          max_size=6))
    argv = ["schedule"]
    for flag in flags:
        value = draw(SCHEDULE_FLAGS[flag] if draw(st.integers(0, 9)) else JUNK_VALUES)
        argv += [flag, value]
    if not draw(st.integers(0, 9)):
        argv.append("--bogus")
    return argv


@given(schedule_argv())
def test_schedule_command_exits_zero_or_one(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 1 and err.getvalue().startswith("error:")


# --------------------------------------------------------------------------
# trace format
# --------------------------------------------------------------------------

def test_trace_round_trips_exactly(tmp_path):
    cfg = cli.parse_config_text(BASE_CONFIG)
    trace = run(cfg)
    path = tmp_path / "trace.jsonl"
    cli.write_trace(trace, str(path))
    parsed = cli.read_trace(str(path))
    assert len(parsed) == len(trace)
    for original, reread in zip(trace, parsed):
        assert reread.step == original.step
        assert reread.policy is None  # slots are checked, not kept
        assert reread.mean == original.mean
        assert reread.var == original.var
        assert reread.seed == original.seed
        assert np.array_equal(reread.frames, original.frames)


READ_BACK = "trace record for step 0 was read back from a trace and holds no schedule"


def file_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def test_records_read_back_are_not_written_again(tmp_path, monkeypatch):
    # a record read back holds no schedule to write; the writer refuses it
    # before it opens the file, which so stays absent or as it was, and main
    # maps the refusal to exit 1
    config = write_config(tmp_path)
    first = tmp_path / "first.jsonl"
    assert cli.main(["rollout", config, "--out", str(first)]) == 0
    records = cli.read_trace(str(first))
    monkeypatch.setattr(cli, "run", lambda cfg: records)
    for existing in (None, b'{"step":0}\n'):
        again = tmp_path / f"again-{existing is None}.jsonl"
        if existing is not None:
            again.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{READ_BACK}$"):
            cli.write_trace(records, str(again))
        assert file_bytes(again) == existing
        assert run_main(["rollout", config, "--out", str(again)]) == (
            1, f"error: {READ_BACK}\n")
        assert file_bytes(again) == existing


def test_a_record_of_a_negative_step_is_refused_before_writing(tmp_path):
    records = slot_records(PolicyConfig(K=4, S=2), [0, 1, -1])
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError, match=r"^step index must be >= 0 \(got -1\)$"):
        cli.write_trace(records, str(path))
    assert not path.exists()


ROWS = "frames must be a list of rows of numbers, none empty"


@pytest.mark.parametrize("field, value, message", [
    *[(field, value, f"{field} must be an integer, got {value!r}") for field, value in (
        ("step", 70.0), ("step", 70.5), ("step", True), ("seed", 2.5), ("seed", False),
        ("seed", "0"))],
    *[("frames", np.zeros((2, 3), dtype), ROWS) for dtype in (complex, bool, object)],
    ("mean", np.float32(0.5), "mean must be a number, got np.float32(0.5)"),
    ("mean", True, "mean must be a number, got True"),
    ("var", 10**400, "int too large to convert to float")],
    ids=["step-70.0", "step-70.5", "step-True", "seed-2.5", "seed-False", "seed-0",
         "frames-value6", "frames-value7", "frames-value8", "mean-float32", "mean-True",
         "var-huge-int"])
def test_a_record_no_line_can_be_formed_for_is_refused_before_writing(
        tmp_path, monkeypatch, field, value, message):
    # %d would write a step of 70.0 as 70 and a seed of 2.5 as 2, where json.dumps
    # writes 70.0 and 2.5; a step of 70.5, complex frames, an np.float32 or bool
    # mean and an int var past the float range would raise only in their line,
    # past the first chunk; the reader refuses bool frames and a bool mean
    records = slot_records(PolicyConfig(K=4, S=2), range(71))
    setattr(records[70], field, value)
    config = write_config(tmp_path)
    monkeypatch.setattr(cli, "run", lambda cfg: records)
    path = tmp_path / "trace.jsonl"
    for existing in (None, b"an earlier trace\n"):
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.write_trace(records, str(path))
        assert file_bytes(path) == existing
        assert run_main(["rollout", config, "--out", str(path)]) == (1, f"error: {message}\n")
        assert file_bytes(path) == existing


@pytest.mark.parametrize("value", [np.array([[2**53 + 1, 2]]), [[0.0]],
                                   np.zeros((1, 2), np.float32)],
                         ids=["int64-past-2**53", "list", "float32"])
def test_frames_the_reader_would_not_give_back_are_refused_before_writing(
        tmp_path, monkeypatch, value):
    # frames are float64 arrays, as step() and read_trace make them: int64 frames
    # past 2**53 would read back rounded, float32 ones as float64, and a list
    # has no dtype to check
    records = [TraceRecord(i, PolicyConfig(K=4, S=2), 0.0, 1.0, np.zeros((1, 2)), 0)
               for i in range(71)]
    records[70].frames = value
    config = write_config(tmp_path)
    monkeypatch.setattr(cli, "run", lambda cfg: records)
    path = tmp_path / "trace.jsonl"
    for existing in (None, b"an earlier trace\n"):
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{ROWS}$"):
            cli.write_trace(records, str(path))
        assert file_bytes(path) == existing
        assert run_main(["rollout", config, "--out", str(path)]) == (1, f"error: {ROWS}\n")
        assert file_bytes(path) == existing


def test_numpy_integer_steps_and_seeds_are_written_as_ints():
    records = slot_records(PolicyConfig(K=4, S=2), range(12))
    numpy_records = [replace(r, step=np.int64(r.step), seed=np.uint64(2**64 - 1))
                     for r in records]
    assert list(cli.trace_to_lines(numpy_records)) == [
        reference_line(replace(r, seed=2**64 - 1)) for r in records]


def test_records_omit_frames_when_not_recorded(tmp_path):
    cfg = cli.parse_config_text(BASE_CONFIG + "record_frames = false\n")
    trace = run(cfg)
    lines = list(cli.trace_to_lines(trace))
    assert all("frames" not in json.loads(line) for line in lines)
    path = tmp_path / "nf.jsonl"
    cli.write_trace(trace, str(path))
    assert cli.read_trace(str(path))[0].frames is None


VALID_RECORD = ('{"step":0,"schedule":[],"frame_stats":{"mean":0.0,"var":1.0},'
                '"frames":[[0.0,1.0]],"seed":0}')
NEXT_RECORD = VALID_RECORD.replace('"step":0', '"step":1')


def with_slot(record: str, slot: str = '{"content":0,"orient":"F","index":0}') -> str:
    """record with `slot` as its one schedule slot."""
    return record.replace('"schedule":[]', '"schedule":[' + slot + ']')


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0, -3.0,
                               1e22, 2.0**53, 0.1])
STATS = st.one_of(FINITE, EDGE_FLOATS, FINITE.map(np.float64),
                  st.integers(-(2**63), 2**63))
POLICIES = st.integers(1, 7).flatmap(lambda K: st.builds(
    PolicyConfig, st.just(K), st.integers(0, K - 1), st.integers(1, 3),
    st.sampled_from(Policy), st.sampled_from(RollConvention)))
FRAME_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=4)


@st.composite
def rollouts(draw, min_size=0, max_size=4, shapes=FRAME_SHAPES) -> list[TraceRecord]:
    """Records shaped as one rollout: consecutive steps from a start past the
    fill or within it, one seed and one frame shape or none. Each record's
    policy is one of two, so that the slot text both slides and reseats."""
    start = draw(st.integers(0, 10**9) | st.integers(0, 30))
    policies = st.sampled_from([draw(POLICIES), draw(POLICIES)])
    seed = draw(st.integers(0, 2**64 - 1))
    shape = draw(st.none() | shapes)
    frames = st.none() if shape is None else hnp.arrays(np.float64, shape,
                                                        elements=FINITE | EDGE_FLOATS)
    return [TraceRecord(start + k, draw(policies), draw(STATS), draw(STATS), draw(frames),
                        seed) for k in range(draw(st.integers(min_size, max_size)))]


def reference_line(record: TraceRecord) -> str:
    return json.dumps(record_to_obj(record), separators=(",", ":"), allow_nan=False)


@given(rollouts())
def test_trace_lines_are_json_dumps_of_the_reference_object(records):
    lines = list(cli.trace_to_lines(records))
    assert lines == [reference_line(record) for record in records]
    assert list(cli.trace_to_lines(iter(records))) == lines


def same_number(read, written) -> bool:
    """read back as written: an int as that int, a float as that float (-0.0 too)."""
    if type(written) is int:
        return type(read) is int and read == written
    return type(read) is float and float.__repr__(read) == float.__repr__(written)


@given(records=rollouts(min_size=1, shapes=FRAME_SHAPES | hnp.array_shapes(
    min_dims=1, max_dims=3, min_side=0, max_side=3)))
def test_every_trace_write_trace_accepts_reads_back(records):
    # a frame shape that JSON rows cannot hold is refused before any file;
    # every other rollout reads back value for value
    shape = next((r.frames.shape for r in records if r.frames is not None), None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        if shape is not None and (len(shape) != 2 or 0 in shape):
            with pytest.raises(ValueError, match=f"^{ROWS}$"):
                cli.write_trace(records, str(path))
            assert not path.exists()
            return
        cli.write_trace(records, str(path))
        read = cli.read_trace(str(path))
    assert len(read) == len(records)
    for written, reread in zip(records, read):
        assert same_number(reread.step, written.step) and same_number(reread.seed, written.seed)
        assert same_number(reread.mean, written.mean) and same_number(reread.var, written.var)
        if written.frames is None:
            assert reread.frames is None
        else:
            assert reread.frames.dtype == np.float64 and reread.frames.shape == shape
            assert reread.frames.tobytes() == written.frames.tobytes()


# One defect in the second record of a three-record rollout, and the message
# that both the writer and the reader give for it.
DEFECTS = {
    "step-gap": ("step", 2, "step 2 does not follow step 0"),
    "seed-change": ("seed", 8, "seed 8 differs from the trace's seed 7"),
    "shape-change": ("frames", np.zeros((2, 4)),
                     "frames shape (2, 4) differs from the previous record's (2, 3)"),
    "frames-dropped": ("frames", None,
                       "frames shape None differs from the previous record's (2, 3)"),
    "frames-1d": ("frames", np.zeros(3), ROWS),
    "frames-3d": ("frames", np.zeros((1, 2, 3)), ROWS),
    "frames-3x0": ("frames", np.zeros((3, 0)), ROWS),
    "frames-0x4": ("frames", np.zeros((0, 4)), ROWS),
    "negative-step": ("step", -1, "step index must be >= 0 (got -1)"),
    "bool-step": ("step", True, "step must be an integer, got True"),
    "inf-mean": ("mean", np.inf, "mean inf is not a finite number"),
    "nan-frames": ("frames", np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]),
                   "frames hold a number that is not finite"),
}


@pytest.mark.parametrize("field, value, message", DEFECTS.values(), ids=DEFECTS)
def test_write_trace_refuses_what_read_trace_refuses(tmp_path, field, value, message):
    records = [TraceRecord(i, PolicyConfig(K=4, S=2), 0.5, 1.0, np.zeros((2, 3)), 7)
               for i in range(3)]
    setattr(records[1], field, value)
    path = tmp_path / "trace.jsonl"
    for existing in (None, b"an earlier trace\n"):
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.write_trace(records, str(path))
        assert file_bytes(path) == existing
    # the records' lines as json.dumps writes them; their slots, which the
    # reader checks apart, are left out. JSON has no inf or NaN: json.dumps
    # writes the literals Infinity and NaN, which the decoder refuses by name,
    # so the line holds 1e400, which decodes to inf, in their place
    lines = [json.dumps({"step": r.step, "schedule": [],
                         "frame_stats": {"mean": r.mean, "var": r.var},
                         **({} if r.frames is None else {"frames": r.frames.tolist()}),
                         "seed": r.seed}, separators=(",", ":")) for r in records[:2]]
    literal = re.search("Infinity|NaN", lines[1])
    path.write_text("\n".join(lines) + "\n")
    if literal:
        with pytest.raises(cli.UsageError, match=f"{literal[0]} is not a finite number"):
            cli.read_trace(str(path))
        path.write_text("\n".join(lines).replace(literal[0], "1e400") + "\n")
    with pytest.raises(cli.UsageError, match="^" + re.escape(
            f"trace line 2: malformed record ({message})") + "$"):
        cli.read_trace(str(path))


def slot_records(policy: PolicyConfig, steps) -> list[TraceRecord]:
    return [TraceRecord(i, policy, 0.0, 1.0, None, 0) for i in steps]


@pytest.mark.parametrize("K, S", [(1, 0), (2, 1), (4, 2), (6, 0), (6, 5), (7, 3), (13, 0)])
def test_slot_text_slides_and_reseats_as_the_schedule_text(tmp_path, K, S):
    # steps 0..6K+4: past the fill, three 2K periods of the rolling walk
    end = 6 * K + 5
    policies = [PolicyConfig(K, S, 1, policy, convention)
                for policy in Policy for convention in RollConvention]
    for policy in policies:
        lists = [slot_records(policy, range(seat, end)) for seat in (0, K + 3, 2 * K + 1)]
        # a fork's records: the fill policy's steps, then its own from step K
        fill = replace(policy, S=0, policy=Policy.ATTENTION_SINK)
        lists.append(slot_records(fill, range(K)) + slot_records(policy, range(K, end)))
        # a policy switch past the fill reseats
        for switch in (K + 2, 2 * K + 1):
            lists += [slot_records(policy, range(switch))
                      + slot_records(other, range(switch, end)) for other in policies]
        for records in lists:
            assert list(cli.trace_to_lines(records)) == [reference_line(r) for r in records]
        # a skipped step and a repeated one are not one rollout: refused, so
        # the walk never slides across them
        path = tmp_path / "trace.jsonl"
        for j in (1, K, K + 1, K + 2, 2 * K + 1):
            for steps, message in (([*range(j), *range(j + 1, end)],
                                    f"step {j + 1} does not follow step {j - 1}"),
                                   ([*range(j + 1), *range(j, end)],
                                    f"step {j} does not follow step {j}")):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    cli.write_trace(slot_records(policy, steps), str(path))
                assert not path.exists()


@pytest.mark.parametrize("policy", list(Policy))
def test_a_trace_is_written_from_at_most_two_schedules(tmp_path, monkeypatch, policy):
    # one seats the walk at the first record, one the sinks at step K+1; every
    # other record's slots slide from the record before
    K = 150
    records = run(RolloutConfig(PolicyConfig(K, K // 2, policy=policy),
                                AnalyticGaussianDenoiser(), horizon=2 * K + 2,
                                record_frames=False))
    steps, build = [], schedules.schedule_for
    monkeypatch.setattr(schedules, "schedule_for",
                        lambda cfg, i: steps.append(i) or build(cfg, i))
    cli.write_trace(records, str(tmp_path / "trace.jsonl"))
    assert steps == ([0] if policy is Policy.SLIDING_WINDOW else [0, K + 1])


@pytest.mark.parametrize("policy", list(Policy))
def test_a_trace_is_written_in_a_fraction_of_its_bytes(tmp_path, policy):
    # the lines are formed a chunk at a time as they are written, so the
    # writer holds O(K) slot text and each record's frames text, never the trace
    K = 150
    records = run(RolloutConfig(PolicyConfig(K, K // 2, policy=policy),
                                ContextMeanDenoiser(), horizon=8 * K))
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        cli.write_trace(records, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 3


def test_a_trace_is_written_without_a_text_per_record(tmp_path):
    # at K=6 a record's frames text is most of its line: the writer forms it in
    # the line, so it holds one chunk of lines and no text per record
    records = run(RolloutConfig(PolicyConfig(6, 5), ContextMeanDenoiser(), horizon=2000))
    path = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        cli.write_trace(records, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


@given(records=rollouts(min_size=1), data=st.data())
def test_non_finite_record_is_refused_and_writes_no_file(records, data):
    bad = data.draw(st.integers(0, len(records) - 1))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    field = data.draw(st.sampled_from(["mean", "var", "frames"]))
    record = records[bad]
    if field == "frames":
        frames = np.zeros((2, 3)) if record.frames is None else record.frames.copy()
        frames.flat[data.draw(st.integers(0, frames.size - 1))] = value
        record.frames = frames
        message = "frames hold a number that is not finite"
    else:
        value = data.draw(st.sampled_from([value, np.float64(value)]))
        setattr(record, field, value)
        message = f"{field} {value!r} is not a finite number"
    existing = data.draw(st.sampled_from([None, b"an earlier trace\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.write_trace(records, str(path))
        assert file_bytes(path) == existing


@pytest.mark.parametrize("existing", [None, b"an earlier file\n"])
def test_a_refusal_in_the_first_chunk_leaves_the_output_as_it_was(tmp_path, capsys,
                                                                  existing):
    # the first chunk is formed before the file is opened or stdout written
    def lines():
        yield "one"
        yield "two"
        raise ValueError("refused at the third line")
    path = tmp_path / "out.txt"
    if existing is not None:
        path.write_bytes(existing)
    for out in (str(path), None):
        with pytest.raises(ValueError, match="^refused at the third line$"):
            cli._write_lines(lines(), out)
    assert file_bytes(path) == existing
    assert capsys.readouterr().out == ""


def test_int_stats_read_back_as_ints(tmp_path):
    line = VALID_RECORD.replace('"mean":0.0,"var":1.0', '"mean":-2,"var":3')
    path = tmp_path / "ints.jsonl"
    path.write_text(line + "\n")
    trace = cli.read_trace(str(path))
    assert (trace[0].mean, trace[0].var) == (-2, 3)
    assert type(trace[0].mean) is int and type(trace[0].var) is int


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
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[]]'), "rows of numbers, none empty"),
    (with_slot(NEXT_RECORD, '{"content":"x","orient":"F","index":0}'),
     "content must be a non-negative integer, got 'x'"),
    (with_slot(NEXT_RECORD, '{"content":-1,"orient":"F","index":0}'),
     "content must be a non-negative integer, got -1"),
    (with_slot(NEXT_RECORD, '{"content":0,"orient":"F","index":null}'),
     "index must be a non-negative integer, got None"),
    (with_slot(NEXT_RECORD, '{"content":0,"orient":"F","index":true}'),
     "index must be a non-negative integer, got True"),
    (with_slot(NEXT_RECORD, '{"content":0,"orient":"X","index":0}'),
     "'X' is not a valid Orientation"),
    (NEXT_RECORD.replace('"seed":0', '"seed":"abc"'), "seed must be an integer, got 'abc'"),
    (NEXT_RECORD.replace('"mean":0.0', '"mean":1e400'), "mean inf is not a finite number"),
    (NEXT_RECORD.replace('"mean":0.0', '"mean":1' + "0" * 400), "int too large"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,1' + "0" * 400 + ']]'), "int too large"),
    (NEXT_RECORD.replace('[[0.0,1.0]]', '[[1e400,1.0]]'),
     "frames hold a number that is not finite"),
], ids=["missing-keys", "schedule-int", "slot-int", "frame-stats-list",
        "frames-object", "line-is-list", "line-is-number", "mean-string",
        "var-bool", "mean-nan", "var-infinity", "step-bool", "step-gap",
        "mixed-seeds", "frame-width-change", "frames-dropped", "frames-strings",
        "frames-bool", "frames-infinity", "frames-1d", "frames-ragged", "frames-empty-row",
        "content-string", "content-negative", "index-null", "index-bool",
        "orient-unknown", "seed-string", "mean-overflow-literal", "mean-huge-int",
        "frames-huge-int", "frames-overflow-literal"])
def test_malformed_trace_is_rejected(tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(VALID_RECORD + "\n" + line + "\n")
    with pytest.raises(cli.UsageError,
                       match=r"trace line 2: malformed record \(.*" + reason):
        cli.read_trace(str(path))


def test_first_overflowing_frames_line_is_named(tmp_path):
    overflow = NEXT_RECORD.replace('[[0.0,1.0]]', '[[0.0,-1e400]]')
    later = overflow.replace('"step":1', '"step":2')
    path = tmp_path / "bad.jsonl"
    path.write_text(VALID_RECORD + "\n\n" + overflow + "\n" + later + "\n")
    message = "trace line 3: malformed record (frames hold a number that is not finite)"
    with pytest.raises(cli.UsageError, match="^" + re.escape(message) + "$"):
        cli.read_trace(str(path))


def test_the_first_bad_line_is_named_whatever_its_defect(tmp_path):
    # each line is checked as it is read: line 2's overflowing frame is named,
    # not line 3's mistyped mean
    overflow = NEXT_RECORD.replace('[[0.0,1.0]]', '[[1e400,1.0]]')
    mistyped = NEXT_RECORD.replace('"step":1', '"step":2').replace('"mean":0.0', '"mean":"x"')
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([VALID_RECORD, overflow, mistyped]) + "\n")
    message = "trace line 2: malformed record (frames hold a number that is not finite)"
    with pytest.raises(cli.UsageError, match="^" + re.escape(message) + "$"):
        cli.read_trace(str(path))


def test_metrics_refuses_a_negative_step_and_writes_no_file(tmp_path):
    path = tmp_path / "negative.jsonl"
    path.write_text("\n".join(VALID_RECORD.replace('"step":0', f'"step":{step}')
                              for step in (-5, -4)) + "\n")
    out = tmp_path / "m.csv"
    assert run_main(["metrics", str(path), "--out", str(out)]) == (
        1, "error: trace line 1: malformed record (step index must be >= 0 (got -5))\n")
    assert not out.exists()


def test_valid_successor_is_accepted(tmp_path):
    path = tmp_path / "good.jsonl"
    path.write_text(VALID_RECORD + "\n" + NEXT_RECORD + "\n")
    assert [record.step for record in cli.read_trace(str(path))] == [0, 1]
    path.write_text(VALID_RECORD + "\n" + with_slot(NEXT_RECORD) + "\n")
    assert [record.step for record in cli.read_trace(str(path))] == [0, 1]


@pytest.mark.parametrize("line", [
    VALID_RECORD.replace('"schedule":[]', '"schedule":5'),
    VALID_RECORD.replace('"mean":0.0', '"mean":"x"'),
    with_slot(VALID_RECORD, '{"content":"x","orient":"F","index":null}').replace(
        '"seed":0', '"seed":"abc"'),
], ids=["schedule-int", "mean-string", "untyped-slot-and-seed"])
def test_metrics_on_malformed_trace_exits_one_without_traceback(tmp_path, capsys,
                                                                 line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    assert cli.main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 1: malformed record")
    assert "Traceback" not in err


NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line", [
    NESTED,
    VALID_RECORD.replace('"schedule":[]', '"schedule":' + NESTED),
    VALID_RECORD.replace('"frames":[[0.0,1.0]]', '"frames":' + NESTED),
], ids=["bare", "in-schedule", "in-frames"])
def test_a_deeply_nested_trace_line_exits_one_without_traceback(tmp_path, capsys, line):
    # the json decoder gives up on such nesting with a RecursionError
    path = tmp_path / "nested.jsonl"
    path.write_text(line + "\n")
    assert cli.main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 1: malformed record "
                          "(maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_metrics_on_empty_frame_rows_exits_one_without_warning(tmp_path):
    # every record agrees on the (1, 0) frame shape, so only the row check
    # refuses it; a mean over zero columns would warn and write nan
    path = tmp_path / "empty-rows.jsonl"
    path.write_text("\n".join(line.replace('[[0.0,1.0]]', '[[]]')
                              for line in (VALID_RECORD, NEXT_RECORD)) + "\n")
    rc, err = run_main(["metrics", str(path), "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert err.splitlines() == ["error: trace line 1: malformed record (frames must "
                                "be a list of rows of numbers, none empty)"]
    assert not (tmp_path / "m.csv").exists()


# A valid two-record trace whose second line the property test mutates.
FIRST_LINE = ('{"step":0,"schedule":[],"frame_stats":{"mean":0.5,"var":1.0},'
              '"frames":[[0.0,1.0]],"seed":3}')
SECOND_LINE = ('{"step":1,"schedule":[{"content":0,"orient":"F","index":0}],'
               '"frame_stats":{"mean":0.25,"var":2.0},"frames":[[1.0,-1.0]],"seed":3}')


def json_paths(obj, prefix=()):
    """The key path of every value in obj, obj itself included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


SECOND_PATHS = list(json_paths(json.loads(SECOND_LINE)))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6,
)
RETYPES = [json.dumps, lambda v: [v], lambda v: {"v": v}, lambda v: None, bool,
           lambda v: float(v) if type(v) is int else v]


@st.composite
def mutated_second_lines(draw) -> str:
    """SECOND_LINE with one value replaced, one key dropped, one value's
    type changed, or cut short."""
    op = draw(st.sampled_from(["replace", "drop", "retype", "truncate"]))
    if op == "truncate":
        return SECOND_LINE[:draw(st.integers(0, len(SECOND_LINE) - 1))]
    # the line's object sits in a one-item list, so every path has a parent
    holder = [json.loads(SECOND_LINE)]
    path = (0,) + draw(st.sampled_from(SECOND_PATHS[1:] if op == "drop" else SECOND_PATHS))
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "replace":
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        parent[path[-1]] = draw(st.sampled_from(RETYPES))(parent[path[-1]])
    return json.dumps(holder[0], separators=(",", ":"))


@given(line=mutated_second_lines())
def test_mutated_trace_line_reads_or_exits_one(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text(FIRST_LINE + "\n" + line + "\n")
        try:
            cli.read_trace(str(path))
            readable = True
        except cli.UsageError:
            readable = False
        err = StringIO()
        with redirect_stderr(err), np.errstate(all="ignore"):
            rc = cli.main(["metrics", str(path), "--out", str(Path(tmp) / "m.csv")])
    if readable:
        assert (rc, err.getvalue()) == (0, "")
    else:
        assert rc == 1 and err.getvalue().startswith("error: ")


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


def test_schedule_command_streams_its_rows(tmp_path):
    # 4000 steps are 24k rows, about 520 KB of CSV; the rows are formatted
    # and written a chunk at a time, never held all at once
    tracemalloc.start()
    try:
        assert cli.main(["schedule", "-K", "6", "-S", "5", "-i", "0:4000",
                         "--out", str(tmp_path / "sched.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sched.csv").stat().st_size > 500_000
    assert peak < 400 * 2**10


@pytest.mark.parametrize("out", [False, True])
def test_schedule_command_refuses_a_negative_step_before_writing(tmp_path, capsys, out):
    path = tmp_path / "sched.csv"
    rc = cli.main(["schedule", "-i=-2:3"] + (["--out", str(path)] if out else []))
    assert (rc, capsys.readouterr()) == (1, ("", "error: step index must be >= 0 "
                                                 "(got -2)\n"))
    assert not path.exists()


def test_schedule_command_writes_more_rows_than_a_chunk(tmp_path, capsys):
    cfg = PolicyConfig(K=6)
    rows = [(i, rank, content, orientation.name.lower(), index) for i in range(1000)
            for rank, (content, orientation, index) in enumerate(schedule_for(cfg, i).slots)]
    assert len(rows) > 4096
    header = ("i", "slot_rank", "content_id", "orientation", "assigned_index")
    out = tmp_path / "sched.csv"
    assert cli.main(["schedule", "-K", "6", "-i", "0:1000", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        ",".join(map(str, row)) for row in [header, *rows]]
    assert cli.main(["schedule", "-K", "6", "-i", "0:1000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  ".join(f"{cell:>14}" for cell in row) for row in [header, *rows]]


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


def test_rollout_seed_override_writes_that_seeds_trace(tmp_path):
    override, configured = tmp_path / "override.jsonl", tmp_path / "configured.jsonl"
    assert cli.main(["rollout", write_config(tmp_path), "--out", str(override),
                     "--seed", "99"]) == 0
    config = write_config(tmp_path, BASE_CONFIG.replace("seed = 3", "seed = 99"),
                          name="seed99.cfg")
    assert cli.main(["rollout", config, "--out", str(configured)]) == 0
    assert override.read_bytes() == configured.read_bytes()


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


def test_non_finite_bias_exits_one_naming_bias(tmp_path, capsys):
    config = write_config(tmp_path, BASE_CONFIG.replace("bias = 0.01", "bias = 1e400"))
    out = tmp_path / "t.jsonl"
    assert cli.main(["rollout", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: bias must be a finite number (got inf)\n"
    assert not out.exists()


def test_diverging_rollout_exits_one_at_its_step(tmp_path):
    # Tiny attention with the default weights (K=6, seed 0) diverges under the
    # sliding window and goes non-finite at step 953; rolling-sink stays
    # finite over the same horizon.
    def rollout(policy):
        config = write_config(tmp_path, "denoiser = tiny-attention\nhorizon = 1200\n"
                                        f"policy = {policy}\n", name=f"{policy}.cfg")
        out = tmp_path / f"{policy}.jsonl"
        return run_main(["rollout", config, "--out", str(out)]), out

    (rc, err), out = rollout("sliding-window")
    assert (rc, err) == (1, "error: trace record for step 953 holds inf or NaN, so the "
                            "rollout stops at that step\n")
    assert not out.exists()
    (rc, err), out = rollout("rolling-sink")
    assert (rc, err) == (0, "")
    assert len(out.read_text().splitlines()) == 1200


def test_memory_error_exits_one_without_traceback(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise MemoryError("Unable to allocate 87.3 TiB for an array")

    monkeypatch.setattr(cli, "run", boom)
    config = write_config(tmp_path)
    rc = cli.main(["rollout", config, "--out", str(tmp_path / "t.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: Unable to allocate 87.3 TiB for an array\n"


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


@pytest.mark.parametrize("named, once", [
    ("mean_drift,mean_drift,flicker_proxy", "mean_drift,flicker_proxy"),
    ("flicker_proxy, mean_drift,flicker_proxy,mean_drift", "flicker_proxy,mean_drift"),
])
def test_a_metric_named_twice_is_one_column(tmp_path, named, once):
    trace = make_trace_file(tmp_path)
    repeated, single = tmp_path / "repeated.csv", tmp_path / "single.csv"
    assert cli.main(["metrics", str(trace), "--metrics", named, "--out", str(repeated)]) == 0
    assert cli.main(["metrics", str(trace), "--metrics", once, "--out", str(single)]) == 0
    assert repeated.read_text().splitlines()[0] == "step," + once
    assert repeated.read_bytes() == single.read_bytes()


def test_metrics_unknown_name_lists_valid_ones(tmp_path, capsys):
    trace = make_trace_file(tmp_path)
    rc = cli.main(["metrics", str(trace), "--metrics", "sparkle"])
    assert rc == 1
    err = capsys.readouterr().err
    for name in ("mean_drift", "flicker_proxy", "repetition_score"):
        assert name in err


def test_metrics_on_frameless_trace_fails_cleanly(tmp_path):
    trace = make_trace_file(tmp_path, extra="record_frames = false\n")
    assert cli.main(["metrics", str(trace), "--metrics", "mean_drift"]) == 0
    rc, err = run_main(["metrics", str(trace), "--metrics", "flicker_proxy"])
    assert (rc, err) == (1, "error: flicker_proxy needs per-frame values; rerun the "
                            "rollout with frame recording enabled\n")


@pytest.mark.parametrize("command", ["rollout", "metrics", "sweep"])
def test_out_writes_through_a_symlink(tmp_path, command):
    # --out opens its path for writing, so a link stays a link and its target,
    # stale or not yet made, holds the same bytes as a plain file would
    config = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert cli.main(["rollout", config, "--out", str(trace)]) == 0
    argv = {"rollout": ["rollout", config], "metrics": ["metrics", str(trace)],
            "sweep": ["sweep", config, "--ratios", "50", "--horizons", "8,9"]}[command]
    plain = tmp_path / "plain.out"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    for stale in (True, False):
        target, link = tmp_path / f"target-{stale}.out", tmp_path / f"link-{stale}.out"
        if stale:
            target.write_text("stale\n" * 1000)
        link.symlink_to(target)
        assert cli.main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == plain.read_bytes()


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


def test_default_grid_is_every_sink_size_for_any_capacity(tmp_path):
    # no ratio grid fits every K: 17% has no integer sink size with K=4
    config = write_config(tmp_path, SWEEP_CONFIG.replace("K = 6", "K = 4")
                          .replace("S = 5", "S = 3"))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", config, "--horizons", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()[1:]
    cells = [(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines]
    assert cells == [(ratio, S) for ratio, S in ((0, 0), (25, 1), (50, 2), (75, 3))
                     for _ in range(3)]


def test_default_grid_equals_the_explicit_k6_ratios(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert cli.main(["sweep", config, "--horizons", "3,8", "--seeds", "2",
                     "--out", str(default)]) == 0
    assert cli.main(["sweep", config, "--ratios", "0,17,33,50,67,83", "--horizons",
                     "3,8", "--seeds", "2", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


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


def test_a_repeated_ratio_or_horizon_names_its_cells_once(tmp_path):
    # (S, policy, horizon, seed) keys the rows, so a repeat adds none
    config = write_config(tmp_path, SWEEP_CONFIG.replace("K = 6", "K = 3")
                          .replace("S = 5", "S = 1"))
    repeated, once = tmp_path / "repeated.csv", tmp_path / "once.csv"
    assert cli.main(["sweep", config, "--ratios", "33,33", "--horizons", "5,5",
                     "--out", str(repeated)]) == 0
    assert cli.main(["sweep", config, "--ratios", "33", "--horizons", "5",
                     "--out", str(once)]) == 0
    assert repeated.read_bytes() == once.read_bytes()
    assert len(once.read_text().splitlines()) == 1 + 3


def test_sweep_terminal_metrics_are_those_of_the_full_series(tmp_path):
    # the sweep reads them from the trailing records; windows below, at and
    # past the horizon, and horizons of one and two blocks
    config = write_config(tmp_path, SWEEP_CONFIG + "innovation_scale = 0.2\n")
    base = cli.load_config(config)
    for window in (1, 3, 40):
        out = tmp_path / f"w{window}.csv"
        assert cli.main(["sweep", config, "--ratios", "0,50", "--horizons", "1,2,9",
                         "--seeds", "2", "--window", str(window), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            _, S, _, policy, horizon, seed, *terminal = line.split(",")
            trace = run(replace(base, policy=replace(base.policy, S=int(S),
                                                     policy=Policy(policy)),
                                horizon=int(horizon), seed=int(seed)))
            assert terminal == [repr(series.tolist()[-1]) for series in (
                mean_drift(trace), flicker_proxy(trace),
                repetition_score(trace, window=window))]


SHARING_DENOISERS = {
    "context-mean": "denoiser = context-mean\nbias = 0.05\ninnovation_scale = 0.2\n",
    "analytic-gaussian": "denoiser = analytic-gaussian\nrho = 0.9\n",
    "tiny-attention": "denoiser = tiny-attention\n",
}


@pytest.mark.parametrize("convention", ["palindrome", "literal-mod"])
@pytest.mark.parametrize("denoiser", sorted(SHARING_DENOISERS))
def test_sweep_rows_equal_independent_runs_of_their_cells(tmp_path, denoiser, convention):
    # each rollout a cell names is forked from its seed's one run of the fill
    # steps 0..K, and the cells whose sinks cannot matter (S = 0, or horizon
    # K+1) read the fill policy's; horizons 1, K, K+1, K+2 and
    # 4K+3 with K = 4, and one past the first chunk of noise states, so that
    # the forks of a seed move its shared noise source's chunk forward and back
    config = write_config(tmp_path, SHARING_DENOISERS[denoiser] + "K = 4\nS = 1\n"
                          f"frame_dim = 3\nseed = 5\nconvention = {convention}\n")
    base = cli.load_config(config)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", config, "--ratios", "0,50", "--horizons",
                     f"1,4,5,6,19,{_CHUNK + 4 + 3}", "--seeds", "2", "--window", "3",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 2 * 6 * 3 * 2
    for line in lines:
        ratio, S, K, policy, horizon, seed, *terminal = line.split(",")
        trace = run(replace(base, policy=replace(base.policy, S=int(S),
                                                 policy=Policy(policy)),
                            horizon=int(horizon), seed=int(seed)))
        assert terminal == [repr(series.tolist()[-1]) for series in (
            mean_drift(trace), flicker_proxy(trace), repetition_score(trace, window=3))]


@pytest.mark.parametrize("text, horizons, seed, step", [
    ("denoiser = context-mean\nbias = 1e200\n", "5,200", 0, 0),  # in the fill steps
    # past them, in the fill policy's run of S = 0; seed 0 fails at step 193 and
    # seed 1 at 188, so a run stepped to 150 fails on its next horizon
    ("denoiser = tiny-attention\nweight_seed = 4\nS = 3\n", "5,200", 0, 193),
    ("denoiser = tiny-attention\nweight_seed = 4\nS = 3\n", "5,150,200", 0, 193),
    ("denoiser = tiny-attention\nweight_seed = 4\nS = 3\n", "150,193,194", 1, 188),
], ids=["in-the-fill", "past-the-fill", "past-the-fill-shared", "past-the-fill-seed-1"])
def test_a_sweep_stops_at_the_first_non_finite_cell(tmp_path, monkeypatch, text,
                                                    horizons, seed, step):
    # the first failing cell in row order, as when every cell runs on its own:
    # one rollout fails, that of the cell's (S, policy, seed), at its step
    failed = []
    rollout_step = engine.Rollout.step

    def recording_step(self):
        try:
            return rollout_step(self)
        except engine.NonFiniteBlockError:
            failed.append((self.cfg.policy.S, self.cfg.policy.policy, self.cfg.seed,
                           self.step_index))
            raise

    monkeypatch.setattr(engine.Rollout, "step", recording_step)
    config = write_config(tmp_path, text)
    out = tmp_path / "sweep.csv"
    rc, err = run_main(["sweep", config, "--ratios", "0,50", "--horizons", horizons,
                        "--seeds", "2", "--out", str(out)])
    assert (rc, err) == (1, f"error: trace record for step {step} holds inf or NaN, "
                            "so the rollout stops at that step\n")
    assert failed == [(0, Policy.ATTENTION_SINK, seed, step)]
    assert not out.exists()


def test_a_sweep_runs_one_fill_per_seed(tmp_path, monkeypatch):
    # each seed's run of the fill steps is stepped as far as a cell needs,
    # and every run forked from it shares its noise source
    built = []

    class CountingNoiseSource(engine.NoiseSource):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(engine, "NoiseSource", CountingNoiseSource)
    config = write_config(tmp_path, SWEEP_CONFIG)
    assert cli.main(["sweep", config, "--horizons", "1,3,6,7,8,24", "--seeds", "2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert built == [0, 1]


SHARED_RUN_CONFIG = ("K = 4\nS = 1\nseed = 3\nframe_dim = 2\n"
                     "denoiser = context-mean\nbias = 0.05\ninnovation_scale = 0.2\n")


def counting_forks(monkeypatch):
    """Every fork a sweep makes, as (fork, the step it was made at)."""
    forks = []
    fork = engine.Rollout.fork

    def counting_fork(self, policy):
        forks.append((fork(self, policy), self.step_index))
        return forks[-1][0]

    monkeypatch.setattr(engine.Rollout, "fork", counting_fork)
    return forks


def test_a_sweep_forks_one_run_per_s_policy_and_seed(tmp_path, monkeypatch):
    # K = 4: per seed, the fill run steps 0..3 once and holds the horizon-1
    # cells; S = 0 forks the fill policy for horizons 5 = K+1, 6 and 9, and
    # S = 2 reads that run for horizon 5, whose sinks cannot matter yet, so it
    # forks only each variant, once, for horizons 6 and 9. Every fork is made
    # at step K
    forks = counting_forks(monkeypatch)
    steps, terminals = [], []
    step, score = engine.Rollout.step, cli.repetition_score

    def counting_step(self):
        steps.append(self.cfg.policy)
        return step(self)

    def counting_score(records, window):
        terminals.append(len(records))
        return score(records, window=window)

    monkeypatch.setattr(engine.Rollout, "step", counting_step)
    monkeypatch.setattr(cli, "repetition_score", counting_score)
    config = write_config(tmp_path, SHARED_RUN_CONFIG)
    base = cli.load_config(config)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", config, "--ratios", "0,50", "--horizons", "1,5,6,9",
                     "--seeds", "2", "--out", str(out)]) == 0
    K = 4
    assert sorted((rollout.cfg.policy.S, rollout.cfg.policy.policy.value, rollout.cfg.seed)
                  for rollout, _ in forks) == sorted(
        [(0, "attention-sink", seed) for seed in (3, 4)]
        + [(2, variant.value, seed) for variant in cli._SWEEP_VARIANTS for seed in (3, 4)])
    assert [at for _, at in forks] == [K] * 8
    # per seed: the fill steps, then the fill policy's run to 9, and each
    # variant's run to 9
    assert len(steps) == 2 * (K + (9 - K) + 3 * (9 - K)) == 48
    # one terminal per rollout a cell names, per seed: the fill policy's for
    # every horizon, and each variant's of S = 2 for horizons 6 and 9
    assert len(terminals) == 2 * (4 + 3 * 2) == 20
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 2 * 4 * 3 * 2
    for line in lines:
        _, S, _, policy, horizon, seed, *terminal = line.split(",")
        trace = run(replace(base, policy=replace(base.policy, S=int(S),
                                                 policy=Policy(policy)),
                            horizon=int(horizon), seed=int(seed)))
        assert terminal == [repr(series.tolist()[-1]) for series in (
            mean_drift(trace), flicker_proxy(trace), repetition_score(trace, window=8))]


@pytest.mark.parametrize("window", [1, 40])
def test_a_sweep_keeps_block_0_and_the_last_window_plus_one_records_of_a_run(
        tmp_path, monkeypatch, window):
    # horizons below K = 4, at K+1 and past it, the longest past window + 2
    forks = counting_forks(monkeypatch)
    config = write_config(tmp_path, SHARED_RUN_CONFIG)
    assert cli.main(["sweep", config, "--ratios", "0,50", "--horizons", "2,5,9,60",
                     "--seeds", "2", "--window", str(window),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(forks) == 2 * (1 + 3)
    for rollout, _ in forks:
        held = min(rollout.step_index, window + 2)
        assert len(rollout.records) == held <= window + 2
        assert [r.step for r in rollout.records] == [0, *range(
            rollout.step_index - held + 1, rollout.step_index)]


def test_a_sweep_trims_the_fill_run_that_its_short_cells_read(tmp_path, monkeypatch):
    # a cell of horizon <= K = 4 reads its seed's fill run itself, which is
    # trimmed after each cell like any run: window 1 keeps block 0 and the last 2
    built = []

    class BuiltRollout(engine.Rollout):
        def __init__(self, cfg):
            super().__init__(cfg)
            built.append(self)

    monkeypatch.setattr(cli, "Rollout", BuiltRollout)
    config = write_config(tmp_path, SHARED_RUN_CONFIG)
    assert cli.main(["sweep", config, "--ratios", "0,50", "--horizons", "1,2,3,4",
                     "--seeds", "2", "--window", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert [(fill.cfg.seed, [r.step for r in fill.records]) for fill in built] == [
        (3, [0, 2, 3]), (4, [0, 2, 3])]


@pytest.mark.parametrize("window", ["0", "-2"])
def test_a_sweep_refuses_a_window_below_one_before_any_cell_runs(tmp_path, monkeypatch,
                                                                 window):
    built = []

    class CountingNoiseSource(engine.NoiseSource):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(engine, "NoiseSource", CountingNoiseSource)
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    rc, err = run_main(["sweep", config, "--horizons", "8", f"--window={window}",
                        "--out", str(out)])
    assert (rc, err) == (1, f"error: window must be >= 1 (got {window})\n")
    assert built == []
    assert not out.exists()


def test_metrics_refuses_a_window_below_one_before_reading_the_trace(tmp_path):
    # the trace does not exist, so reading it first would name the file
    out = tmp_path / "m.csv"
    rc, err = run_main(["metrics", str(tmp_path / "missing.jsonl"), "--window", "0",
                        "--out", str(out)])
    assert (rc, err) == (1, "error: window must be >= 1 (got 0)\n")
    assert not out.exists()


def test_a_window_below_one_is_unread_without_repetition_score(tmp_path):
    config, trace = write_config(tmp_path), tmp_path / "t.jsonl"
    assert cli.main(["rollout", config, "--out", str(trace)]) == 0
    out = tmp_path / "m.csv"
    assert run_main(["metrics", str(trace), "--metrics", "mean_drift", "--window", "0",
                     "--out", str(out)]) == (0, "")
    assert out.read_text().splitlines()[0] == "step,mean_drift"


@pytest.mark.parametrize("horizons, got", [("0", 0), ("-3,5", -3)])
def test_a_sweep_refuses_a_horizon_below_one(tmp_path, horizons, got):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    rc, err = run_main(["sweep", config, f"--horizons={horizons}", "--out", str(out)])
    assert (rc, err) == (1, f"error: horizon must be >= 1 (got {got})\n")
    assert not out.exists()


def test_sink_size_for_ratio_round_trip():
    # up to K = 100 consecutive sink sizes differ by at least 1%, so a ratio
    # names exactly one S
    for K in range(1, 101):
        for S in range(K):
            ratio = round(100 * S / K)
            assert cli.sink_sizes_for_ratio(ratio, K) == [S]


def test_a_ratio_runs_every_sink_size_that_rounds_to_it(tmp_path):
    # with K = 150, S = 1 (0.67%) and S = 2 (1.33%) both round to 1%
    config = write_config(tmp_path, SWEEP_CONFIG.replace("K = 6", "K = 150"))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", config, "--ratios", "1", "--horizons", "1",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    cells = [(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines]
    assert cells == [(1, S) for S in (1, 2) for _ in range(3)]


def test_orientation_serialization_is_stable():
    assert Orientation.FORWARD.value == "F"
    assert Orientation.REVERSED.value == "R"


# --------------------------------------------------------------------------
# rollout, metrics and sweep argv
# --------------------------------------------------------------------------

def mostly(valid, junk=JUNK_VALUES):
    """`valid` nine times in ten, else `junk`."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else junk)


@st.composite
def short_rollout_documents(draw) -> str:
    """Half config_documents(), half documents of the valid geometry with
    the selected denoiser's keys drawn from their typed values (NaN and
    infinities included); horizon at most 12 and T at most 8 in both, so
    that a rollout, and a sweep of a few cells, stays short."""
    if draw(st.booleans()):
        lines = [line for line in draw(config_documents()).splitlines()
                 if not re.match(r"\s*(horizon|T)\s*=", line)]
    else:
        K = draw(st.integers(1, 8))
        denoiser = draw(st.sampled_from(sorted(DENOISER_KEYS)))
        lines = [f"K = {K}", f"S = {draw(st.integers(0, K - 1))}",
                 f"denoiser = {denoiser}", f"policy = {draw(TYPED_VALUES['policy'])}",
                 f"block_size = {draw(st.integers(1, 3))}",
                 f"frame_dim = {draw(st.integers(1, 4))}"]
        lines += [f"{key} = {draw(TYPED_VALUES[key])}"
                  for key in sorted(DENOISER_KEYS[denoiser]) if draw(st.booleans())]
    lines.append(f"horizon = {draw(mostly(st.integers(1, 12), st.integers(-1, 0)))}")
    if draw(st.booleans()):
        lines.append(f"T = {draw(mostly(st.integers(1, 8), st.just(0)))}")
    return "\n".join(draw(st.permutations(lines)))


def run_main(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stderr. A warning would reach stderr in a
    real run, so it is raised here and fails the property."""
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_exit_contract(rc: int, err: str) -> None:
    assert rc in (0, 1, 2)
    assert err == "" or err.startswith(("error:", "internal invariant violation:"))
    assert (rc == 0) == (err == "")
    assert "Traceback" not in err


WINDOWS = mostly(st.integers(-2, 16).map(str))


@given(text=short_rollout_documents(), seed=st.none() | mostly(SMALL_INTS),
       out_dir_exists=mostly(st.just(True), st.just(False)))
@example(text="bias = 1e400", seed=None, out_dir_exists=True)  # refused as inf
@example(text="bias = 1e308", seed=None, out_dir_exists=True)  # inf - inf in a step
def test_rollout_argv_keeps_the_exit_contract(text, seed, out_dir_exists):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "r.cfg"
        config.write_text(text)
        out = Path(tmp) / ("" if out_dir_exists else "missing") / "t.jsonl"
        argv = ["rollout", str(config), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", seed]
        rc, err = run_main(argv)
        assert out.exists() == (rc == 0)
    assert_exit_contract(rc, err)


METRIC_NAMES = mostly(st.lists(st.sampled_from(["mean_drift", "flicker_proxy",
                                                "repetition_score"]),
                               min_size=1, max_size=3),
                      st.lists(st.sampled_from(["drift", "", "mean_drift"]), max_size=2))


@given(text=short_rollout_documents(), names=st.none() | METRIC_NAMES.map(",".join),
       window=st.none() | WINDOWS,
       damage=mostly(st.just("none"), st.sampled_from(["missing", "empty", "truncated"])))
def test_metrics_argv_keeps_the_exit_contract(text, names, window, damage):
    with tempfile.TemporaryDirectory() as tmp:
        config, trace = Path(tmp) / "r.cfg", Path(tmp) / "t.jsonl"
        config.write_text(text)
        run_main(["rollout", str(config), "--out", str(trace)])
        if damage == "missing":
            trace.unlink(missing_ok=True)
        elif damage == "empty":
            trace.write_text("")
        elif damage == "truncated" and trace.exists():
            trace.write_text(trace.read_text()[:-7])
        argv = ["metrics", str(trace), "--out", str(Path(tmp) / "m.csv")]
        if names is not None:
            argv += ["--metrics", names]
        if window is not None:
            argv += ["--window", window]
        rc, err = run_main(argv)
    assert_exit_contract(rc, err)


RATIOS = mostly(st.sampled_from(["0", "17", "33", "50", "67", "83"]),
                st.sampled_from(["25", "-1", "x", ""]))


@given(text=short_rollout_documents(),
       ratios=st.none() | st.lists(RATIOS, min_size=1, max_size=2).map(",".join),
       horizons=st.lists(mostly(st.integers(1, 12).map(str), st.just("0") | JUNK_VALUES),
                         min_size=1, max_size=2).map(",".join),
       seeds=st.none() | mostly(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x"])),
       window=st.none() | WINDOWS)
def test_sweep_argv_keeps_the_exit_contract(text, ratios, horizons, seeds, window):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "r.cfg"
        config.write_text(text)
        argv = ["sweep", str(config), "--horizons", horizons,
                "--out", str(Path(tmp) / "s.csv")]
        for flag, value in (("--ratios", ratios), ("--seeds", seeds),
                            ("--window", window)):
            if value is not None:
                argv += [flag, value]
        rc, err = run_main(argv)
    assert_exit_contract(rc, err)
