"""Operator CLI: schedule inspection, rollouts, metrics, sink-ratio sweeps.

This module owns every file format:

* config — `key = value` lines, `#` comments, unknown keys rejected;
* trace  — line-delimited JSON, one self-describing record per step;
* CSV    — schedule tables, metric series, sweep summaries.

Exit codes: 0 success, 1 usage/config error, 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from math import isfinite

import numpy as np

from .denoisers import (
    AnalyticGaussianDenoiser,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from .engine import InternalInvariantError, RolloutConfig, RolloutTrace, TraceRecord, run
from .metrics import METRICS, repetition_score
from .sampler import TimestepSchedule
from .schedule import (
    CacheSlot,
    Orientation,
    Policy,
    PolicyConfig,
    RollConvention,
    Schedule,
    schedule_for,
)

_ORIENT_WORD = {Orientation.FORWARD: "forward", Orientation.REVERSED: "reversed"}

_SWEEP_VARIANTS = (Policy.ATTENTION_SINK, Policy.SLIDING_INDICES, Policy.ROLLING_SINK)


class UsageError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


# --------------------------------------------------------------------------
# config file format
# --------------------------------------------------------------------------

_INT_KEYS = {"K", "S", "block_size", "T", "horizon", "seed", "frame_dim",
             "model_dim", "head_count", "layer_count", "weight_seed"}
_FLOAT_KEYS = {"rho", "anchor_weight", "innovation_scale", "bias"}
_DENOISER_KEYS = {
    "analytic-gaussian": {"rho"},
    "context-mean": {"anchor_weight", "innovation_scale", "bias"},
    "tiny-attention": {"model_dim", "head_count", "layer_count", "weight_seed"},
}
_KNOWN_KEYS = (
    {"policy", "convention", "denoiser", "timesteps", "record_frames"}
    | _INT_KEYS
    | _FLOAT_KEYS
)


def parse_config_text(text: str) -> RolloutConfig:
    """Parse a key = value config document into a RolloutConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise UsageError(f"unknown config key: {key}")
        if key in raw:
            raise UsageError(f"duplicate config key: {key}")
        raw[key] = value

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        try:
            if key in _INT_KEYS:
                values[key] = int(text_value)
            elif key in _FLOAT_KEYS:
                values[key] = float(text_value)
            elif key == "record_frames":
                if text_value.lower() not in ("true", "false"):
                    raise ValueError
                values[key] = text_value.lower() == "true"
            else:
                values[key] = text_value
        except ValueError:
            raise UsageError(f"config key {key}: cannot parse value {text_value!r}")

    try:
        policy_cfg = PolicyConfig(
            K=values.get("K", 6),
            S=values.get("S", 5),
            block_size=values.get("block_size", 3),
            policy=_parse_enum(Policy, values.get("policy", "rolling-sink"), "policy"),
            roll_convention=_parse_enum(
                RollConvention, values.get("convention", "palindrome"), "convention"
            ),
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    if "timesteps" in values and "T" in values:
        raise UsageError("set either T or timesteps, not both")
    if "timesteps" in values:
        try:
            steps = tuple(float(x) for x in str(values["timesteps"]).split(","))
            timesteps = TimestepSchedule(steps)
        except ValueError as exc:
            raise UsageError(f"config key timesteps: {exc}")
    else:
        try:
            timesteps = TimestepSchedule.uniform(values.get("T", 4))
        except ValueError as exc:
            raise UsageError(f"config key T: {exc}")

    denoiser_kind = values.get("denoiser", "context-mean")
    if denoiser_kind not in _DENOISER_KEYS:
        raise UsageError(
            f"unknown denoiser {denoiser_kind!r}; valid: "
            + ", ".join(sorted(_DENOISER_KEYS))
        )
    allowed = _DENOISER_KEYS[denoiser_kind]
    for key in values:
        if key in _FLOAT_KEYS | {"model_dim", "head_count", "layer_count", "weight_seed"}:
            if key not in allowed:
                raise UsageError(f"config key {key} is not valid for denoiser {denoiser_kind}")

    frame_dim = values.get("frame_dim", 4)
    try:
        if denoiser_kind == "analytic-gaussian":
            denoiser = AnalyticGaussianDenoiser(rho=values.get("rho", 0.9))
        elif denoiser_kind == "context-mean":
            denoiser = ContextMeanDenoiser(
                anchor_weight=values.get("anchor_weight", 1.0),
                innovation_scale=values.get("innovation_scale", 0.0),
                bias=values.get("bias", 0.0),
            )
        else:
            denoiser = TinyAttentionDenoiser(
                frame_dim=frame_dim,
                model_dim=values.get("model_dim", 32),
                head_count=values.get("head_count", 4),
                layer_count=values.get("layer_count", 2),
                weight_seed=values.get("weight_seed", 0),
            )
        return RolloutConfig(
            policy=policy_cfg,
            denoiser=denoiser,
            horizon=values.get("horizon", 10),
            seed=values.get("seed", 0),
            frame_dim=frame_dim,
            timesteps=timesteps,
            record_frames=values.get("record_frames", True),
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_enum(enum_cls, text: str, label: str):
    try:
        return enum_cls(text)
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        raise UsageError(f"unknown {label} {text!r}; valid: {valid}")


def load_config(path: str) -> RolloutConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# --------------------------------------------------------------------------
# trace file format (line-delimited JSON, one record per step)
# --------------------------------------------------------------------------

# A record's line as json.dumps with compact separators writes it: the writer
# fills these templates rather than building the object first.
_LINE = '{"step":%d,"schedule":[%s],"frame_stats":{"mean":%s,"var":%s}%s,"seed":%d}'
_SLOT = '{"content":%d,"orient":"%s","index":%d}'
_ORIENTATIONS = {o.value: o for o in Orientation}
_ENCODE = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode

# JSON numbers decode to exactly these types; bools and strings are not numbers
_NUMBER_TYPES = frozenset({int, float})


def _json_number(value: float) -> str:
    """A number as json.dumps writes it. float.__repr__, not repr(), so that
    an np.float64 prints as a plain number; ints read back from a trace stay
    ints."""
    return int.__repr__(value) if type(value) is int else float.__repr__(value)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads would accept NaN and Infinity, which write_trace never writes
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _number(obj: dict, key: str):
    value = obj[key]
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"{key} must be a number, got {value!r}")
    # a literal such as 1e400 decodes to inf; an int past the float range
    # raises OverflowError here rather than in the metrics
    if not isfinite(value):
        raise ValueError(f"{key} {value!r} is not a finite number")
    return value


def _slot(obj: dict) -> CacheSlot:
    content, orient, index = obj["content"], obj["orient"], obj["index"]
    if type(content) is not int or content < 0:
        raise TypeError(f"content must be a non-negative integer, got {content!r}")
    if type(index) is not int or index < 0:
        raise TypeError(f"index must be a non-negative integer, got {index!r}")
    orientation = _ORIENTATIONS.get(orient) if type(orient) is str else None
    if orientation is None:
        raise ValueError(f"{orient!r} is not a valid Orientation")
    return CacheSlot(content, orientation, index)


def record_from_obj(obj: dict) -> TraceRecord:
    step = obj["step"]
    if type(step) is not int:
        raise TypeError(f"step must be an integer, got {step!r}")
    slots = tuple(map(_slot, obj["schedule"]))
    frames = obj.get("frames")
    if frames is not None:
        if (type(frames) is not list or set(map(type, frames)) != {list}
                or not set(map(type, chain.from_iterable(frames))) <= _NUMBER_TYPES):
            raise TypeError("frames must be a list of rows of numbers")
        frames = np.asarray(frames, dtype=np.float64)  # ValueError if ragged
    stats = obj["frame_stats"]
    seed = obj["seed"]
    if type(seed) is not int:
        raise TypeError(f"seed must be an integer, got {seed!r}")
    return TraceRecord(step, Schedule(step, slots), _number(stats, "mean"),
                       _number(stats, "var"), frames, seed)


def _check_follows(previous: TraceRecord, record: TraceRecord) -> None:
    """A trace is one rollout: consecutive steps, one seed, one frame shape."""
    if record.step != previous.step + 1:
        raise ValueError(f"step {record.step} does not follow step {previous.step}")
    if record.seed != previous.seed:
        raise ValueError(f"seed {record.seed!r} differs from the trace's seed "
                         f"{previous.seed!r}")
    shape = None if record.frames is None else record.frames.shape
    expected = None if previous.frames is None else previous.frames.shape
    if shape != expected:
        raise ValueError(f"frames shape {shape} differs from the previous "
                         f"record's {expected}")


def _non_finite(record: TraceRecord) -> UsageError:
    return UsageError(f"trace record for step {record.step} holds inf or NaN, "
                      "which JSON cannot represent")


def trace_to_lines(trace: RolloutTrace) -> list[str]:
    """One JSON line per record, byte for byte what json.dumps with compact
    separators writes; UsageError at the first record holding an inf or NaN,
    which JSON cannot represent."""
    lines = []
    for record in trace.records:
        mean, var, frames = record.mean, record.var, record.frames
        if not (isfinite(mean) and isfinite(var)):
            raise _non_finite(record)
        try:
            frames_text = ("" if frames is None
                           else ',"frames":' + _ENCODE(frames.tolist()))
        except ValueError:
            raise _non_finite(record) from None
        # _value_ rather than the .value property: a tenth of the cost per slot
        slots = ",".join([_SLOT % (content, orientation._value_, index)
                          for content, orientation, index in record.schedule.slots])
        lines.append(_LINE % (record.step, slots, _json_number(mean),
                              _json_number(var), frames_text, record.seed))
    return lines


def write_trace(trace: RolloutTrace, path: str) -> None:
    lines = trace_to_lines(trace)  # before opening, so a failure leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_trace(path: str) -> RolloutTrace:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = record_from_obj(_DECODER.decode(line))
                if records:
                    _check_follows(records[-1], record)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"trace line {lineno}: malformed record ({exc})")
            records.append(record)
    if not records:
        raise UsageError("trace file contains no records")
    return RolloutTrace(records=tuple(records))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _parse_step_range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi))
    value = int(text)
    return range(value, value + 1)


def _write_csv(rows: list[list], header: list[str], path: str | None) -> None:
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_schedule(args: argparse.Namespace) -> int:
    cfg = PolicyConfig(
        K=args.K,
        S=args.S,
        block_size=args.block_size,
        policy=_parse_enum(Policy, args.policy, "policy"),
        roll_convention=_parse_enum(RollConvention, args.convention, "convention"),
    )
    rows = []
    try:
        steps = _parse_step_range(args.step)
    except ValueError:
        raise UsageError(f"cannot parse step range {args.step!r} (use N or LO:HI)")
    for i in steps:
        sched = schedule_for(cfg, i)
        for rank, slot in enumerate(sched.slots):
            rows.append(
                [i, rank, slot.content_id, _ORIENT_WORD[slot.orientation],
                 slot.assigned_index]
            )
    header = ["i", "slot_rank", "content_id", "orientation", "assigned_index"]
    if args.out is None:
        sys.stdout.write("  ".join(f"{h:>14}" for h in header) + "\n")
        for row in rows:
            sys.stdout.write("  ".join(f"{str(cell):>14}" for cell in row) + "\n")
    else:
        _write_csv(rows, header, args.out)
    return 0


def cmd_rollout(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    trace = run(cfg)
    write_trace(trace, args.out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.metrics.split(",") if name.strip()]
    if not names:
        raise UsageError("no metrics requested")
    for name in names:
        if name not in METRICS:
            raise UsageError(
                f"unknown metric {name!r}; valid: " + ", ".join(sorted(METRICS))
            )
    trace = read_trace(args.trace)
    try:
        series = {
            name: (
                repetition_score(trace, window=args.window)
                if name == "repetition_score"
                else METRICS[name](trace)
            )
            for name in names
        }
    except ValueError as exc:
        raise UsageError(str(exc))
    steps = [step for step, _ in series[names[0]].values]
    rows = []
    for idx, step in enumerate(steps):
        rows.append([step] + [repr(series[name].values[idx][1]) for name in names])
    _write_csv(rows, ["step"] + names, args.out)
    return 0


def sink_size_for_ratio(ratio: int, capacity: int) -> int:
    """Map a rounded percent ratio back to its integer sink size."""
    for s in range(capacity):
        if round(100 * s / capacity) == ratio:
            return s
    raise UsageError(
        f"ratio {ratio}% does not correspond to an integer sink size with "
        f"K={capacity}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    try:
        ratios = sorted(int(r) for r in args.ratios.split(","))
        horizons = sorted(int(h) for h in args.horizons.split(","))
    except ValueError:
        raise UsageError("ratios and horizons must be comma-separated integers")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1 (got {args.seeds})")
    cells = [
        (ratio, sink_size_for_ratio(ratio, base.policy.K), horizon, variant, seed)
        for ratio in ratios
        for horizon in horizons
        for variant in _SWEEP_VARIANTS
        for seed in range(base.seed, base.seed + args.seeds)
    ]
    rows = []
    for ratio, sink, horizon, variant, seed in cells:
        policy = PolicyConfig(
            K=base.policy.K,
            S=sink,
            block_size=base.policy.block_size,
            policy=variant,
            roll_convention=base.policy.roll_convention,
        )
        cfg = RolloutConfig(
            policy=policy,
            denoiser=base.denoiser,
            horizon=horizon,
            seed=seed,
            frame_dim=base.frame_dim,
            timesteps=base.timesteps,
            record_frames=True,
        )
        trace = run(cfg)
        rows.append(
            [ratio, sink, base.policy.K, variant.value, horizon, seed,
             repr(METRICS["mean_drift"](trace).terminal()),
             repr(METRICS["flicker_proxy"](trace).terminal()),
             repr(repetition_score(trace, window=args.window).terminal())]
        )
    header = ["ratio", "S", "K", "policy", "horizon", "seed",
              "mean_drift", "flicker_proxy", "repetition_score"]
    _write_csv(rows, header, args.out)
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blockroll", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="print conditioning schedules")
    p_sched.add_argument("--policy", default="rolling-sink")
    p_sched.add_argument("-K", type=int, default=6)
    p_sched.add_argument("-S", type=int, default=5)
    p_sched.add_argument("--block-size", type=int, default=3, dest="block_size")
    p_sched.add_argument("--convention", default="palindrome")
    p_sched.add_argument("-i", "--step", required=True,
                         help="step index N, or half-open range LO:HI")
    p_sched.add_argument("--out", default=None, help="write CSV instead of a table")
    p_sched.set_defaults(func=cmd_schedule)

    p_roll = sub.add_parser("rollout", help="run a rollout and write its trace")
    p_roll.add_argument("config", help="rollout config file")
    p_roll.add_argument("--out", required=True, help="trace output path")
    p_roll.add_argument("--seed", type=int, default=None, help="override config seed")
    p_roll.set_defaults(func=cmd_rollout)

    p_met = sub.add_parser("metrics", help="compute metric series from a trace")
    p_met.add_argument("trace", help="trace file path")
    p_met.add_argument("--metrics",
                       default="mean_drift,flicker_proxy,repetition_score")
    p_met.add_argument("--window", type=int, default=8,
                       help="lookback window for repetition_score")
    p_met.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_met.set_defaults(func=cmd_metrics)

    p_sweep = sub.add_parser("sweep", help="sink-ratio sweep over policy variants")
    p_sweep.add_argument("config", help="base rollout config file")
    p_sweep.add_argument("--ratios", default="0,17,33,50,67,83",
                         help="comma-separated sink ratios in rounded percent")
    p_sweep.add_argument("--horizons", required=True,
                         help="comma-separated horizons in blocks")
    p_sweep.add_argument("--seeds", type=int, default=1,
                         help="number of seeds per cell, starting at the config seed")
    p_sweep.add_argument("--window", type=int, default=8)
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
