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

def record_to_obj(record: TraceRecord) -> dict:
    obj = {
        "step": record.step,
        "schedule": [
            {
                "content": slot.content_id,
                "orient": slot.orientation.value,
                "index": slot.assigned_index,
            }
            for slot in record.schedule.slots
        ],
        "frame_stats": {"mean": record.mean, "var": record.var},
    }
    if record.frames is not None:
        obj["frames"] = record.frames.tolist()
    obj["seed"] = record.seed
    return obj


def record_from_obj(obj: dict) -> TraceRecord:
    slots = tuple(
        CacheSlot(s["content"], Orientation(s["orient"]), s["index"])
        for s in obj["schedule"]
    )
    frames = obj.get("frames")
    return TraceRecord(
        step=obj["step"],
        schedule=Schedule(step=obj["step"], slots=slots),
        mean=obj["frame_stats"]["mean"],
        var=obj["frame_stats"]["var"],
        frames=None if frames is None else np.asarray(frames, dtype=np.float64),
        seed=obj["seed"],
    )


def trace_to_lines(trace: RolloutTrace) -> list[str]:
    return [json.dumps(record_to_obj(r), separators=(",", ":")) for r in trace.records]


def write_trace(trace: RolloutTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_to_lines(trace):
            fh.write(line + "\n")


def read_trace(path: str) -> RolloutTrace:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(record_from_obj(json.loads(line)))
            except (KeyError, ValueError) as exc:
                raise UsageError(f"trace line {lineno}: malformed record ({exc})")
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
