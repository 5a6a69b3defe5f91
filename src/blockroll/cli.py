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
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from itertools import chain, islice, product
from math import isfinite

import numpy as np

from .denoisers import (
    AnalyticGaussianDenoiser,
    ContextMeanDenoiser,
    TinyAttentionDenoiser,
)
from .engine import InternalInvariantError, Rollout, RolloutConfig, TraceRecord, run
from .metrics import METRICS, check_window, repetition_score
from .sampler import TimestepSchedule
from .schedule import Orientation, Policy, PolicyConfig, RollConvention, SlotWalk, schedule_for

_ORIENT_WORD = {Orientation.FORWARD: "forward", Orientation.REVERSED: "reversed"}

_SWEEP_VARIANTS = (Policy.ATTENTION_SINK, Policy.SLIDING_INDICES, Policy.ROLLING_SINK)


class UsageError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


# --------------------------------------------------------------------------
# config file format
# --------------------------------------------------------------------------

def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# How each key's text is read; the enums and timesteps are read afterwards.
# A key left out of a file takes its default from the constructor it feeds.
_KEYS = {"K": int, "S": int, "block_size": int, "T": int, "horizon": int, "seed": int,
         "frame_dim": int, "record_frames": _boolean, "policy": str, "convention": str,
         "denoiser": str, "timesteps": str}
_DENOISERS = {
    "analytic-gaussian": (AnalyticGaussianDenoiser, {"rho": float}),
    "context-mean": (ContextMeanDenoiser, {"anchor_weight": float,
                                           "innovation_scale": float, "bias": float}),
    "tiny-attention": (TinyAttentionDenoiser, {"model_dim": int, "head_count": int,
                                               "layer_count": int, "weight_seed": int}),
}
_READERS = {**_KEYS, **{key: read for _, keys in _DENOISERS.values()
                        for key, read in keys.items()}}


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
        if key not in _READERS:
            raise UsageError(f"unknown config key: {key}")
        if key in raw:
            raise UsageError(f"duplicate config key: {key}")
        raw[key] = value

    values: dict[str, object] = {}
    for key, text_value in raw.items():
        try:
            values[key] = _READERS[key](text_value)
        except ValueError:
            raise UsageError(f"config key {key}: cannot parse value {text_value!r}")

    policy_cfg = _policy_config(values)
    if "timesteps" in values and "T" in values:
        raise UsageError("set either T or timesteps, not both")
    rollout = {key: values[key] for key in ("seed", "frame_dim", "record_frames")
               if key in values}
    if "timesteps" in values:
        try:
            steps = tuple(float(x) for x in values["timesteps"].split(","))
            rollout["timesteps"] = TimestepSchedule(steps)
        except ValueError as exc:
            raise UsageError(f"config key timesteps: {exc}")
    elif "T" in values:
        try:
            rollout["timesteps"] = TimestepSchedule.uniform(values["T"])
        except ValueError as exc:
            raise UsageError(f"config key T: {exc}")

    kind = values.get("denoiser", "context-mean")
    if kind not in _DENOISERS:
        raise UsageError(f"unknown denoiser {kind!r}; valid: "
                         + ", ".join(sorted(_DENOISERS)))
    denoiser_cls, denoiser_keys = _DENOISERS[kind]
    for key in values:
        if key not in _KEYS and key not in denoiser_keys:
            raise UsageError(f"config key {key} is not valid for denoiser {kind}")
    params = {key: values[key] for key in denoiser_keys if key in values}
    if denoiser_cls is TinyAttentionDenoiser:  # sizes its weights by the frame width
        params["frame_dim"] = values.get("frame_dim", RolloutConfig.frame_dim)
    try:
        return RolloutConfig(policy=policy_cfg, denoiser=denoiser_cls(**params),
                             horizon=values.get("horizon", 10), **rollout)
    except ValueError as exc:
        raise UsageError(str(exc))


def _policy_config(values: dict) -> PolicyConfig:
    """A PolicyConfig from the entries of `values` that are set and not None;
    PolicyConfig's own defaults fill the rest."""
    params = {key: values[key] for key in ("K", "S", "block_size")
              if values.get(key) is not None}
    if values.get("policy") is not None:
        params["policy"] = _parse_enum(Policy, values["policy"], "policy")
    if values.get("convention") is not None:
        params["roll_convention"] = _parse_enum(RollConvention, values["convention"],
                                                "convention")
    try:
        return PolicyConfig(**params)
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
_ORIENTATIONS = tuple(o.value for o in Orientation)
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


def _check_slot(obj: dict) -> None:
    content, orient, index = obj["content"], obj["orient"], obj["index"]
    if type(content) is not int or content < 0:
        raise TypeError(f"content must be a non-negative integer, got {content!r}")
    if type(index) is not int or index < 0:
        raise TypeError(f"index must be a non-negative integer, got {index!r}")
    if orient not in _ORIENTATIONS:
        raise ValueError(f"{orient!r} is not a valid Orientation")


def record_from_obj(obj: dict) -> TraceRecord:
    """A record read back: its slots are checked but not kept, so no policy,
    and its frames must be rows of JSON numbers; _check_record checks the rest."""
    for slot in obj["schedule"]:
        _check_slot(slot)
    frames = obj.get("frames")
    if frames is not None:
        if (type(frames) is not list or set(map(type, frames)) != {list}
                or not set(map(type, chain(*frames))) <= _NUMBER_TYPES):
            raise TypeError("frames must be a list of rows of numbers, none empty")
        frames = np.asarray(frames, dtype=np.float64)  # ValueError if ragged
    stats = obj["frame_stats"]
    return TraceRecord(obj["step"], None, stats["mean"], stats["var"], frames, obj["seed"])


def _check_record(record: TraceRecord, previous: TraceRecord | None) -> None:
    """What a trace record may hold, read or written: an integer step >= 0 and
    seed, a finite int or float mean and var, and frames, if any, a finite float64
    2-D array with a row and a column. After previous, a trace is one rollout:
    the next step, the same seed and frame shape. ValueError at the first break."""
    for name, value in (("step", record.step), ("seed", record.seed)):
        if type(value) is not int and not isinstance(value, np.integer):  # nor a bool
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if record.step < 0:
        raise ValueError(f"step index must be >= 0 (got {record.step})")
    for name, value in (("mean", record.mean), ("var", record.var)):
        # what _json_number writes: np.float64 is a float; np.float32, bools are not
        if type(value) is not int and not isinstance(value, float):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            finite = isfinite(value)
        except OverflowError as exc:  # an int past the float range
            raise ValueError(str(exc)) from None
        if not finite:
            raise ValueError(f"{name} {value!r} is not a finite number")
    frames = record.frames
    if frames is not None:
        if (type(frames) is not np.ndarray or frames.dtype != np.float64  # as read back
                or frames.ndim != 2 or 0 in frames.shape):
            raise ValueError("frames must be a list of rows of numbers, none empty")
        if not np.isfinite(frames).all():  # a literal such as 1e400 decodes to inf
            raise ValueError("frames hold a number that is not finite")
    if previous is None:
        return
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


def trace_to_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """One JSON line per record, byte for byte what json.dumps with compact
    separators writes. The records must be one rollout that read_trace would
    read back: each is checked first by _check_record, and a record read back,
    which holds no schedule, is refused too (ValueError at the first). Lines
    are formed as they are consumed, each record's slot text slid from the
    last one's (SlotWalk)."""
    records = tuple(records)  # a tuple, such as run's trace, is not copied
    for previous, r in zip(chain([None], records), records):
        _check_record(r, previous)
        if r.policy is None:
            r.schedule  # raises: read back
    walk = SlotWalk(_SLOT.__mod__)
    return (_LINE % (r.step, ",".join(walk.slots(r.policy, r.step)), _json_number(r.mean),
                     _json_number(r.var),
                     "" if r.frames is None else ',"frames":' + _ENCODE(r.frames.tolist()),
                     r.seed) for r in records)


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    """Each line to path or stdout, joined and written 64 lines at a time, so
    lines formed lazily are written in the memory of one chunk. The first is
    formed before path is opened, so a refusal raised in it writes nothing."""
    lines = iter(lines)  # an islice of a list would restart at its first line
    chunk = list(islice(lines, 64))
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        while chunk:
            fh.write("\n".join(chunk) + "\n")
            chunk = list(islice(lines, 64))


def write_trace(records: Iterable[TraceRecord], path: str) -> None:
    _write_lines(trace_to_lines(records), path)


def read_trace(path: str) -> tuple[TraceRecord, ...]:
    """Every record of a trace, each LF- or CRLF-ended line decoded and checked as read."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                record = record_from_obj(_DECODER.decode(line))
                _check_record(record, records[-1] if records else None)
            # RecursionError: the decoder's answer to deeply nested brackets
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise UsageError(f"trace line {lineno}: malformed record ({exc})")
            records.append(record)
    if not records:
        raise UsageError("trace file contains no records")
    return tuple(records)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _parse_step_range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi))
    value = int(text)
    return range(value, value + 1)


def _write_rows(rows: Iterable[Sequence], header: Sequence[str], path: str | None,
                table: bool = False) -> None:
    """The header, then each row, as CSV or as a table of right-aligned cells, to
    path or stdout, each row formatted as _write_lines writes its chunk."""
    sep, cell = ("  ", "{:>14}".format) if table else (",", str)
    _write_lines((sep.join(map(cell, cells)) for cells in chain([header], rows)), path)


def cmd_schedule(args: argparse.Namespace) -> int:
    cfg = _policy_config(vars(args))
    try:
        steps = _parse_step_range(args.step)
    except ValueError:
        raise UsageError(f"cannot parse step range {args.step!r} (use N or LO:HI)")
    rows = ((i, rank, content, _ORIENT_WORD[orientation], index) for i in steps
            for rank, (content, orientation, index) in enumerate(schedule_for(cfg, i).slots))
    header = ["i", "slot_rank", "content_id", "orientation", "assigned_index"]
    _write_rows(rows, header, args.out, table=args.out is None)
    return 0


def cmd_rollout(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    write_trace(run(cfg), args.out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    # a metric named twice is one column, kept where it is first named
    names = list(dict.fromkeys(n.strip() for n in args.metrics.split(",") if n.strip()))
    if not names:
        raise UsageError("no metrics requested")
    for name in names:
        if name not in METRICS:
            raise UsageError(
                f"unknown metric {name!r}; valid: " + ", ".join(sorted(METRICS))
            )
    if "repetition_score" in names:  # refused before the trace is read
        check_window(args.window)
    metrics = _metric_table(args.window)
    records = read_trace(args.trace)
    columns = [metrics[name](records).tolist() for name in names]  # floats: str() writes repr()
    rows = ([record.step, *values] for record, *values in zip(records, *columns))
    _write_rows(rows, ["step"] + names, args.out)
    return 0


def _metric_table(window: int) -> dict:
    """METRICS, window bound, from the repetition_score the benchmark's tracer wraps."""
    return {**METRICS, "repetition_score": partial(repetition_score, window=window)}


def _step_to(rollout: Rollout, step: int, window: int) -> list[TraceRecord]:
    """Step to `step`, holding block 0 and the last `window` + 1 records, a terminal's input."""
    while rollout.step_index < step:
        rollout.step()
        del rollout.records[1:-(window + 1)]
    return rollout.records


def sink_sizes_for_ratio(ratio: int, capacity: int) -> list[int]:
    """Every S in [0, capacity) with round(100*S/capacity) == ratio."""
    sizes = [s for s in range(capacity) if round(100 * s / capacity) == ratio]
    if not sizes:
        raise UsageError(f"ratio {ratio}% does not correspond to an integer sink "
                         f"size with K={capacity}")
    return sizes


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    K = base.policy.K
    try:  # a repeated ratio or horizon names the same cells, so sets
        ratios = (None if args.ratios is None
                  else sorted({int(r) for r in args.ratios.split(",")}))
        horizons = sorted({int(h) for h in args.horizons.split(",")})
    except ValueError:
        raise UsageError("ratios and horizons must be comma-separated integers")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1 (got {args.seeds})")
    check_window(args.window)  # refused before any cell runs
    sinks = (range(K) if ratios is None
             else [s for r in ratios for s in sink_sizes_for_ratio(r, K)])
    # Each rollout a cell names is computed once, across S and variants: the fill
    # policy's unless the cell's last step reads sinks (PolicyConfig.sink_slots).
    # A seed's one fill run is the run of every rollout of horizon <= K; a longer
    # one's is forked from it at step K. Each run steps once through the horizons.
    metrics = _metric_table(args.window)
    fill = replace(base.policy, S=0, policy=Policy.ATTENTION_SINK)
    prefixes: dict[int, Rollout] = {}
    runs: dict[tuple, Rollout] = {}
    terminals: dict[tuple, list] = {}  # by (policy read, horizon, seed)
    rows = []
    for sink in sinks:  # a sink policy's runs and terminals are dropped with its S
        runs = {key: rollout for key, rollout in runs.items() if key[0] is fill}
        terminals = {key: values for key, values in terminals.items() if key[0] is fill}
        for horizon, variant, seed in product(
                horizons, _SWEEP_VARIANTS, range(base.seed, base.seed + args.seeds)):
            policy = replace(base.policy, S=sink, policy=variant)
            read = policy if policy.sink_slots(horizon - 1) else fill
            if (read, horizon, seed) not in terminals:
                prefix = prefixes.get(seed)
                if prefix is None:  # RolloutConfig refuses a horizon below 1
                    prefix = prefixes[seed] = Rollout(replace(
                        base, policy=fill, horizon=horizon, seed=seed, record_frames=True))
                rollout = prefix if horizon <= K else runs.get((read, seed))
                if rollout is None:
                    _step_to(prefix, K, args.window)
                    rollout = runs[read, seed] = prefix.fork(read)
                records = _step_to(rollout, horizon, args.window)
                terminals[read, horizon, seed] = [m(records)[-1].item() for m in metrics.values()]
            rows.append([round(100 * sink / K), sink, K, variant.value, horizon, seed,
                         *terminals[read, horizon, seed]])
    _write_rows(rows, ["ratio", "S", "K", "policy", "horizon", "seed", *METRICS], args.out)
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
    # unset flags take PolicyConfig's defaults
    p_sched.add_argument("--policy")
    p_sched.add_argument("-K", type=int)
    p_sched.add_argument("-S", type=int)
    p_sched.add_argument("--block-size", type=int, dest="block_size")
    p_sched.add_argument("--convention")
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
    p_met.add_argument("--metrics", default=",".join(METRICS))
    p_met.add_argument("--window", type=int, default=8,
                       help="lookback window for repetition_score")
    p_met.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_met.set_defaults(func=cmd_metrics)

    p_sweep = sub.add_parser("sweep", help="sink-ratio sweep over policy variants")
    p_sweep.add_argument("config", help="base rollout config file")
    p_sweep.add_argument("--ratios", help="comma-separated sink ratios in rounded "
                         "percent (default: every sink size S in [0, K))")
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
        # numpy's floating-point warnings would break the stderr contract; a
        # non-finite block is refused at its step
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
