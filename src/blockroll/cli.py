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
from operator import itemgetter

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
_SLOT_FIELDS = itemgetter("content", "orient", "index")
# records are checked, and trace lines written and read, this many at a time
_CHUNK = 64


def _json_number(value: float) -> str:
    """A number as json.dumps writes it. float.__repr__, not repr(), so that
    an np.float64 prints as a plain number; ints read back from a trace stay
    ints."""
    return int.__repr__(value) if type(value) is int else float.__repr__(value)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads would accept NaN and Infinity, which write_trace never writes
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _checked(check, items: Iterable) -> Iterator[TraceRecord]:
    """The records that check(chunk, previous record) returns for items, _CHUNK
    at a time. A chunk it refuses is checked again an item at a time, so the
    first bad item raises its ValueError, as if each were checked alone."""
    previous, items = None, iter(items)
    while chunk := list(islice(items, _CHUNK)):
        try:
            records = check(chunk, previous)
        except ValueError:
            records = []
            for item in chunk:
                records += check([item], records[-1] if records else previous)
        previous = records[-1] if records else previous
        yield from records


def _check_records(records: Sequence[TraceRecord], previous: TraceRecord | None) -> None:
    """What trace records may hold, read or written: an integer step >= 0 and
    seed, a finite int or float mean and var, and frames, if any, a finite
    float64 2-D array with a row and a column. After previous, they are one
    rollout: the next steps, the same seed and frame shape. Each check covers
    every record at once; for one record, ValueError names the first it breaks."""
    steps, seeds = [r.step for r in records], [r.seed for r in records]
    for name, values in (("step", steps), ("seed", seeds)):
        if not all(t is int or issubclass(t, np.integer) for t in {*map(type, values)}):
            raise ValueError(f"{name} must be an integer, got {values[0]!r}")  # nor a bool
    if min(steps) < 0:
        raise ValueError(f"step index must be >= 0 (got {steps[0]})")
    for name, values in (("mean", [r.mean for r in records]), ("var", [r.var for r in records])):
        # what _json_number writes: np.float64 is a float; np.float32, bools are not
        if not all(t is int or issubclass(t, float) for t in {*map(type, values)}):
            raise ValueError(f"{name} must be a number, got {values[0]!r}")
        try:
            finite = np.isfinite(np.array(values, np.float64)).all()
        except OverflowError as exc:  # an int past the float range
            raise ValueError(str(exc)) from None
        if not finite:
            raise ValueError(f"{name} {values[0]!r} is not a finite number")
    frames = [r.frames for r in records]
    present = [f for f in frames if f is not None]
    shapes = {f.shape for f in present} if {*map(type, present)} <= {np.ndarray} else None
    if present:
        if (shapes is None or {f.dtype for f in present} != {np.dtype(np.float64)}  # as read back
                or not all(len(shape) == 2 and 0 not in shape for shape in shapes)):
            raise ValueError("frames must be a list of rows of numbers, none empty")
        # several frame shapes break a check below, which a record at a time names
        if len(shapes) > 1 or not np.isfinite(np.concatenate(present)).all():
            raise ValueError("frames hold a number that is not finite")  # 1e400 reads as inf
    first = records[0] if previous is None else previous
    head = steps[0] if previous is None else previous.step + 1
    if steps != list(range(head, head + len(steps))):
        raise ValueError(f"step {steps[0]} does not follow step {first.step}")
    if seeds.count(first.seed) != len(seeds):
        raise ValueError(f"seed {seeds[0]!r} differs from the trace's seed {first.seed!r}")
    expected = None if first.frames is None else first.frames.shape
    if shapes | ({None} if len(present) < len(frames) else set()) != {expected}:
        shape = None if frames[0] is None else frames[0].shape
        raise ValueError(f"frames shape {shape} differs from the previous record's {expected}")


def _check_written(records: Sequence[TraceRecord], previous: TraceRecord | None) -> list:
    """records, checked, and refused if one was read back: it holds no schedule."""
    _check_records(records, previous)
    for record in records:
        if record.policy is None:
            record.schedule  # raises: read back
    return records


def trace_to_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """One JSON line per record, byte for byte what json.dumps with compact
    separators writes. The records must be one rollout that read_trace would
    read back, and none read back: all are checked first (ValueError at the
    first that is not). Lines are formed as they are consumed, each record's
    slot text slid from the last one's (SlotWalk)."""
    records = tuple(_checked(_check_written, records))
    walk = SlotWalk(_SLOT.__mod__)
    return (_LINE % (r.step, ",".join(walk.slots(r.policy, r.step)), _json_number(r.mean),
                     _json_number(r.var),
                     "" if r.frames is None else ',"frames":' + _ENCODE(r.frames.tolist()),
                     r.seed) for r in records)


def _write_lines(lines: Iterable[str], path: str | None) -> None:
    """Each line to path or stdout, joined and written _CHUNK lines at a time, so
    lines formed lazily are written in the memory of one chunk. The first is
    formed before path is opened, so a refusal raised in it writes nothing."""
    lines = iter(lines)  # an islice of a list would restart at its first line
    chunk = list(islice(lines, _CHUNK))
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        while chunk:
            fh.write("\n".join(chunk) + "\n")
            chunk = list(islice(lines, _CHUNK))


def write_trace(records: Iterable[TraceRecord], path: str) -> None:
    _write_lines(trace_to_lines(records), path)


def read_trace(path: str) -> tuple[TraceRecord, ...]:
    """Every record of a trace, its LF- or CRLF-ended lines read and checked a
    chunk at a time (_checked), so the first bad line is named."""
    with open(path, "rb") as fh:
        records = tuple(_checked(_read_lines, enumerate(fh, start=1)))
    if not records:
        raise UsageError("trace file contains no records")
    return records


def _read_lines(lines: list[tuple[int, bytes]], previous: TraceRecord | None) -> list:
    """The records of numbered lines. Each line's values are taken as it is
    decoded, then all lines' slots, frames rows and records are checked at once,
    one line's in the order of its keys. A refusal is a UsageError naming the
    line decoded last: for one line, that line."""
    slots, rows, fields, missing = [], [], [], None
    try:
        for lineno, line in lines:
            text = line.decode("utf-8")
            if not text.strip():
                continue
            obj = _DECODER.decode(text)
            try:  # raised after the checks of the values taken before it
                slots.extend(map(_SLOT_FIELDS, obj["schedule"]))
                frames = obj.get("frames")
                if frames is not None:
                    rows.append(frames)
                stats = obj["frame_stats"]
                fields.append((obj["step"], stats["mean"], stats["var"], frames is not None,
                               obj["seed"]))
            except (KeyError, TypeError) as exc:
                missing = exc
                break
        contents, orients, indices = zip(*slots) if slots else ((),) * 3
        if ({*map(type, contents), *map(type, indices)} - {int}
                or min(contents + indices, default=0) < 0
                or sum(map(orients.count, _ORIENTATIONS)) != len(orients)):
            for content, orient, index in slots:  # the first bad slot raises
                for name, value in (("content", content), ("index", index)):
                    if type(value) is not int or value < 0:
                        raise TypeError(f"{name} must be a non-negative integer, got {value!r}")
                if orient not in _ORIENTATIONS:
                    raise ValueError(f"{orient!r} is not a valid Orientation")
        if rows:
            if ({*map(type, rows)} != {list} or {*map(type, chain.from_iterable(rows))} != {list}
                    or not {*map(type, chain.from_iterable(chain.from_iterable(rows)))}
                    <= _NUMBER_TYPES):
                raise TypeError("frames must be a list of rows of numbers, none empty")
            # ValueError if ragged; one line's rows alone, so the message is theirs
            stacked = iter(np.asarray(rows, np.float64) if len(rows) > 1
                           else np.asarray(rows[0], np.float64)[None])
        if missing is not None:
            raise missing
        records = [TraceRecord(step, None, mean, var, next(stacked) if framed else None, seed)
                   for step, mean, var, framed, seed in fields]
        if records:
            _check_records(records, previous)
    # RecursionError: the decoder's answer to deeply nested brackets
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise UsageError(f"trace line {lineno}: malformed record ({exc})")
    return records


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
    # Sliding-indices pins attention-sink's blocks at other positions only, so for
    # a denoiser that reads none its cells read the attention-sink run of their S.
    # A seed's one fill run is the run of every rollout of horizon <= K; a longer
    # one's is forked from it at step K. Each run steps once through the horizons.
    metrics = _metric_table(args.window)
    fill = replace(base.policy, S=0, policy=Policy.ATTENTION_SINK)
    run_of = ({} if base.denoiser.reads_positions
              else {Policy.SLIDING_INDICES: Policy.ATTENTION_SINK})
    prefixes: dict[int, Rollout] = {}
    runs: dict[tuple, Rollout] = {}
    terminals: dict[tuple, list] = {}  # by (policy read, horizon, seed)
    rows = []
    for sink in sinks:  # a sink policy's runs and terminals are dropped with its S
        runs = {key: rollout for key, rollout in runs.items() if key[0] is fill}
        terminals = {key: values for key, values in terminals.items() if key[0] is fill}
        for horizon, variant, seed in product(
                horizons, _SWEEP_VARIANTS, range(base.seed, base.seed + args.seeds)):
            policy = replace(base.policy, S=sink, policy=run_of.get(variant, variant))
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
                terminals[read, horizon, seed] = [m(records, first=len(records) - 1)[-1].item()
                                                  for m in metrics.values()]  # one row
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
