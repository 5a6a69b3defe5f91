"""Reference record check: what a trace record may hold, one record at a time.

cli checks records, and builds the records it reads back, a chunk at a time;
the tests require its writer and its reader to refuse every trace with the
message these functions give for its first bad record or line, and to accept
every other. Each function raises ValueError with that message."""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain
from math import isfinite

import numpy as np

from blockroll.engine import TraceRecord
from blockroll.schedule import Orientation

ROWS = "frames must be a list of rows of numbers, none empty"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# json.loads would accept NaN and Infinity, which no trace holds
_DECODE = json.JSONDecoder(parse_constant=_reject_constant).decode


def check_slot(obj: dict) -> None:
    content, orient, index = obj["content"], obj["orient"], obj["index"]
    if type(content) is not int or content < 0:
        raise TypeError(f"content must be a non-negative integer, got {content!r}")
    if type(index) is not int or index < 0:
        raise TypeError(f"index must be a non-negative integer, got {index!r}")
    if orient not in tuple(o.value for o in Orientation):
        raise ValueError(f"{orient!r} is not a valid Orientation")


def record_from_obj(obj: dict) -> TraceRecord:
    """A record read back: its slots are checked but not kept, so no policy,
    and its frames must be rows of JSON numbers; check_record checks the rest."""
    for slot in obj["schedule"]:
        check_slot(slot)
    frames = obj.get("frames")
    if frames is not None:
        if (type(frames) is not list or set(map(type, frames)) != {list}
                or not set(map(type, chain(*frames))) <= {int, float}):
            raise TypeError(ROWS)
        frames = np.asarray(frames, dtype=np.float64)  # ValueError if ragged
    stats = obj["frame_stats"]
    return TraceRecord(obj["step"], None, stats["mean"], stats["var"], frames, obj["seed"])


def check_record(record: TraceRecord, previous: TraceRecord | None) -> None:
    """An integer step >= 0 and seed, a finite int or float mean and var, and
    frames, if any, a finite float64 2-D array with a row and a column. After
    previous: the next step, the same seed and frame shape."""
    for name, value in (("step", record.step), ("seed", record.seed)):
        if type(value) is not int and not isinstance(value, np.integer):  # nor a bool
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if record.step < 0:
        raise ValueError(f"step index must be >= 0 (got {record.step})")
    for name, value in (("mean", record.mean), ("var", record.var)):
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
        if (type(frames) is not np.ndarray or frames.dtype != np.float64
                or frames.ndim != 2 or 0 in frames.shape):
            raise ValueError(ROWS)
        if not np.isfinite(frames).all():
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


def check_written(records: Sequence[TraceRecord]) -> None:
    """The writer's refusal: each record checked after the one before it, and
    a record read back, which holds no schedule, refused after its check."""
    for previous, record in zip(chain([None], records), records):
        check_record(record, previous)
        if record.policy is None:
            record.schedule  # raises: read back


def read_trace(path: str) -> tuple[TraceRecord, ...]:
    """Every record of a trace, each LF- or CRLF-ended line decoded, built and
    checked as it is read, so the first bad line is named."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                record = record_from_obj(_DECODE(line))
                check_record(record, records[-1] if records else None)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"trace line {lineno}: malformed record ({exc})")
            records.append(record)
    if not records:
        raise ValueError("trace file contains no records")
    return tuple(records)
