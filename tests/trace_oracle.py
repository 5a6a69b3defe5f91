"""Reference trace encoder: a record as the object json.dumps serialises.

cli.trace_to_lines formats each record straight into its JSON line; the
tests require it to equal json.dumps of this object, compact separators,
byte for byte."""

from __future__ import annotations

from blockroll.engine import TraceRecord


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
