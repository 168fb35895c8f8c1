"""Scheduling layer: RASS KV reuse scheduling + the tiled pipeline controller."""

from repro.hw.scheduler.controller import PipelineTiming, TiledPipelineController
from repro.hw.scheduler.rass import (
    naive_schedule,
    rass_schedule,
    ScheduleReport,
)

__all__ = [
    "naive_schedule",
    "rass_schedule",
    "ScheduleReport",
    "TiledPipelineController",
    "PipelineTiming",
]
