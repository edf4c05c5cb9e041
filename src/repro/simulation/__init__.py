"""Discrete-event simulation kernel: engine, RNG streams, CIs."""

from repro.simulation.confidence import (
    ConfidenceInterval,
    StreamingMoments,
    batch_means,
    confidence_interval,
    required_samples,
    t_critical,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ScheduledEvent, TraceRecord, make_event
from repro.simulation.rng import RandomStreams

__all__ = [
    "ConfidenceInterval",
    "RandomStreams",
    "ScheduledEvent",
    "SimulationEngine",
    "StreamingMoments",
    "TraceRecord",
    "batch_means",
    "confidence_interval",
    "make_event",
    "required_samples",
    "t_critical",
]
