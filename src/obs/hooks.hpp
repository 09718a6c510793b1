// Observability attachment point.
//
// Subsystems that can be observed (pipelines, readers, the online
// detector) take an obs::Hooks by value in their options struct. All
// members default to nullptr — the unobserved configuration — and the
// instrumented code resolves its metric handles once at construction, so
// per-packet work pays only a pointer test when nothing is attached.
#pragma once

namespace quicsand::obs {

class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
class Tracer;
class EventLog;
class Health;

struct Hooks {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  EventLog* events = nullptr;
  /// Liveness registry: long-running stages register a component and
  /// heartbeat it so /healthz can flag a stalled stage (see health.hpp).
  Health* health = nullptr;
};

}  // namespace quicsand::obs
