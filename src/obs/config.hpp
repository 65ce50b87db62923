// Observability configuration carried by WorkflowSpec. Every Runtime owns
// one obs::Recorder; ObsConfig decides whether it also feeds the span
// tracer, the metrics registry and the obs-only digest kinds. With it off
// the run is byte-identical — trace digests included — to one that never
// heard of spans or metrics.
#pragma once

#include <cstddef>

namespace dstage::obs {

struct ObsConfig {
  /// Master switch for the span/metrics sinks. Off by default so
  /// golden-trace digests, the consistency oracle, and the failure
  /// campaign see exactly the uninstrumented event stream.
  bool enabled = false;
};

/// Flight-recorder rings, carried by WorkflowSpec next to ObsConfig. The
/// rings are always on: they record no trace events, take no virtual time,
/// and draw no randomness, so golden digests do not depend on them.
struct RecorderConfig {
  /// Last-K events retained per track before the ring wraps.
  std::size_t ring_capacity = 256;
};

}  // namespace dstage::obs
