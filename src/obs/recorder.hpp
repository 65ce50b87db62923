// One obs::Recorder per Runtime: the sinks of the event vocabulary
// (obs/event.hpp) behind one value handle per component, obs::Track.
//
//   - The digest Trace, fed by every `always` kind and, with
//     ObsConfig::enabled, every `obs_only` kind.
//   - Always-on flight-recorder rings: the last-K compact events per track
//     (one track per component, staging server, or auxiliary vproc),
//     recorded at near-zero host cost and zero virtual-time cost. When
//     something goes loudly wrong — an oracle invariant violation, a
//     campaign --expect-fail mismatch, or a degradation (double XOR
//     loss) — the rings are dumped into a forensic
//     bundle (check/forensics) and diffed against the memoized reference
//     run to name the first divergent event.
//   - With ObsConfig::enabled, the span tracer (spans plus the kinds'
//     point instants) and the metrics registry.
//   - One optional synchronous subscriber that sees every event, obs on or
//     off: how the consistency oracle (src/check) watches a run.
//
// A site calls its Track once per fact; the kind table decides which sinks
// see it. A default-constructed Track is detached and every method on it
// does nothing, so a component built alone (a unit-test rig) needs no
// recorder. Recording takes no virtual time and draws no randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/config.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace dstage::obs {

/// One ring record. `track` and `detail` are intern-table ids; `seq` is a
/// recorder-global monotone counter so a merged dump interleaves tracks in
/// true record order even though each track truncates independently.
/// A subscriber sees ring-less kinds with `seq` and `detail` 0.
struct Event {
  std::uint64_t seq = 0;
  std::int64_t at_ns = 0;
  Kind kind = Kind::kPutAdmit;
  std::uint32_t track = 0;
  std::uint32_t detail = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Ring record with strings resolved, for dumps and bundles.
struct DecodedEvent {
  std::uint64_t seq = 0;
  std::int64_t at_ns = 0;
  std::string kind;
  std::string track;
  std::string detail;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// The opt-in sinks (ObsConfig::enabled): span tracer and metrics registry.
class Observability {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanTracer& tracer() { return tracer_; }
  [[nodiscard]] const SpanTracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
};

class Recorder;

/// A component's handle on the run's Recorder. Cheap to copy; valid for
/// the Recorder's lifetime. Every method is a no-op on a detached handle,
/// and the span/metric methods are no-ops while ObsConfig is off.
class Track {
 public:
  Track() = default;

  /// Record one fact with no detail string.
  void emit(Kind kind, std::int64_t a = 0, std::int64_t b = 0) const;
  /// Record one fact; `detail` is interned only for ring kinds.
  void emit(Kind kind, std::string_view detail, std::int64_t a = 0,
            std::int64_t b = 0) const;

  /// Open a span on this track (0 when spans are off). `parent` links
  /// causally (0 for a root span).
  SpanId begin(std::string_view name, Phase phase, SpanId parent = 0,
               std::int64_t value = 0) const;
  /// Close a span; ignores 0 and already-closed spans.
  void end(SpanId span) const;
  /// Close every span still open on this track, innermost first (a process
  /// killed mid-activity).
  void end_open() const;

  /// Metrics labeled with this track's name.
  void count(std::string_view name, std::uint64_t n = 1) const;
  void gauge(std::string_view name, double value) const;
  void observe(std::string_view name, double sample) const;

  /// This track's id in its recorder: the Event::track of what it emits.
  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// A loud degradation (double XOR loss, ...):
  /// recorded as a kDegradation event AND kept verbatim so a forensic
  /// bundle is dumped even when no invariant check is watching.
  void degrade(std::string what) const;

 private:
  friend class Recorder;
  Track(Recorder* rec, std::uint32_t id) : rec_(rec), id_(id) {}
  /// Attached to a recorder whose span/metrics sinks are on.
  [[nodiscard]] bool observing() const;

  Recorder* rec_ = nullptr;
  std::uint32_t id_ = 0;
};

class Recorder {
 public:
  explicit Recorder(const sim::Engine& engine, RecorderConfig cfg = {},
                    ObsConfig obs = {});
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Find-or-create the handle for a named track. Ids are dense and
  /// stable; call once at wiring time, not on the hot path.
  [[nodiscard]] Track track(std::string_view name);
  /// Intern a detail string (variable/component names repeat heavily, so
  /// ring events store 4-byte ids instead of strings).
  [[nodiscard]] std::uint32_t intern(std::string_view s);

  /// Route one event to the sinks its kind's table row names, then to the
  /// subscriber. `detail` is interned only for ring kinds.
  void emit(std::uint32_t track, Kind kind, std::string_view detail,
            std::int64_t a, std::int64_t b);

  /// Called inside emit() for every event, with its detail string. It only
  /// observes (no virtual time, no mutation), so it never moves a digest
  /// or a ring. Installing another replaces it.
  using Subscriber =
      std::function<void(const Event& event, std::string_view detail)>;
  void subscribe(Subscriber fn) { subscriber_ = std::move(fn); }

  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }
  /// Span tracer + metrics registry; null unless ObsConfig::enabled.
  [[nodiscard]] Observability* obs() { return obs_.get(); }
  [[nodiscard]] const Observability* obs() const { return obs_.get(); }
  /// Counter `name{label}` (empty label = run-wide); no-op while ObsConfig
  /// is off.
  void count(std::string_view name, std::string_view label, std::uint64_t n);
  /// Close every span still open (run teardown safety net).
  void close_spans();

  [[nodiscard]] const std::vector<std::string>& degradations() const {
    return degradations_;
  }
  /// Total ring events offered (including overwritten ones).
  [[nodiscard]] std::uint64_t events_recorded() const { return recorded_; }
  /// Ring events lost to wraparound across all tracks.
  [[nodiscard]] std::uint64_t events_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t track_count() const {
    return track_names_.size();
  }
  [[nodiscard]] const std::string& track_name(std::uint32_t id) const;

  /// Surviving ring events of every track, merged in global seq order.
  [[nodiscard]] std::vector<Event> snapshot() const;
  /// snapshot() with strings resolved — the bundle payload.
  [[nodiscard]] std::vector<DecodedEvent> dump() const;

 private:
  friend class Track;

  struct Ring {
    std::vector<Event> buf;  // capacity-sized once first written
    std::size_t next = 0;    // slot the next event overwrites
    std::uint64_t total = 0;  // events ever recorded on this track
  };

  void record_instant(std::uint32_t track, sim::TimePoint at, Kind kind,
                      std::int64_t value);
  [[nodiscard]] const std::string& detail_name(std::uint32_t id) const;
  /// Surviving ring events of one track, oldest first.
  [[nodiscard]] std::vector<Event> track_events(std::uint32_t id) const;

  const sim::Engine* engine_;
  RecorderConfig cfg_;
  Trace trace_;
  std::unique_ptr<Observability> obs_;  // null = spans/metrics off
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> track_names_;
  std::vector<Ring> rings_;
  std::unordered_map<std::string, std::uint32_t> track_ids_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  std::vector<std::string> degradations_;
  Subscriber subscriber_;
};

inline void Recorder::emit(std::uint32_t track, Kind kind,
                           std::string_view detail, std::int64_t a,
                           std::int64_t b) {
  const KindInfo& info = kind_info(kind);
  const sim::TimePoint now = engine_->now();
  Event event{0, now.ns, kind, track, 0, a, b};
  if (info.ring) {
    if (!detail.empty()) event.detail = intern(detail);
    event.seq = ++seq_;
    Ring& ring = rings_[track];
    if (ring.buf.size() < cfg_.ring_capacity) {
      ring.buf.emplace_back();
      ring.next = ring.buf.size() - 1;
    } else {
      ++dropped_;
    }
    ring.buf[ring.next] = event;
    ring.next = (ring.next + 1) % cfg_.ring_capacity;
    ++ring.total;
    ++recorded_;
  }
  if (info.digest == Digest::kAlways ||
      (info.digest == Digest::kObsOnly && obs_ != nullptr)) {
    trace_.record(now, kind, track_names_[track], static_cast<int>(a), b);
  }
  if (info.instant && obs_ != nullptr) record_instant(track, now, kind, b);
  if (subscriber_) subscriber_(event, detail);
}

inline void Track::emit(Kind kind, std::int64_t a, std::int64_t b) const {
  if (rec_ != nullptr) rec_->emit(id_, kind, {}, a, b);
}

inline void Track::emit(Kind kind, std::string_view detail, std::int64_t a,
                        std::int64_t b) const {
  if (rec_ != nullptr) rec_->emit(id_, kind, detail, a, b);
}

// The span and metric methods are inline so that, with ObsConfig off, a
// site pays one null test and one flag load — nothing else.
inline bool Track::observing() const {
  return rec_ != nullptr && rec_->obs_ != nullptr;
}

inline SpanId Track::begin(std::string_view name, Phase phase, SpanId parent,
                           std::int64_t value) const {
  if (!observing()) return 0;
  return rec_->obs_->tracer().begin(rec_->track_names_[id_],
                                    std::string(name), phase,
                                    rec_->engine_->now(), parent, value);
}

inline void Track::end(SpanId span) const {
  if (observing()) rec_->obs_->tracer().end(span, rec_->engine_->now());
}

inline void Track::count(std::string_view name, std::uint64_t n) const {
  if (observing()) rec_->count(name, rec_->track_names_[id_], n);
}

inline void Track::gauge(std::string_view name, double value) const {
  if (!observing()) return;
  rec_->obs_->metrics()
      .gauge(std::string(name), rec_->track_names_[id_])
      .set(value);
}

inline void Track::observe(std::string_view name, double sample) const {
  if (!observing()) return;
  rec_->obs_->metrics()
      .histogram(std::string(name), rec_->track_names_[id_])
      .observe(sample);
}

}  // namespace dstage::obs
