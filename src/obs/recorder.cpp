#include "obs/recorder.hpp"

#include <algorithm>
#include <utility>

namespace dstage::obs {

Recorder::Recorder(const sim::Engine& engine, RecorderConfig cfg,
                   ObsConfig obs)
    : engine_(&engine), cfg_(cfg) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  if (obs.enabled) obs_ = std::make_unique<Observability>();
  // Id 0 is the empty string so "no detail" needs no interning.
  strings_.emplace_back();
  string_ids_.emplace("", 0);
}

Track Recorder::track(std::string_view name) {
  const auto it = track_ids_.find(std::string(name));
  if (it != track_ids_.end()) return Track(this, it->second);
  const auto id = static_cast<std::uint32_t>(track_names_.size());
  track_names_.emplace_back(name);
  rings_.emplace_back();
  track_ids_.emplace(std::string(name), id);
  return Track(this, id);
}

std::uint32_t Recorder::intern(std::string_view s) {
  const auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(std::string(s), id);
  return id;
}

void Recorder::record_instant(std::uint32_t track, sim::TimePoint at,
                              Kind kind, std::int64_t value) {
  obs_->tracer().instant(track_names_[track], kind_name(kind), at, value);
}

void Recorder::count(std::string_view name, std::string_view label,
                     std::uint64_t n) {
  if (obs_ == nullptr) return;
  obs_->metrics().counter(std::string(name), std::string(label)).inc(n);
}

void Recorder::close_spans() {
  if (obs_ != nullptr) obs_->tracer().end_all(engine_->now());
}

const std::string& Recorder::track_name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < track_names_.size() ? track_names_[id] : kUnknown;
}

const std::string& Recorder::detail_name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < strings_.size() ? strings_[id] : kUnknown;
}

std::vector<Event> Recorder::track_events(std::uint32_t id) const {
  std::vector<Event> out;
  if (id >= rings_.size()) return out;
  const Ring& ring = rings_[id];
  out.reserve(ring.buf.size());
  // `next` points at the oldest surviving slot once the ring has wrapped;
  // before that the buffer is already in record order.
  const std::size_t n = ring.buf.size();
  const std::size_t start = ring.total > n ? ring.next : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring.buf[(start + i) % n]);
  }
  return out;
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> out;
  for (std::uint32_t t = 0; t < rings_.size(); ++t) {
    const std::vector<Event> events = track_events(t);
    out.insert(out.end(), events.begin(), events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::vector<DecodedEvent> Recorder::dump() const {
  const std::vector<Event> events = snapshot();
  std::vector<DecodedEvent> out;
  out.reserve(events.size());
  for (const Event& e : events) {
    DecodedEvent d;
    d.seq = e.seq;
    d.at_ns = e.at_ns;
    d.kind = kind_name(e.kind);
    d.track = track_name(e.track);
    d.detail = detail_name(e.detail);
    d.a = e.a;
    d.b = e.b;
    out.push_back(std::move(d));
  }
  return out;
}

// --- Track -----------------------------------------------------------------

void Track::end_open() const {
  if (!observing()) return;
  rec_->obs_->tracer().end_open_for_track(rec_->track_names_[id_],
                                          rec_->engine_->now());
}

void Track::degrade(std::string what) const {
  if (rec_ == nullptr) return;
  emit(Kind::kDegradation, what);
  rec_->degradations_.push_back(std::move(what));
}

}  // namespace dstage::obs
