#include "obs/trace.hpp"

#include <ostream>

#include "util/checksum.hpp"

namespace dstage::obs {

void Trace::record(sim::TimePoint at, Kind kind, std::string component,
                   int timestep, std::int64_t value) {
  events_.push_back(
      TraceEvent{at, kind, std::move(component), timestep, value});
}

TraceView::iterator& TraceView::iterator::operator++() {
  ++i_;
  skip_non_matching();
  return *this;
}

void TraceView::iterator::skip_non_matching() {
  events_ = view_->events_;
  while (i_ < events_->size() && !view_->matches((*events_)[i_])) ++i_;
}

TraceView::iterator TraceView::end() const {
  iterator it;
  it.view_ = this;
  it.events_ = events_;
  it.i_ = events_->size();
  return it;
}

std::size_t TraceView::size() const {
  std::size_t n = 0;
  for ([[maybe_unused]] const TraceEvent& e : *this) ++n;
  return n;
}

const TraceEvent& TraceView::back() const {
  const TraceEvent* last = nullptr;
  for (const TraceEvent& e : *this) last = &e;
  return *last;
}

const TraceEvent& TraceView::operator[](std::size_t i) const {
  auto it = begin();
  for (std::size_t k = 0; k < i; ++k) ++it;
  return *it;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& e : events_) {
    const std::int64_t fields[4] = {e.at.ns, static_cast<std::int64_t>(e.kind),
                                    e.timestep, e.value};
    h = fnv1a(std::as_bytes(std::span{fields}), h);
    h = fnv1a_str(e.component, h);
  }
  return h;
}

void Trace::write_csv(std::ostream& os) const {
  os << "time_s,kind,component,timestep,value\n";
  for (const auto& e : events_) {
    os << e.at.seconds() << ',' << kind_name(e.kind) << ','
       << e.component << ',' << e.timestep << ',' << e.value << '\n';
  }
}

}  // namespace dstage::obs
