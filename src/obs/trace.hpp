// Structured execution timeline: the digest sink of the event vocabulary
// (obs/event.hpp). The Recorder appends one entry per digest-visible
// event (timestep phases, checkpoints, failures, recoveries, replay
// milestones) with virtual timestamps; the trace can be queried in tests,
// printed, or exported as CSV for plotting. Recording is exact and
// deterministic, so trace digests double as whole-run fingerprints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "sim/time.hpp"

namespace dstage::obs {

struct TraceEvent {
  sim::TimePoint at;
  Kind kind = Kind::kTimestepStart;
  std::string component;
  int timestep = 0;
  /// Event-specific detail (bytes written, versions replayed, ...).
  std::int64_t value = 0;
};

/// Lazy, allocation-free view over a trace filtered by kind or component.
/// Iterable with range-for; size() and operator[] walk the underlying
/// event vector (O(n)), which is fine for the tests and tools that use
/// them. The view borrows the trace — don't outlive it.
class TraceView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    iterator() = default;
    reference operator*() const { return (*events_)[i_]; }
    pointer operator->() const { return &(*events_)[i_]; }
    iterator& operator++();
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class TraceView;
    iterator(const TraceView* view, std::size_t i) : view_(view), i_(i) {
      skip_non_matching();
    }
    void skip_non_matching();

    const TraceView* view_ = nullptr;
    const std::vector<TraceEvent>* events_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const;
  [[nodiscard]] bool empty() const { return begin() == end(); }
  /// Number of matching events (walks the trace).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const TraceEvent& front() const { return *begin(); }
  [[nodiscard]] const TraceEvent& back() const;
  /// i-th matching event (walks the trace).
  [[nodiscard]] const TraceEvent& operator[](std::size_t i) const;

 private:
  friend class Trace;
  enum class Mode { kByKind, kByComponent };
  TraceView(const std::vector<TraceEvent>& events, Kind kind)
      : events_(&events), mode_(Mode::kByKind), kind_(kind) {}
  TraceView(const std::vector<TraceEvent>& events, std::string component)
      : events_(&events),
        mode_(Mode::kByComponent),
        component_(std::move(component)) {}
  [[nodiscard]] bool matches(const TraceEvent& e) const {
    return mode_ == Mode::kByKind ? e.kind == kind_
                                  : e.component == component_;
  }

  const std::vector<TraceEvent>* events_;
  Mode mode_;
  Kind kind_ = Kind::kTimestepStart;
  std::string component_;
};

class Trace {
 public:
  void record(sim::TimePoint at, Kind kind, std::string component,
              int timestep, std::int64_t value = 0);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Lazy view over events of one kind, in order (no copy).
  [[nodiscard]] TraceView of_kind(Kind kind) const {
    return {events_, kind};
  }
  /// Lazy view over events of one component, in order (no copy).
  [[nodiscard]] TraceView of_component(std::string component) const {
    return {events_, std::move(component)};
  }

  /// Order- and content-sensitive digest (FNV over the serialized records);
  /// equal digests ⇔ identical executions.
  [[nodiscard]] std::uint64_t digest() const;

  /// CSV with header: time_s,kind,component,timestep,value
  void write_csv(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace dstage::obs
