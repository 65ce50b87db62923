#include "wlog/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dstage::wlog {

std::uint64_t event_metadata_bytes(const LogEvent& e) {
  // Descriptor (kind, app, version, chk id, 6 box coordinates) plus the
  // variable name and a DHT index entry. Matches a realistic serialized
  // record in the reference implementation.
  return 96 + e.var.size();
}

void EventQueue::record(LogEvent e) {
  metadata_bytes_ += event_metadata_bytes(e);
  events_.push_back(std::move(e));
}

std::size_t EventQueue::script_start() const {
  for (std::size_t i = events_.size(); i > 0; --i) {
    if (events_[i - 1].kind == EventKind::kCheckpoint) return i;
  }
  return 0;
}

std::size_t EventQueue::begin_replay() {
  cursor_ = script_start();
  replay_end_ = events_.size();
  // Skip non-data events inside the script window (recovery markers).
  std::size_t script_len = 0;
  for (std::size_t i = cursor_; i < replay_end_; ++i) {
    const EventKind k = events_[i].kind;
    if (k == EventKind::kPut || k == EventKind::kGet) ++script_len;
  }
  replaying_ = script_len > 0;
  if (!replaying_) {
    cursor_ = replay_end_;
  } else {
    skip_non_data();
  }
  return script_len;
}

const LogEvent* EventQueue::expected() const {
  if (!replaying_ || cursor_ >= replay_end_) return nullptr;
  return &events_[cursor_];
}

void EventQueue::advance() {
  if (!replaying_) throw std::logic_error("advance outside replay");
  ++cursor_;
  skip_non_data();
}

void EventQueue::skip_non_data() {
  while (cursor_ < replay_end_ &&
         events_[cursor_].kind != EventKind::kPut &&
         events_[cursor_].kind != EventKind::kGet) {
    ++cursor_;
  }
  if (cursor_ >= replay_end_) replaying_ = false;
}

std::size_t EventQueue::truncate_before_last_checkpoint() {
  const std::size_t start = script_start();
  if (start == 0) return 0;
  // Keep the checkpoint marker itself so later recoveries can anchor on it.
  const std::size_t drop = start - 1;
  for (std::size_t i = 0; i < drop; ++i) {
    // The tally must cover every retained record — record() is the only
    // way in, so a shortfall here means some path mutated events_ without
    // accounting.
    // Unsigned underflow would poison the governor's metadata accounting
    // for the rest of the run, so clamp (and assert in debug builds).
    const std::uint64_t bytes = event_metadata_bytes(events_.front());
    assert(metadata_bytes_ >= bytes &&
           "event-queue metadata tally out of sync with retained records");
    metadata_bytes_ -= std::min(metadata_bytes_, bytes);
    events_.pop_front();
  }
  // Shift replay bookkeeping left by the dropped prefix.
  if (cursor_ >= drop) {
    cursor_ -= drop;
  } else {
    cursor_ = 0;
  }
  if (replay_end_ >= drop) {
    replay_end_ -= drop;
  } else {
    replay_end_ = 0;
  }
  return drop;
}

bool EventQueue::has_checkpoint() const {
  for (const auto& e : events_) {
    if (e.kind == EventKind::kCheckpoint) return true;
  }
  return false;
}

Version EventQueue::last_checkpoint_version() const {
  for (std::size_t i = events_.size(); i > 0; --i) {
    if (events_[i - 1].kind == EventKind::kCheckpoint)
      return events_[i - 1].version;
  }
  return 0;
}

}  // namespace dstage::wlog
