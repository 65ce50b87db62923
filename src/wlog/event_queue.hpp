// The queue-based data consistency algorithm of Section III: each staging
// server keeps one event queue per application component, recording put/get
// data events and checkpoint (W_Chk_ID) markers. On recovery the queue
// segment after the application's last checkpoint becomes the replay
// script: re-issued puts are matched and suppressed, re-issued gets are
// resolved to the version observed during the initial execution.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "net/message.hpp"
#include "util/geometry.hpp"

namespace dstage::wlog {

using net::AppId;
using net::Version;

/// Workflow-checkpoint identifier (unique per checkpoint event).
using WChkId = std::uint64_t;

/// Event-queue record kinds (Section III's queue-based consistency
/// algorithm records these per application).
enum class EventKind { kPut, kGet, kCheckpoint, kRecovery };

/// One queue record.
struct LogEvent {
  EventKind kind = EventKind::kPut;
  AppId app = -1;
  Version version = 0;  // data version; for checkpoints, the app's timestep
  std::string var;
  Box region;
  std::uint64_t nominal_bytes = 0;
  WChkId chk_id = 0;  // W_Chk_ID for checkpoint markers
};

/// Modeled serialized footprint of one queue record (descriptor + indexing
/// entry), used by the staging memory accounting.
std::uint64_t event_metadata_bytes(const LogEvent& e);

/// Per-(server, application) event queue with replay cursor.
class EventQueue {
 public:
  /// Append an event observed during normal (non-replay) execution.
  void record(LogEvent e);

  /// Enter replay mode after the app was restored to its last checkpoint:
  /// the script is every data event after the last checkpoint marker.
  /// Returns the script length. Re-entrant (a second failure during replay
  /// rewinds the cursor to the script start).
  std::size_t begin_replay();

  [[nodiscard]] bool replaying() const { return replaying_; }

  /// Next data event the replaying app is expected to re-issue, or nullptr
  /// when the queue is not in replay mode.
  [[nodiscard]] const LogEvent* expected() const;

  /// Consume the expected event; leaves replay mode at script end.
  void advance();

  /// GC: drop events strictly before the last checkpoint marker (they can
  /// never be replayed again). Cursor state is preserved. Returns the
  /// number of dropped events.
  std::size_t truncate_before_last_checkpoint();

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::uint64_t metadata_bytes() const {
    return metadata_bytes_;
  }
  [[nodiscard]] const std::deque<LogEvent>& events() const { return events_; }
  /// Version recorded by the most recent checkpoint marker, if any.
  [[nodiscard]] bool has_checkpoint() const;
  [[nodiscard]] Version last_checkpoint_version() const;

 private:
  /// Index one past the last checkpoint marker (0 when none).
  [[nodiscard]] std::size_t script_start() const;
  /// Advance the cursor over checkpoint/recovery markers inside the script.
  void skip_non_data();

  std::deque<LogEvent> events_;
  bool replaying_ = false;
  std::size_t cursor_ = 0;
  std::size_t replay_end_ = 0;
  std::uint64_t metadata_bytes_ = 0;
};

}  // namespace dstage::wlog
