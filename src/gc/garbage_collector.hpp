// Garbage Collection Component (Section III-A2). A logged payload of
// version v can be reclaimed once every rollback-capable consumer of the
// variable has checkpointed at or beyond v — no replay can ever re-read it.
// Sweeps run at checkpoint events; the sweep cost (entries scanned) feeds
// the staging server's virtual-time cost model.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "staging/types.hpp"
#include "wlog/data_log.hpp"
#include "wlog/event_queue.hpp"

namespace dstage::gc {

using staging::AppId;
using staging::Version;

struct SweepResult {
  std::size_t versions_dropped = 0;
  std::uint64_t nominal_freed = 0;
  std::size_t entries_scanned = 0;
};

class GarbageCollector {
 public:
  /// Declare a coupling: `consumers` lists the apps reading `var` together
  /// with whether each can roll back (checkpoint/restart). Consumers
  /// protected by process replication never replay, so they never pin log
  /// retention.
  void register_var(const std::string& var,
                    std::vector<std::pair<AppId, bool>> consumers);

  /// Record that `app` checkpointed at timestep `version`.
  void on_checkpoint(AppId app, Version version);

  /// Highest version of `var` whose logged payload is reclaimable: the
  /// minimum checkpointed version over rollback-capable consumers (max
  /// Version when none exist — everything reclaimable but the latest).
  [[nodiscard]] Version watermark(const std::string& var) const;

  /// Reclaim every reclaimable non-latest version in the log, emitting
  /// kGcReclaim on `track` right after each variable's drops.
  SweepResult sweep(wlog::DataLog& log, const obs::Track& track = {}) const;

  [[nodiscard]] Version last_checkpoint(AppId app) const;

  /// Registered variable names, in deterministic (map) order — used by the
  /// observability layer to diff watermarks across a checkpoint event.
  [[nodiscard]] std::vector<std::string> variables() const {
    std::vector<std::string> out;
    out.reserve(consumers_.size());
    for (const auto& [var, _] : consumers_) out.push_back(var);
    return out;
  }

  /// Fault-injection seam for the consistency campaign: saturating offset
  /// added to every computed watermark, making the GC overcollect (drop
  /// payloads a rolled-back consumer could still replay). Production code
  /// never sets this.
  void set_watermark_bias(Version bias) { watermark_bias_ = bias; }

 private:
  std::map<std::string, std::vector<std::pair<AppId, bool>>> consumers_;
  std::map<AppId, Version> last_ckpt_;
  Version watermark_bias_ = 0;
};

}  // namespace dstage::gc
