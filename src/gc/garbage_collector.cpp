#include "gc/garbage_collector.hpp"

#include <algorithm>

namespace dstage::gc {

void GarbageCollector::register_var(
    const std::string& var, std::vector<std::pair<AppId, bool>> consumers) {
  consumers_[var] = std::move(consumers);
}

void GarbageCollector::on_checkpoint(AppId app, Version version) {
  auto& v = last_ckpt_[app];
  v = std::max(v, version);
}

Version GarbageCollector::last_checkpoint(AppId app) const {
  auto it = last_ckpt_.find(app);
  return it == last_ckpt_.end() ? 0 : it->second;
}

Version GarbageCollector::watermark(const std::string& var) const {
  auto it = consumers_.find(var);
  Version mark = std::numeric_limits<Version>::max();
  if (it == consumers_.end()) return mark;
  for (const auto& [app, can_rollback] : it->second) {
    if (!can_rollback) continue;  // replicated consumer: never replays
    mark = std::min(mark, last_checkpoint(app));
  }
  if (watermark_bias_ > 0 &&
      mark < std::numeric_limits<Version>::max() - watermark_bias_) {
    mark += watermark_bias_;  // fault-injection seam (campaign sabotage)
  }
  return mark;
}

SweepResult GarbageCollector::sweep(wlog::DataLog& log,
                                    const obs::Track& track) const {
  SweepResult result;
  for (const std::string& var : log.variables()) {
    const Version mark = watermark(var);
    const auto versions = log.versions_of(var);
    result.entries_scanned += versions.size();
    if (versions.empty()) continue;
    const Version latest = versions.back();
    // Never reclaim the newest retained version: it is the live coupling
    // data (the window may hold the same piece).
    const Version upto =
        std::min<Version>(mark, latest > 0 ? latest - 1 : 0);
    const std::uint64_t before = log.nominal_bytes();
    const std::size_t dropped = log.drop_upto(var, upto);
    result.versions_dropped += dropped;
    result.nominal_freed += before - log.nominal_bytes();
    track.emit(obs::Kind::kGcReclaim, var, static_cast<std::int64_t>(upto),
               static_cast<std::int64_t>(dropped));
  }
  return result;
}

}  // namespace dstage::gc
