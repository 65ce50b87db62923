// Campaign driver: generate a batch of randomized failure schedules, run
// each through the consistency oracle on a worker pool (reference runs
// memoized across workers), and shrink whatever fails into minimal
// re-runnable reproducers. The library behind tools/campaign and the
// ctest `campaign` label.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"

namespace dstage::check {

struct CampaignOptions {
  GenerateOptions gen;
  /// Worker threads; <= 0 selects hardware concurrency.
  int threads = 0;
  Sabotage sabotage = Sabotage::kNone;
  /// Shrink failing schedules into minimal reproducers.
  bool shrink = true;
  int shrink_budget = 120;
  /// At most this many failing schedules are shrunk (shrinking re-runs the
  /// oracle up to shrink_budget times per failure).
  int max_shrunk = 3;
};

struct CampaignFailure {
  Schedule schedule;     // as generated
  OracleReport report;   // its violations
  Schedule shrunk;       // minimal reproducer (== schedule if not shrunk)
  int shrink_attempts = 0;
};

struct CampaignResult {
  int schedules = 0;
  int passed = 0;
  std::vector<CampaignFailure> failures;
  /// Every counters() row summed over all schedules, keyed by its name.
  /// A feature campaign requires its counters nonzero: a budget that never
  /// spilled, or an episode that never moved data, has verified nothing.
  std::map<std::string, std::uint64_t> totals;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run the campaign. Deterministic for fixed options (including thread
/// count independence: schedule i's verdict depends only on (seed, i)).
CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace dstage::check
