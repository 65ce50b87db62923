#include "check/campaign.hpp"

#include <algorithm>
#include <utility>

#include "check/counters.hpp"
#include "util/parallel.hpp"

namespace dstage::check {

CampaignResult run_campaign(const CampaignOptions& opts) {
  const std::vector<Schedule> schedules = generate_schedules(opts.gen);

  CampaignResult result;
  result.schedules = static_cast<int>(schedules.size());

  ReferenceCache cache;
  std::vector<OracleReport> reports(schedules.size());
  parallel_for(schedules.size(), opts.threads, [&](std::size_t i) {
    reports[i] = check_schedule(schedules[i], cache, opts.sabotage);
  });

  for (const Counter& counter : counters()) {
    std::uint64_t& total = result.totals[std::string(counter.name)];
    for (const OracleReport& report : reports) total += counter.read(report);
  }
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    if (reports[i].ok()) {
      ++result.passed;
      continue;
    }
    CampaignFailure failure;
    failure.schedule = schedules[i];
    failure.report = std::move(reports[i]);
    failure.shrunk = schedules[i];
    result.failures.push_back(std::move(failure));
  }

  // Shrink serially: each shrink is itself a budgeted oracle loop, and a
  // healthy campaign has nothing to shrink.
  if (opts.shrink) {
    const int to_shrink = std::min<int>(
        opts.max_shrunk, static_cast<int>(result.failures.size()));
    for (int i = 0; i < to_shrink; ++i) {
      CampaignFailure& failure =
          result.failures[static_cast<std::size_t>(i)];
      ShrinkResult shrunk = shrink_schedule(failure.schedule, cache,
                                            opts.sabotage,
                                            opts.shrink_budget);
      failure.shrunk = std::move(shrunk.minimal);
      failure.report = std::move(shrunk.report);
      failure.shrink_attempts = shrunk.attempts;
    }
  }

  return result;
}

}  // namespace dstage::check
