// The campaign's counter table: every per-run total a campaign sums,
// prints or requires, named once together with how to read it from an
// OracleReport. check::run_campaign sums each row into
// CampaignResult::totals, tools/campaign prints those totals and checks
// `--require=<name>,...` against them, and the registry-equality test
// holds every `in_registry` row to the metrics registry.
//
// A row uses the metrics-registry name when Runtime::finalize_obs exports
// the same fact; the rest (the oracle's audit counts and facts the
// registry does not export) follow the same `layer.fact` style.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "check/oracle.hpp"

namespace dstage::check {

struct Counter {
  std::string_view name;
  /// Runtime::finalize_obs exports this fact under `name` (obs-on runs).
  bool in_registry = false;
  std::uint64_t (*read)(const OracleReport&) = nullptr;
};

/// Every campaign counter, grouped by feature in summary order.
std::span<const Counter> counters();

/// The row named `name`, or null.
const Counter* find_counter(std::string_view name);

}  // namespace dstage::check
