// The benchmark's four workloads. Each run builds its inputs from the seed
// and repeats a fixed pass of units (runs or schedules), each pass with its
// own timed set-up, for the requested seconds. A unit's host time is its
// fastest pass; virtual-time metrics and counts come from the first pass,
// and every later pass must reproduce its trace digests exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace dstage::benchmark {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring budget; ignored at smoke scale, which runs one pass.
  double seconds = 0;
  /// Off: end-to-end metrics. On: one extra traced pass plus leaf probes,
  /// reporting the per-layer metrics.
  bool trace = false;
  /// 1/20 of the units, one pass, one set-up repetition.
  bool smoke = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed unit
  MetricList metrics;  // end-to-end (trace off) or per-layer (trace on)
  MetricList extras;   // informational, workload-specific
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
RunResult run_workload(const RunOptions& opts);

}  // namespace dstage::benchmark
