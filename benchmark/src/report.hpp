// Metric records, the order statistics the benchmark reports, and the two
// JSON documents it reads: BENCHMARK.json (declared metrics and bounds) and
// the BENCH_<workload>.json result of one run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dstage::benchmark {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Insertion-ordered metric list; a name is recorded once.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// First, second and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method) does.
/// Needs at least two values.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> values);

/// Shortest text that reads back as the same double (integers exactly).
std::string format_number(double v);

/// The one-line result object the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics);

/// One metric declared in BENCHMARK.json.
struct DeclaredMetric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
  double bound = 0;    // end-to-end only: allowed worsening, share of median
  bool end_to_end = false;
};

struct BenchSpec {
  /// How long one run measures; `run` uses it unless --seconds is given.
  double run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<DeclaredMetric> metrics;
};

/// Parse BENCHMARK.json; nullopt with `error` set when it is unreadable or
/// malformed.
std::optional<BenchSpec> load_spec(const std::string& path,
                                   std::string& error);

/// One BENCH_<workload>.json document.
struct RunRecord {
  std::string workload;
  MetricList metrics;
};

/// Every BENCH_*.json below `dir` (recursively), sorted by path. Files that
/// do not parse are reported in `error` and skipped.
std::vector<RunRecord> load_records(const std::string& dir,
                                    std::string& error);

}  // namespace dstage::benchmark
