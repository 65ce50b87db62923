#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/json_reader.hpp"

namespace dstage::benchmark {

void MetricList::add(const std::string& name, double value,
                     const std::string& unit) {
  if (find(name) != nullptr) {
    throw std::logic_error("metric recorded twice: " + name);
  }
  items_.push_back(Metric{name, value, unit});
}

const Metric* MetricList::find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(m.name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

namespace {

std::optional<JsonValue> read_json(const std::string& path,
                                   std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  JsonParse parsed = parse_json(text.str());
  if (!parsed.ok) {
    error = path + ": " +
            (parsed.errors.empty() ? "invalid JSON" : parsed.errors.front());
    return std::nullopt;
  }
  return std::move(parsed.value);
}

std::string string_member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.member(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

}  // namespace

std::optional<BenchSpec> load_spec(const std::string& path,
                                   std::string& error) {
  const auto doc = read_json(path, error);
  if (!doc) return std::nullopt;
  BenchSpec spec;
  const JsonValue* run_seconds = doc->member("run_seconds");
  if (run_seconds == nullptr || !run_seconds->is_number() ||
      !(run_seconds->number > 0)) {
    error = path + ": run_seconds must be a positive number";
    return std::nullopt;
  }
  spec.run_seconds = run_seconds->number;
  const JsonValue* workloads = doc->member("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    error = path + ": no workloads array";
    return std::nullopt;
  }
  for (const JsonValue& w : workloads->array) {
    spec.workloads.push_back(string_member(w, "name"));
  }
  for (const char* section : {"end_to_end", "per_layer"}) {
    const JsonValue* list = doc->member(section);
    if (list == nullptr || !list->is_array()) {
      error = path + ": no " + section + " array";
      return std::nullopt;
    }
    for (const JsonValue& m : list->array) {
      DeclaredMetric d;
      d.name = string_member(m, "name");
      d.unit = string_member(m, "unit");
      d.better = string_member(m, "better");
      const JsonValue* bound = m.member("bound");
      d.bound = bound != nullptr && bound->is_number() ? bound->number : 0;
      d.end_to_end = std::string(section) == "end_to_end";
      if (d.name.empty() || d.unit.empty() ||
          (d.better != "lower" && d.better != "higher")) {
        error = path + ": malformed metric entry in " + section;
        return std::nullopt;
      }
      spec.metrics.push_back(std::move(d));
    }
  }
  return spec;
}

std::vector<RunRecord> load_records(const std::string& dir,
                                    std::string& error) {
  namespace fs = std::filesystem;
  std::vector<RunRecord> out;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    error = "not a directory: " + dir;
    return out;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("BENCH_") &&
        name.ends_with(".json")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    std::string why;
    const auto doc = read_json(path, why);
    const JsonValue* metrics = doc ? doc->member("metrics") : nullptr;
    if (metrics == nullptr || !metrics->is_object()) {
      error += (error.empty() ? "" : "; ") +
               (why.empty() ? path + ": no metrics object" : why);
      continue;
    }
    RunRecord record;
    record.workload = string_member(*doc, "workload");
    for (const auto& [name, m] : metrics->object) {
      const JsonValue* value = m.member("value");
      if (value == nullptr || !value->is_number()) continue;
      record.metrics.add(name, value->number, string_member(m, "unit"));
    }
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace dstage::benchmark
