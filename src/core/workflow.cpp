#include "core/workflow.hpp"

#include <stdexcept>
#include <string>

namespace dstage::core {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("invalid WorkflowSpec: " + what);
}

}  // namespace

void WorkflowSpec::validate() const {
  if (components.empty()) reject("components must be non-empty");
  if (staging_servers < 1) reject("staging_servers must be >= 1");
  if (total_ts < 1) reject("total_ts must be >= 1");
  if (coordinated_period < 1) reject("coordinated_period must be >= 1");
  if (cells_per_axis < 1) reject("cells_per_axis must be >= 1");
  if (!(bytes_per_point > 0)) reject("bytes_per_point must be > 0");
  if (mem_scale < 1) reject("mem_scale must be >= 1");
  if (staging.memory_budget > 0) {
    if (!(staging.soft_watermark > 0) || staging.soft_watermark > 1) {
      reject("staging.soft_watermark must be in (0, 1]");
    }
    if (!(staging.hard_watermark > 0) || staging.hard_watermark > 1) {
      reject("staging.hard_watermark must be in (0, 1]");
    }
    if (staging.soft_watermark > staging.hard_watermark) {
      reject("staging.soft_watermark must be <= staging.hard_watermark");
    }
  }
  try {
    server.policy.validate(staging_servers);
  } catch (const std::invalid_argument& e) {
    reject(e.what());
  }
  if (elastic.standby_servers < 0) {
    reject("elastic.standby_servers must be >= 0");
  }
  if (elastic.degraded_reads &&
      server.policy.kind == resilience::Redundancy::kNone) {
    reject("elastic.degraded_reads requires a redundancy policy");
  }
  {
    // Walk the membership events in order: a join needs a standby left, a
    // retire needs a survivor.
    int active = staging_servers;
    const int total = staging_servers + elastic.standby_servers;
    for (const auto& e : elastic.events) {
      if (e.ts < 1 || e.ts > total_ts) {
        reject("elastic event ts must be in [1, total_ts]");
      }
      if (e.server >= total) reject("elastic event server index out of range");
      if (e.join) {
        if (active >= total) reject("elastic join with no standby available");
        ++active;
      } else {
        if (active < 2) reject("elastic retire would empty the staging group");
        --active;
      }
    }
  }
  if (ckpt.xor_group != 0 && (ckpt.xor_group < 2 || ckpt.xor_group > 16)) {
    reject("ckpt.xor_group must be 0 (off) or in [2, 16]");
  }
  if (tenancy.tenants < 1) reject("tenancy.tenants must be >= 1");
  for (const auto& [t, w] : tenancy.weights) {
    if (t < 0 || t >= tenancy.tenants) {
      reject("tenancy.weights key " + std::to_string(t) +
             " outside [0, tenants)");
    }
    if (!(w > 0)) reject("tenancy.weights values must be > 0");
  }
  for (const auto& c : components) {
    if (c.tenant < 0 || c.tenant >= tenancy.tenants) {
      reject("component '" + c.name + "': tenant " +
             std::to_string(c.tenant) + " outside [0, tenancy.tenants)");
    }
  }
  if (failures.count < 0) reject("failures.count must be >= 0");
  // Float checks are negated: NaN fails every comparison, so it fails them.
  if (!(failures.mtbf_s >= 0)) reject("failures.mtbf_s must be >= 0");
  if (!(failures.node_failure_fraction >= 0) ||
      !(failures.node_failure_fraction <= 1)) {
    reject("failures.node_failure_fraction must be in [0, 1]");
  }
  if (!(failures.predictor_recall >= 0) ||
      !(failures.predictor_recall <= 1)) {
    reject("failures.predictor_recall must be in [0, 1]");
  }
  if (failures.predictor_false_alarms < 0) {
    reject("failures.predictor_false_alarms must be >= 0");
  }
  for (const auto& e : failures.explicit_failures) {
    if (e.comp < 0 || e.comp >= static_cast<int>(components.size())) {
      reject("explicit failure comp index out of range");
    }
    // Multi-tenant isolation campaigns aim every failure at tenant 0 so
    // the other tenants are provable bystanders; expansion puts tenant 0's
    // clones first, keeping pre-expansion comp indices valid.
    if (tenancy.enabled() &&
        components[static_cast<std::size_t>(e.comp)].tenant != 0) {
      reject("explicit failures must target tenant 0 components");
    }
    if (e.ts < 1 || e.ts > total_ts) {
      reject("explicit failure ts must be in [1, total_ts]");
    }
    if (!(e.phase <= 1)) reject("explicit failure phase must be <= 1");
  }
  for (const auto& c : components) {
    if (c.name.empty()) reject("component name must be non-empty");
    const std::string who = "component '" + c.name + "': ";
    if (c.cores < 1) reject(who + "cores must be >= 1");
    if (!(c.compute_per_ts_s >= 0)) {
      reject(who + "compute_per_ts_s must be >= 0");
    }
    if (c.ckpt_period < 1) reject(who + "ckpt_period must be >= 1");
    for (const auto& w : c.writes) {
      if (w.var.empty()) reject(who + "write var must be non-empty");
      if (!(w.subset_fraction > 0) || w.subset_fraction > 1) {
        reject(who + "write '" + w.var +
               "' subset_fraction must be in (0, 1]");
      }
    }
    for (const auto& r : c.reads) {
      if (r.var.empty()) reject(who + "read var must be non-empty");
      if (!(r.subset_fraction > 0) || r.subset_fraction > 1) {
        reject(who + "read '" + r.var +
               "' subset_fraction must be in (0, 1]");
      }
      if (r.every < 1) reject(who + "read '" + r.var + "' every must be >= 1");
    }
  }
}

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNone:
      return "Ds";
    case Scheme::kCoordinated:
      return "Co";
    case Scheme::kUncoordinated:
      return "Un";
    case Scheme::kIndividual:
      return "In";
    case Scheme::kHybrid:
      return "Hy";
  }
  return "?";
}

const ComponentMetrics& RunMetrics::component(const std::string& name) const {
  for (const auto& c : components) {
    if (c.name == name) return c;
  }
  throw std::out_of_range("no component named " + name);
}

int RunMetrics::total_anomalies() const {
  int n = 0;
  for (const auto& c : components)
    n += c.wrong_version_reads + c.corrupt_reads;
  return n;
}

double RunMetrics::cum_write_response_s() const {
  double total = 0;
  for (const auto& c : components) total += c.cum_put_response_s;
  return total;
}

}  // namespace dstage::core
