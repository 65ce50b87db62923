#include "check/counters.hpp"

namespace dstage::check {

namespace {

using R = const OracleReport&;

constexpr Counter kCounters[] = {
    {"core.failures_injected", false,
     [](R r) { return static_cast<std::uint64_t>(r.failures_injected); }},
    // Memory governor.
    {"governor.spill_versions", true,
     [](R r) { return r.metrics.staging.spilled_versions; }},
    {"governor.spill_fetches", true,
     [](R r) { return r.metrics.staging.spill_fetches; }},
    {"governor.puts_rejected", true,
     [](R r) { return r.metrics.staging.puts_rejected; }},
    {"rpc.backpressure_waits", true,
     [](R r) { return r.metrics.rpc_backpressure_waits; }},
    // Elastic membership.
    {"elastic.resilver_chunks", true,
     [](R r) { return r.metrics.staging.resilver_chunks_moved; }},
    {"check.resilver_drops", false, [](R r) { return r.resilver_drops; }},
    {"elastic.wrong_epoch", true,
     [](R r) { return r.metrics.staging.wrong_epoch_rejects; }},
    {"staging.degraded_reads", false,
     [](R r) { return r.metrics.staging.degraded_reads; }},
    // Checkpoint hierarchy.
    {"ckpt.drains", true, [](R r) { return r.metrics.ckpt.drains_completed; }},
    {"ckpt.cache_restarts", true,
     [](R r) { return r.metrics.ckpt.cache_restarts; }},
    {"ckpt.partner_rebuilds", true,
     [](R r) { return r.metrics.ckpt.partner_rebuilds; }},
    {"ckpt.pfs_restarts", true,
     [](R r) { return r.metrics.ckpt.pfs_restarts; }},
    // Tenant isolation.
    {"check.isolation_reads", false,
     [](R r) { return r.isolation_reads_checked; }},
    // Payload codec.
    {"wlog.codec_blocks", false,
     [](R r) { return r.metrics.staging.codec_blocks; }},
    {"wlog.codec_raw_bytes", false,
     [](R r) { return r.metrics.staging.codec_raw_bytes; }},
    {"wlog.codec_stored_bytes", false,
     [](R r) { return r.metrics.staging.codec_stored_bytes; }},
    {"check.codec_reads", false, [](R r) { return r.codec_reads_checked; }},
};

}  // namespace

std::span<const Counter> counters() { return kCounters; }

const Counter* find_counter(std::string_view name) {
  for (const Counter& c : kCounters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace dstage::check
