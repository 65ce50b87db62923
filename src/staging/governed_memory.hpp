// Governed memory: the server half of the memory governor (the
// MemoryGovernor policy object decides; this component owns the state and
// the traffic). Admission, soft-watermark maintenance, and the spill index
// that replay-path reads fault back in through. The footprint it governs
// is read off the server's one version store: its distinct pieces, plus
// event-queue metadata.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gc/garbage_collector.hpp"
#include "staging/memory_governor.hpp"
#include "staging/object_store.hpp"
#include "sim/task.hpp"
#include "staging/types.hpp"
#include "wlog/data_log.hpp"
#include "wlog/event_queue.hpp"

namespace dstage::staging {

struct ServerContext;  // staging/server.hpp

/// Point-in-time memory report (nominal, i.e. paper-scale bytes). The
/// window and the log are reported per holder, so a raw logged piece, which
/// both hold, appears in both figures; the totals charge the distinct
/// pieces, each payload buffer once. An encoded log copy is a piece of its
/// own.
struct MemoryReport {
  std::uint64_t store_bytes = 0;       // held by the coupling window
  std::uint64_t log_payload_bytes = 0; // held by the data log
  std::uint64_t buffer_bytes = 0;      // distinct pieces, whoever holds them
  std::uint64_t log_metadata_bytes = 0;
  std::uint64_t redundancy_bytes = 0;  // parity / replica overhead
  [[nodiscard]] std::uint64_t total() const {
    return governed() + redundancy_bytes;
  }
  /// The memory governor's budgeted footprint: what this server holds for
  /// its *own* objects. Redundancy fragments held on peers' behalf are
  /// excluded — they are budgeted by their owners.
  [[nodiscard]] std::uint64_t governed() const {
    return buffer_bytes + log_metadata_bytes;
  }
};

class GovernedMemory {
 public:
  /// Spill index: var → version → nominal bytes parked on the gateway.
  using SpillIndex = std::map<std::string, std::map<Version, std::uint64_t>>;

  /// `dlog` is the log holder of `store`, the server's one version store.
  GovernedMemory(ServerContext& ctx, const ObjectStore& store,
                 wlog::DataLog& dlog,
                 const std::map<AppId, wlog::EventQueue>& queues,
                 const gc::GarbageCollector& gc);

  void set_spill_endpoint(net::EndpointId ep) { spill_endpoint_ = ep; }
  [[nodiscard]] const MemoryGovernor& governor() const { return governor_; }
  [[nodiscard]] const SpillIndex& spilled() const { return spilled_; }

  /// Window, log and distinct payload bytes and event-queue metadata; no
  /// redundancy bytes.
  [[nodiscard]] MemoryReport footprint() const;
  /// One tenant's share of footprint(): its variables' window, log and
  /// distinct bytes (event-queue metadata is unattributed — it is bounded
  /// by truncation and negligible next to payloads).
  [[nodiscard]] MemoryReport footprint(net::TenantId tenant) const {
    return {.store_bytes = store_->nominal_bytes(tenant, Holder::kWindow),
            .log_payload_bytes = store_->nominal_bytes(tenant, Holder::kLog),
            .buffer_bytes = store_->nominal_bytes(tenant, Holder::kBoth)};
  }
  [[nodiscard]] std::uint64_t governed() const {
    return footprint().governed();
  }

  /// Admission for a put adding `incoming` governed bytes: the pooled hard
  /// watermark, then (weighted fair share) the chunk's tenant share. Counts
  /// overruns and rejects. True when admitted.
  bool admit(const Chunk& chunk, std::uint64_t incoming);
  /// Kick maintenance if the governor is over its soft watermark — pooled,
  /// or any tenant over its fair share — and no pass is already in flight.
  void poke();

  /// One GC sweep of the data log behind the watermark: count what it
  /// reclaimed and pay the index walk (durable checkpoints and maintenance).
  sim::Task<gc::SweepResult> sweep_log();
  /// Fault a spilled (var, version) back into the data log before a
  /// replay-path read (no-op when it is not spilled).
  sim::Task<void> ensure_resident(std::string var, Version version);
  /// Fault every spilled version back in (a hand-off's new owner cannot
  /// read this server's spill files).
  sim::Task<void> fault_in_all();
  /// Retire spill-index entries (and files) the GC watermark has passed.
  void prune_to_watermark();
  /// Rollback: spilled versions newer than `version` go with the log —
  /// of `tenant`'s variables only, or of every variable when tenant < 0.
  void rollback_above(Version version, net::TenantId tenant);

  [[nodiscard]] bool spill_covers(const std::string& var,
                                  Version version) const;
  /// Versions of `var` the log retains, resident or spilled, ascending.
  [[nodiscard]] std::vector<Version> retained_versions(
      const std::string& var) const;

 private:
  /// Soft-watermark maintenance (detached, single-flight).
  sim::Task<void> maintain();
  /// One tenant's governed footprint (fair-share admission and victims).
  [[nodiscard]] std::uint64_t governed_bytes(net::TenantId tenant) const {
    return footprint(tenant).governed();
  }
  /// True when weighted fair-share is armed and some tenant's governed
  /// footprint exceeds its soft share (always false single-tenant, so the
  /// pooled paths are byte-identical with tenancy off).
  [[nodiscard]] bool any_tenant_over_share() const;

  ServerContext* ctx_;
  const ObjectStore* store_;
  wlog::DataLog* dlog_;
  const std::map<AppId, wlog::EventQueue>* queues_;
  const gc::GarbageCollector* gc_;
  MemoryGovernor governor_;
  net::EndpointId spill_endpoint_ = -1;  // -1 = no gateway
  SpillIndex spilled_;
  bool maintenance_inflight_ = false;  // single-flight latch for maintain()
  bool budget_warned_ = false;
};

}  // namespace dstage::staging
