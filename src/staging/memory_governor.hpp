// Per-server memory governor. A staging deployment has a fixed allocation,
// but the data log's retention is driven by consumer progress, not by the
// producer — so bounding memory needs three cooperating mechanisms:
//
//   soft watermark  → urgent GC sweep, then spill the coldest
//                     reclaim-ineligible log versions to the PFS gateway;
//   hard watermark  → admission control: puts get a typed RetryLater
//                     response the client's retry loop honors as
//                     backpressure;
//   oversized put   → a single put larger than the hard watermark is
//                     admitted anyway (rejecting it forever would livelock
//                     the workflow) and counted as a governor overrun.
//
// The governed footprint is the distinct pieces of the server's one
// version store plus event-queue metadata: a raw logged piece, which the
// window and the log both hold, is charged once, and an encoded log copy
// is a piece of its own (MemoryReport). Redundancy fragments held on
// peers' behalf are the peers' budget problem.
// A budget of 0 disables the governor entirely (the default; the Table II
// golden digests are recorded without it).
#pragma once

#include <cstdint>
#include <map>

namespace dstage::staging {

struct GovernorParams {
  /// Per-server budget in nominal bytes; 0 disables the governor.
  std::uint64_t memory_budget = 0;
  /// Crossing soft_watermark * budget triggers an urgent GC sweep + spill.
  double soft_watermark = 0.70;
  /// Crossing hard_watermark * budget rejects new puts with RetryLater.
  double hard_watermark = 0.90;
  /// Weighted fair-share multi-tenancy: tenant id → weight. Empty (the
  /// default) keeps the single pooled budget and byte-identical behavior.
  /// Non-empty splits the hard/soft watermarks into per-tenant shares of
  /// hard_bytes × w/Σw, so admission rejects only tenants over their own
  /// share (Σ shares = hard_bytes keeps the global footprint bounded).
  /// Every tenant of the run must appear; an unlisted tenant falls back to
  /// the full pooled watermark.
  std::map<int, double> tenant_weights;
};

class MemoryGovernor {
 public:
  enum class Admission {
    kAdmit,         // under the hard watermark (or governor disabled)
    kAdmitOverrun,  // single put larger than the hard watermark: let it in
    kReject,        // over the hard watermark: RetryLater
  };

  explicit MemoryGovernor(GovernorParams params) : params_(params) {}

  [[nodiscard]] bool enabled() const { return params_.memory_budget > 0; }
  [[nodiscard]] std::uint64_t budget() const { return params_.memory_budget; }
  [[nodiscard]] std::uint64_t soft_bytes() const {
    return scaled(params_.soft_watermark);
  }
  [[nodiscard]] std::uint64_t hard_bytes() const {
    return scaled(params_.hard_watermark);
  }

  /// Governed bytes as a fraction of the budget (pressure gauge; 0 when
  /// the governor is off).
  [[nodiscard]] double pressure(std::uint64_t governed) const {
    if (!enabled()) return 0;
    return static_cast<double>(governed) /
           static_cast<double>(params_.memory_budget);
  }

  [[nodiscard]] bool over_soft(std::uint64_t governed) const {
    return enabled() && governed > soft_bytes();
  }

  /// True when a minimal put would still be admitted at this footprint
  /// (i.e. we are under the hard watermark, or the governor is off).
  [[nodiscard]] bool admitting(std::uint64_t governed) const {
    return !enabled() || governed < hard_bytes();
  }

  /// Admission decision for a put that would add `incoming` governed bytes
  /// on top of the current `governed` footprint.
  [[nodiscard]] Admission admit(std::uint64_t governed,
                                std::uint64_t incoming) const;

  /// True when weighted fair-share admission is active (governor on and
  /// tenant weights configured).
  [[nodiscard]] bool fair_share() const {
    return enabled() && !params_.tenant_weights.empty();
  }
  /// `tenant`'s slice of the hard watermark: hard_bytes × w/Σw. Unlisted
  /// tenants get the full pooled hard watermark.
  [[nodiscard]] std::uint64_t share_bytes(int tenant) const;
  /// `tenant`'s slice of the soft watermark (spill-victim preference).
  [[nodiscard]] std::uint64_t soft_share_bytes(int tenant) const;
  /// True when `tenant_governed` exceeds the tenant's soft share — the
  /// tenant is the one memory maintenance should evict from first.
  [[nodiscard]] bool over_share(int tenant,
                                std::uint64_t tenant_governed) const {
    return fair_share() && tenant_governed > soft_share_bytes(tenant);
  }
  /// Per-tenant admission, applied on top of (never instead of) the pooled
  /// admit(): a put must fit both the global hard watermark and its own
  /// tenant's share, so one tenant's backlog can only ever bounce that
  /// tenant's writers. Oversized-put livelock avoidance applies per share.
  [[nodiscard]] Admission admit_tenant(int tenant,
                                       std::uint64_t tenant_governed,
                                       std::uint64_t incoming) const;

 private:
  [[nodiscard]] std::uint64_t scaled(double fraction) const {
    return static_cast<std::uint64_t>(
        static_cast<double>(params_.memory_budget) * fraction);
  }

  GovernorParams params_;
};

}  // namespace dstage::staging
