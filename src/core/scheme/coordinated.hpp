// Coordinated checkpoint/restart (the paper's Co): synchronized barriers
// bracket a global PFS snapshot every coordinated_period timesteps, and any
// failure rolls the whole workflow back to the last global snapshot.
#pragma once

#include <map>

#include "core/scheme/policy.hpp"

namespace dstage::core {

class CoordinatedPolicy final : public SchemePolicy {
 public:
  [[nodiscard]] Scheme scheme() const override { return Scheme::kCoordinated; }
  [[nodiscard]] bool uses_logging() const override { return false; }
  /// Recovery resets every component to the global snapshot, so an
  /// emergency checkpoint would shorten nothing and only cost its write.
  [[nodiscard]] bool proactive_eligible(const ComponentSpec&) const override {
    return false;
  }
  [[nodiscard]] sim::Duration barrier_cost(
      const RuntimeServices& rt) const override;

  sim::Task<void> on_timestep_end(RuntimeServices& rt, Comp& comp, int ts,
                                  sim::Ctx ctx) override;
  /// The Section-II barrier protocol: barrier → snapshot to the (contended)
  /// PFS → barrier, flushing in-flight coupling traffic around the cut.
  sim::Task<void> checkpoint(RuntimeServices& rt, Comp& comp, int ts,
                             sim::Ctx ctx) override;
  /// First failure starts one rollback of the victim's tenant (the whole
  /// workflow for single-tenant runs); secondary kills of the same restart
  /// are absorbed. Other tenants are never touched.
  void recover(RuntimeServices& rt, Comp& comp) override;

  /// Timestep of `tenant`'s last completed global snapshot. All protocol
  /// state is per tenant — a tenant's barrier cut, snapshot anchor, and
  /// rollback latch are invisible to every other tenant.
  [[nodiscard]] int global_ckpt_ts(int tenant = 0) const {
    const auto it = global_ckpt_ts_.find(tenant);
    return it == global_ckpt_ts_.end() ? 0 : it->second;
  }

 private:
  std::map<int, int> global_ckpt_ts_;      // tenant -> snapshot anchor
  std::map<int, bool> recovery_active_;    // tenant -> rollback in flight
};

}  // namespace dstage::core
