// Uncoordinated checkpoint/restart with data/event logging (the paper's Un
// — its contribution): components checkpoint independently on their own
// periods, staging logs every coupled put/get, and a failed component
// replays its own data-access history without disturbing the others.
// Also the base for the Individual and Hybrid variants, which share the
// per-component checkpoint machinery (including the checkpoint hierarchy)
// and differ only in logging and per-component recovery method.
#pragma once

#include "core/scheme/policy.hpp"

namespace dstage::core {

class UncoordinatedPolicy : public SchemePolicy {
 public:
  [[nodiscard]] Scheme scheme() const override {
    return Scheme::kUncoordinated;
  }
  [[nodiscard]] bool uses_logging() const override { return true; }

  sim::Task<void> on_timestep_end(RuntimeServices& rt, Comp& comp, int ts,
                                  sim::Ctx ctx) override;
  /// The checkpoint due at the component's period: a hierarchy cache set
  /// when the hierarchy is on, else one synchronous PFS write; logged
  /// components also insert a W_Chk_ID staging event.
  sim::Task<void> checkpoint(RuntimeServices& rt, Comp& comp, int ts,
                             sim::Ctx ctx) override;
  void recover(RuntimeServices& rt, Comp& comp) override;
};

}  // namespace dstage::core
