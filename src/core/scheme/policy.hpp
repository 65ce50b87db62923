// SchemePolicy: the strategy interface behind the paper's Ds/Co/Un/In/Hy
// fault-tolerance schemes. Every scheme-dependent protocol decision —
// whether staging logs, when and how components checkpoint, what a barrier
// costs, and how a detected failure is recovered — lives behind this
// interface; the executor and runtime never branch on Scheme. A new scheme
// (multi-level, proactive, replication variants) is a new subclass plus a
// factory case, with no executor surgery.
#pragma once

#include <memory>

#include "core/runtime.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace dstage::core {

class SchemePolicy {
 public:
  virtual ~SchemePolicy() = default;

  [[nodiscard]] virtual Scheme scheme() const = 0;
  [[nodiscard]] const char* name() const { return scheme_name(scheme()); }

  /// Does this scheme log coupled data/events in staging (the paper's
  /// *_with_log path)? Wired into servers, clients and GC retention.
  [[nodiscard]] virtual bool uses_logging() const = 0;

  /// True when `c`'s requests go through the log and replay on restart.
  /// Replication-protected components never roll back, so their requests
  /// bypass the log (Fig. 6: replica failover does not trigger replay).
  [[nodiscard]] bool component_logged(const ComponentSpec& c) const {
    return uses_logging() && c.method == FtMethod::kCheckpointRestart;
  }

  /// Should `c` run the log-replay stage after a checkpoint/restart
  /// recovery? Defaults to exactly the logged components — the paper's
  /// protocol. Overridden only by fault-injection harnesses (the
  /// consistency campaign's sabotage policies skip replay to prove the
  /// oracle catches the omission); production schemes keep the default.
  [[nodiscard]] virtual bool replay_on_restart(const ComponentSpec& c) const {
    return component_logged(c);
  }

  /// May `c` take a predictor-triggered emergency checkpoint?
  [[nodiscard]] virtual bool proactive_eligible(const ComponentSpec& c) const {
    return c.method == FtMethod::kCheckpointRestart;
  }

  /// Synchronization cost this scheme charges around a collective step:
  /// alpha * log2(P) for the coordinated barrier protocol, zero elsewhere.
  [[nodiscard]] virtual sim::Duration barrier_cost(
      const RuntimeServices& rt) const;

  /// End-of-timestep hook: decide what checkpointing falls due at `ts` and
  /// perform it (via checkpoint()). Runs in the component's own process.
  virtual sim::Task<void> on_timestep_end(RuntimeServices& rt, Comp& comp,
                                          int ts, sim::Ctx ctx) = 0;

  /// Take the checkpoint due for `comp` at `ts`.
  virtual sim::Task<void> checkpoint(RuntimeServices& rt, Comp& comp, int ts,
                                     sim::Ctx ctx) = 0;

  /// A failure of `comp` was detected: arrange recovery by spawning the
  /// appropriate recovery-pipeline stages (core/recovery_pipeline.hpp).
  virtual void recover(RuntimeServices& rt, Comp& comp) = 0;

  /// Emergency (proactive) checkpoint, invoked when the failure predictor
  /// flags an imminent crash; shared across schemes. It is the regular
  /// checkpoint of the spec's path — a hierarchy set when the hierarchy is
  /// on, else pfs_checkpoint() — counted as proactive.
  sim::Task<void> emergency_checkpoint(RuntimeServices& rt, Comp& comp,
                                       int ts, sim::Ctx ctx);

  /// Hierarchy-off checkpoint: one synchronous PFS write plus a durable
  /// staging checkpoint event for logged components. Writes both the
  /// periodic checkpoint and (`emergency`) the predictor's one.
  sim::Task<void> pfs_checkpoint(RuntimeServices& rt, Comp& comp, int ts,
                                 sim::Ctx ctx, bool emergency);

  /// Multi-level hierarchy checkpoint (DESIGN.md §12): write the node-local
  /// cache level (the only synchronous I/O the component pays), record a
  /// non-durable replay anchor, then ship the XOR parity share and hand the
  /// set to the async drain agent. Requires rt.ckpt != nullptr.
  /// Deliberately non-virtual: fault-injection wrappers intercept only the
  /// virtual interface, so they can never skip a hierarchy level.
  sim::Task<void> hierarchy_checkpoint(RuntimeServices& rt, Comp& comp,
                                       int ts, sim::Ctx ctx, bool emergency);

 protected:
  /// Per-component recovery dispatch shared by every non-coordinated
  /// scheme: replication failover for replicated components, the Fig. 7(b)
  /// checkpoint/restart pipeline for everything else.
  void recover_local(RuntimeServices& rt, Comp& comp);
};

/// The one place a Scheme value maps to protocol behavior.
[[nodiscard]] std::unique_ptr<SchemePolicy> make_scheme_policy(Scheme scheme);

}  // namespace dstage::core
