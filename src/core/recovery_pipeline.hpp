// The Fig. 7(b) recovery sequence as explicit named stages:
//
//   detect -> process recovery -> data recovery -> client re-attach -> replay
//
// Stage 0 (detect) is the heartbeat-timeout delay the cluster arms on every
// kill (CostModel::detection_delay_s); it has already elapsed by the time a
// policy's recover() runs. The remaining stages are coroutines over
// RuntimeServices that scheme policies compose: the per-component
// checkpoint/restart pipeline (Un/In/Hy and plain staging), replication
// failover (Fig. 6), and the global coordinated rollback. Each traces its
// recovery as one kRecoveryStart/kRecoveryDone pair (a coordinated one on
// the "workflow" track), plus kReplayDone for logged restarts: the events
// tests, run fingerprints and the oracle's liveness check rely on.
#pragma once

#include <functional>

#include "core/runtime.hpp"
#include "sim/context.hpp"
#include "sim/task.hpp"

namespace dstage::core {

// --- individual stages (per-component checkpoint/restart path) -----------

/// Process recovery: ULFM-style revoke/shrink/agree collective plus a spare
/// process joining the communicator. Emits kRecoveryStart.
sim::Task<void> stage_process_recovery(RuntimeServices& rt, Comp& comp,
                                       sim::Ctx sys);

/// Data recovery: restore process state from the freshest usable checkpoint
/// level — with the hierarchy on, its intact cache, a partner rebuild or
/// the drained PFS copy; with it off, the PFS — and account the timesteps
/// lost to rollback.
sim::Task<void> stage_data_recovery(RuntimeServices& rt, Comp& comp,
                                    sim::Ctx sys);

/// Client re-attach + replay: re-initialize the component's staging client
/// and, for logged components, emit the recovery event that switches the
/// servers' queues into replay mode (kReplayDone records the replayed event
/// count). Runs inside the revived component's own process context.
sim::Task<void> stage_reattach_and_replay(Comp& comp, bool logged,
                                          sim::Ctx ctx);

// --- composed pipelines ----------------------------------------------------

/// Per-component checkpoint/restart: process recovery, data recovery,
/// revive (kRecoveryDone), then hand off to the orchestrator's
/// resume_recovered hook for re-attach + replay + loop resumption.
sim::Task<void> run_checkpoint_restart_recovery(RuntimeServices& rt,
                                                Comp& comp);

/// Replication failover (Fig. 6): the replica takes over and re-executes
/// the interrupted timestep — no rollback, no staging recovery event.
sim::Task<void> run_failover_recovery(RuntimeServices& rt, Comp& comp);

/// Global coordinated rollback: kill every survivor, one ULFM recovery
/// across the whole workflow, contended PFS restores, staging rollback to
/// the global snapshot, resynchronization barrier, then every component
/// resumes from `global_ckpt_ts`. `on_restarted` runs after components are
/// revived and immediately before their loops are respawned (the policy
/// clears its recovery-active latch there).
///
/// `tenant` scopes the rollback under multi-tenancy: >= 0 confines every
/// step — the kills, the ULFM/barrier cost (that tenant's cores only), the
/// PFS restores, and the staging rollback — to that tenant's components
/// and staging keys, leaving every other tenant running untouched. The
/// default (-1) is the classic whole-workflow rollback, byte-identical to
/// the pre-tenancy path.
sim::Task<void> run_coordinated_recovery(RuntimeServices& rt,
                                         int global_ckpt_ts,
                                         std::function<void()> on_restarted,
                                         int tenant = -1);

}  // namespace dstage::core
