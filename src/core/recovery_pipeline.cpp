#include "core/recovery_pipeline.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/spawn.hpp"

namespace dstage::core {

sim::Task<void> stage_process_recovery(RuntimeServices& rt, Comp& comp,
                                       sim::Ctx sys) {
  comp.track.emit(obs::Kind::kRecoveryStart, comp.current_ts);
  comp.track.end(comp.obs_detect_span);
  comp.obs_detect_span = 0;
  const obs::SpanId ulfm = comp.track.begin("ulfm", obs::Phase::kRestart,
                                            comp.obs_recovery_span);
  // ULFM: revoke, shrink, agree, then a spare joins the communicator.
  co_await sys.delay(rt.spec->costs.ulfm_time(comp.spec.cores));
  comp.track.end(ulfm);
}

sim::Task<void> stage_data_recovery(RuntimeServices& rt, Comp& comp,
                                    sim::Ctx sys) {
  const obs::SpanId restore =
      comp.track.begin("restore", obs::Phase::kRestart,
                       comp.obs_recovery_span, comp.last_ckpt_ts);
  const std::uint64_t bytes = rt.spec->costs.state_bytes(comp.spec.cores);
  if (rt.ckpt != nullptr) {
    // A drain may have landed between the failure instant and this restore,
    // promoting a set newer than the choice made at failure time — and the
    // staging GC watermark may already have advanced past the older choice.
    // Restart from the freshest durable set instead.
    comp.last_ckpt_ts = std::max(comp.last_ckpt_ts, comp.last_pfs_ckpt_ts);
  }
  if (rt.ckpt != nullptr && comp.last_ckpt_ts > 0) {
    // Multi-level hierarchy: restore from the fastest level that still
    // holds a complete set — intact cache, partner rebuild (XOR decode of
    // the survivors' blocks), or the durable PFS copy. The hierarchy
    // verifies checksums and records the choice for the oracle.
    const ckpt::Restore r =
        rt.ckpt->restore(comp.id, comp.last_ckpt_ts, comp.last_pfs_ckpt_ts);
    comp.track.emit(obs::Kind::kRestartLevel, comp.spec.name,
                    static_cast<std::int64_t>(r.level), comp.last_ckpt_ts);
    switch (r.level) {
      case ckpt::CkptLevel::kCache:
        co_await sys.delay(sim::from_seconds(static_cast<double>(bytes) /
                                             rt.spec->costs.local_ckpt_bw));
        break;
      case ckpt::CkptLevel::kPartner: {
        // Pull the lost member's worth of blocks off the group peers and
        // decode; slower than local NVRAM, far faster than a cold PFS read.
        const obs::SpanId rebuild = comp.track.begin(
            "rebuild", obs::Phase::kDrain, restore, comp.last_ckpt_ts);
        co_await sys.delay(sim::from_seconds(
            static_cast<double>(bytes) / rt.spec->costs.partner_rebuild_bw));
        comp.track.end(rebuild);
        break;
      }
      case ckpt::CkptLevel::kPfs:
        co_await rt.pfs->read(sys, bytes);
        break;
    }
    comp.track.emit(obs::Kind::kCkptRestore, comp.last_ckpt_ts,
                    static_cast<std::int64_t>(r.level));
  } else {
    // Hierarchy off (every checkpoint is a PFS write) or no set taken yet:
    // the restart reads the PFS.
    comp.track.emit(obs::Kind::kRestartLevel, comp.spec.name,
                    static_cast<std::int64_t>(ckpt::CkptLevel::kPfs),
                    comp.last_ckpt_ts);
    co_await rt.pfs->read(sys, bytes);
  }
  comp.track.end(restore);
  comp.metrics.timesteps_reworked += comp.current_ts - comp.last_ckpt_ts;
}

sim::Task<void> stage_reattach_and_replay(Comp& comp, bool logged,
                                          sim::Ctx ctx) {
  const obs::SpanId reattach = comp.track.begin(
      logged ? "replay" : "reattach",
      logged ? obs::Phase::kReplay : obs::Phase::kRestart,
      comp.obs_recovery_span, comp.last_ckpt_ts);
  if (logged) {
    // workflow_restart(): client re-init + recovery event; the servers
    // switch this app's queues into replay mode.
    const std::size_t replay = co_await comp.client->workflow_restart(
        ctx, static_cast<staging::Version>(comp.last_ckpt_ts));
    comp.track.emit(obs::Kind::kReplayDone, comp.spec.name, comp.last_ckpt_ts,
                    static_cast<std::int64_t>(replay));
  } else {
    co_await ctx.delay(comp.client->params().reconnect_cost);
  }
  comp.track.end(reattach);
  comp.current_ts = comp.last_ckpt_ts;
}

sim::Task<void> run_checkpoint_restart_recovery(RuntimeServices& rt,
                                                Comp& comp) {
  sim::Ctx sys = rt.system_ctx();
  co_await stage_process_recovery(rt, comp, sys);
  co_await stage_data_recovery(rt, comp, sys);
  rt.cluster->revive(comp.vproc);
  comp.recovering = false;
  comp.track.emit(obs::Kind::kRecoveryDone, comp.last_ckpt_ts);
  rt.resume_recovered(&comp);
}

sim::Task<void> run_failover_recovery(RuntimeServices& rt, Comp& comp) {
  sim::Ctx sys = rt.system_ctx();
  comp.track.emit(obs::Kind::kRecoveryStart, comp.current_ts);
  comp.track.end(comp.obs_detect_span);
  comp.obs_detect_span = 0;
  const obs::SpanId failover = comp.track.begin(
      "failover", obs::Phase::kRestart, comp.obs_recovery_span);
  // The replica takes over; the interrupted timestep is re-executed by the
  // surviving copy. No rollback, no staging recovery event.
  co_await sys.delay(sim::from_seconds(rt.spec->costs.failover_s));
  rt.cluster->revive(comp.vproc);
  comp.recovering = false;
  const int resume_from = comp.current_ts;
  comp.track.emit(obs::Kind::kRecoveryDone, resume_from);
  comp.track.end(failover);
  comp.track.end(comp.obs_recovery_span);
  comp.obs_recovery_span = 0;
  comp.track.count("recoveries");
  rt.resume(&comp, resume_from);
}

sim::Task<void> run_coordinated_recovery(RuntimeServices& rt,
                                         int global_ckpt_ts,
                                         std::function<void()> on_restarted,
                                         int tenant) {
  sim::Ctx sys = rt.system_ctx();
  // Rollback scope: the whole workflow (tenant < 0, the classic path) or
  // one tenant's components only — its peers' clocks, checkpoints and
  // staging keys must come through another tenant's restart untouched.
  const auto in_scope = [tenant](const std::unique_ptr<Comp>& c) {
    return tenant < 0 || c->spec.tenant == tenant;
  };
  const int scope_cores =
      tenant < 0 ? rt.total_app_cores() : rt.tenant_app_cores(tenant);
  rt.workflow.emit(obs::Kind::kRecoveryStart, global_ckpt_ts);
  // Everyone in scope rolls back: kill the surviving components.
  for (auto& c : *rt.comps) {
    if (!in_scope(c)) continue;
    if (rt.cluster->vproc(c->vproc).alive) rt.cluster->kill(c->vproc);
  }
  obs::SpanId parent = 0;
  for (auto& c : *rt.comps) {
    if (!in_scope(c)) continue;
    if (c->obs_recovery_span != 0) {
      // A component that failed: its recovery root stays open across the
      // whole global restart; close only the detect child.
      c->track.end(c->obs_detect_span);
      c->obs_detect_span = 0;
      if (parent == 0) parent = c->obs_recovery_span;
    } else {
      // A survivor killed mid-activity by the rollback.
      c->track.end_open();
    }
  }
  const obs::SpanId coord = rt.workflow.begin(
      "coordinated restart", obs::Phase::kRestart, parent, global_ckpt_ts);
  auto child = [&](const char* name) {
    return rt.workflow.begin(name, obs::Phase::kRestart, coord);
  };
  auto close = [&](obs::SpanId id) { rt.workflow.end(id); };
  // ULFM recovery across the rollback scope.
  obs::SpanId stage = child("ulfm");
  co_await sys.delay(rt.spec->costs.ulfm_time(scope_cores));
  close(stage);
  // Every in-scope component restores its state from the PFS (contended).
  stage = child("restore");
  {
    std::vector<sim::Task<void>> reads;
    for (auto& c : *rt.comps) {
      if (!in_scope(c)) continue;
      reads.push_back(
          rt.pfs->read(sys, rt.spec->costs.state_bytes(c->spec.cores)));
    }
    co_await sim::when_all(sys, std::move(reads));
  }
  close(stage);
  // Roll the staging area back to the global snapshot — scoped to the
  // tenant's namespaced keys; a whole-workflow rollback (tenant < 0)
  // truncates everything, as before.
  stage = child("rollback");
  co_await rt.control_client->rollback_staging(
      sys, static_cast<staging::Version>(global_ckpt_ts), tenant);
  close(stage);
  // Post-recovery resynchronization barrier.
  stage = child("resync barrier");
  co_await sys.delay(rt.spec->costs.barrier_time(scope_cores));
  close(stage);
  for (auto& c : *rt.comps) {
    if (!in_scope(c)) continue;
    c->metrics.timesteps_reworked +=
        std::max(0, c->current_ts - global_ckpt_ts);
    c->current_ts = global_ckpt_ts;
    c->last_ckpt_ts = global_ckpt_ts;
    c->last_pfs_ckpt_ts = global_ckpt_ts;
    c->done = false;
    rt.cluster->revive(c->vproc);
  }
  if (on_restarted) on_restarted();
  rt.workflow.emit(obs::Kind::kRecoveryDone, global_ckpt_ts);
  rt.workflow.end(coord);
  for (auto& c : *rt.comps) {
    if (!in_scope(c)) continue;
    c->track.end(c->obs_recovery_span);
    c->obs_recovery_span = 0;
  }
  rt.workflow.count("recoveries");
  for (auto& c : *rt.comps) {
    if (!in_scope(c)) continue;
    rt.resume(c.get(), global_ckpt_ts);
  }
}

}  // namespace dstage::core
