#include "core/scheme/coordinated.hpp"

#include <functional>
#include <utility>

#include "core/recovery_pipeline.hpp"

namespace dstage::core {

sim::Duration CoordinatedPolicy::barrier_cost(
    const RuntimeServices& rt) const {
  return rt.spec->costs.barrier_time(rt.total_app_cores());
}

sim::Task<void> CoordinatedPolicy::on_timestep_end(RuntimeServices& rt,
                                                   Comp& comp, int ts,
                                                   sim::Ctx ctx) {
  if (ts % rt.spec->coordinated_period != 0) co_return;
  co_await checkpoint(rt, comp, ts, ctx);
}

sim::Task<void> CoordinatedPolicy::checkpoint(RuntimeServices& rt, Comp& comp,
                                              int ts, sim::Ctx ctx) {
  const sim::TimePoint stall_start = ctx.now();
  // Covers both barriers: the coordination wait is checkpoint cost.
  const obs::SpanId span = comp.track.begin("checkpoint (coordinated)",
                                            obs::Phase::kCheckpoint, 0, ts);
  // Synchronizing barriers before and after the snapshot flush any
  // in-flight coupling traffic (Section II). Under multi-tenancy the
  // barrier and its cost span only the tenant's own components — tenant
  // A's cut never stalls tenant B; single-tenant runs use the classic
  // shared barrier over all components.
  sim::Barrier* barrier = rt.barrier_for(comp.spec.tenant);
  const sim::Duration bcost =
      rt.spec->tenancy.enabled()
          ? rt.spec->costs.barrier_time(rt.tenant_app_cores(comp.spec.tenant))
          : barrier_cost(rt);
  co_await barrier->arrive_and_wait(ctx.tok);
  co_await ctx.delay(bcost);
  co_await rt.pfs->write(ctx, rt.spec->costs.state_bytes(comp.spec.cores));
  co_await barrier->arrive_and_wait(ctx.tok);
  co_await ctx.delay(bcost);
  comp.track.end(span);
  comp.last_ckpt_ts = ts;
  comp.last_pfs_ckpt_ts = ts;
  global_ckpt_ts_[comp.spec.tenant] = ts;
  ++comp.metrics.checkpoints;
  comp.metrics.ckpt_stall_s += (ctx.now() - stall_start).seconds();
  comp.track.emit(obs::Kind::kCheckpoint, ts);
}

void CoordinatedPolicy::recover(RuntimeServices& rt, Comp& comp) {
  const int tenant = comp.spec.tenant;
  // Secondary kill of this tenant's in-flight restart is absorbed; a
  // different tenant's failure starts its own independent rollback.
  if (recovery_active_[tenant]) return;
  recovery_active_[tenant] = true;
  ++comp.metrics.failures;
  std::function<void()> on_restarted = [this, tenant] {
    recovery_active_[tenant] = false;
  };
  // Single-tenant runs pass the scope-everything sentinel (-1) so the
  // rollback path is exactly the classic global one.
  const int scope = rt.spec->tenancy.enabled() ? tenant : -1;
  rt.spawn(&comp, run_coordinated_recovery(rt, global_ckpt_ts(tenant),
                                           std::move(on_restarted), scope));
}

}  // namespace dstage::core
