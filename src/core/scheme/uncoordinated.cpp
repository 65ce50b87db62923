#include "core/scheme/uncoordinated.hpp"

#include "ckpt/adaptive.hpp"

namespace dstage::core {

namespace {

/// Is a PFS-level (durable) checkpoint due for `comp` at `ts`? Fixed
/// modulo period by default; the Vaidya-style adaptive policy
/// (SCR_Need_checkpoint) when the spec opts in. The adaptive interval
/// anchors on the freshest restartable checkpoint of any level, so it
/// measures exposure, not drain lag.
bool pfs_ckpt_due(const RuntimeServices& rt, const Comp& comp, int ts) {
  if (rt.spec->ckpt.adaptive_interval) {
    ckpt::AdaptiveInterval::Params p;
    p.mtbf_s = rt.spec->failures.mtbf_s;
    p.ckpt_cost_s =
        static_cast<double>(rt.spec->costs.state_bytes(comp.spec.cores)) /
        rt.spec->pfs.write_bw;
    p.compute_per_ts_s = comp.spec.compute_per_ts_s;
    p.fixed_period = comp.spec.ckpt_period;
    return ckpt::AdaptiveInterval(p).need_checkpoint(ts, comp.last_ckpt_ts);
  }
  return ts % comp.spec.ckpt_period == 0;
}

}  // namespace

sim::Task<void> UncoordinatedPolicy::on_timestep_end(RuntimeServices& rt,
                                                     Comp& comp, int ts,
                                                     sim::Ctx ctx) {
  if (comp.spec.method != FtMethod::kCheckpointRestart) co_return;
  const bool pfs_due = pfs_ckpt_due(rt, comp, ts);
  const bool local_due = comp.spec.local_ckpt_period > 0 &&
                         ts % comp.spec.local_ckpt_period == 0;
  if (!pfs_due && !local_due) co_return;
  co_await checkpoint(rt, comp, ts, ctx);
}

sim::Task<void> UncoordinatedPolicy::checkpoint(RuntimeServices& rt,
                                                Comp& comp, int ts,
                                                sim::Ctx ctx) {
  if (rt.ckpt != nullptr) {
    // Multi-level hierarchy: every due checkpoint — PFS-period or
    // node-local-period — becomes a cache-level set; the async drain agent
    // owns PFS durability.
    co_await hierarchy_checkpoint(rt, comp, ts, ctx, /*emergency=*/false);
    co_return;
  }
  const sim::TimePoint stall_start = ctx.now();
  if (pfs_ckpt_due(rt, comp, ts)) {
    const obs::SpanId span =
        comp.track.begin("checkpoint", obs::Phase::kCheckpoint, 0, ts);
    co_await rt.pfs->write(ctx, rt.spec->costs.state_bytes(comp.spec.cores));
    comp.last_pfs_ckpt_ts = ts;
    ++comp.metrics.checkpoints;
    comp.track.emit(obs::Kind::kCheckpoint, ts);
    if (component_logged(comp.spec)) {
      co_await comp.client->workflow_check(ctx,
                                           static_cast<staging::Version>(ts));
    }
    comp.track.end(span);
  } else {
    // Node-local level: fast, uncontended, lost on node failure. The
    // staging servers still record a replay anchor for it, but marked
    // non-durable: a node failure falls back to the PFS level, so letting
    // this level advance the GC watermark would allow logged versions the
    // fallback restart still has to replay to be reclaimed (the oracle
    // catches that as a retention violation followed by a replay deadlock).
    const obs::SpanId span =
        comp.track.begin("local checkpoint", obs::Phase::kCheckpoint, 0, ts);
    co_await ctx.delay(sim::from_seconds(
        static_cast<double>(rt.spec->costs.state_bytes(comp.spec.cores)) /
        rt.spec->costs.local_ckpt_bw));
    ++comp.metrics.local_checkpoints;
    comp.track.emit(obs::Kind::kLocalCheckpoint, ts);
    if (component_logged(comp.spec)) {
      co_await comp.client->workflow_check(
          ctx, static_cast<staging::Version>(ts), /*durable=*/false);
    }
    comp.track.end(span);
  }
  comp.last_ckpt_ts = ts;
  comp.metrics.ckpt_stall_s += (ctx.now() - stall_start).seconds();
}

void UncoordinatedPolicy::recover(RuntimeServices& rt, Comp& comp) {
  recover_local(rt, comp);
}

}  // namespace dstage::core
