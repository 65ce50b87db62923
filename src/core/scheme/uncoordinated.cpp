#include "core/scheme/uncoordinated.hpp"

#include "ckpt/adaptive.hpp"

namespace dstage::core {

namespace {

/// Is a checkpoint due for `comp` at `ts`? Fixed modulo period by default;
/// the Vaidya-style adaptive policy (SCR_Need_checkpoint) when the spec
/// opts in. The adaptive interval anchors on the freshest restartable
/// checkpoint of any level, so it measures exposure, not drain lag.
bool ckpt_due(const RuntimeServices& rt, const Comp& comp, int ts) {
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
  if (!ckpt_due(rt, comp, ts)) co_return;
  co_await checkpoint(rt, comp, ts, ctx);
}

sim::Task<void> UncoordinatedPolicy::checkpoint(RuntimeServices& rt,
                                                Comp& comp, int ts,
                                                sim::Ctx ctx) {
  // With the hierarchy on, the checkpoint is a cache-level set whose PFS
  // durability the async drain agent owns.
  if (rt.ckpt != nullptr) {
    return hierarchy_checkpoint(rt, comp, ts, ctx, /*emergency=*/false);
  }
  return pfs_checkpoint(rt, comp, ts, ctx, /*emergency=*/false);
}

void UncoordinatedPolicy::recover(RuntimeServices& rt, Comp& comp) {
  recover_local(rt, comp);
}

}  // namespace dstage::core
