#include "core/scheme/policy.hpp"

#include <stdexcept>
#include <utility>

#include "core/recovery_pipeline.hpp"
#include "core/scheme/coordinated.hpp"
#include "core/scheme/hybrid.hpp"
#include "core/scheme/individual.hpp"
#include "core/scheme/uncoordinated.hpp"

namespace dstage::core {

sim::Duration SchemePolicy::barrier_cost(const RuntimeServices&) const {
  return sim::Duration{0};
}

sim::Task<void> SchemePolicy::emergency_checkpoint(RuntimeServices& rt,
                                                   Comp& comp, int ts,
                                                   sim::Ctx ctx) {
  if (ts <= comp.last_ckpt_ts) co_return;  // already covered
  // The emergency snapshot is a regular checkpoint of whichever path the
  // spec runs: a hierarchy cache set (partner-protected once its parity
  // lands, durable once drained), else a durable PFS write.
  if (rt.ckpt != nullptr) {
    co_await hierarchy_checkpoint(rt, comp, ts, ctx, /*emergency=*/true);
  } else {
    co_await pfs_checkpoint(rt, comp, ts, ctx, /*emergency=*/true);
  }
}

sim::Task<void> SchemePolicy::pfs_checkpoint(RuntimeServices& rt, Comp& comp,
                                             int ts, sim::Ctx ctx,
                                             bool emergency) {
  const sim::TimePoint stall_start = ctx.now();
  const obs::SpanId span =
      comp.track.begin(emergency ? "emergency checkpoint" : "checkpoint",
                       obs::Phase::kCheckpoint, 0, ts);
  co_await rt.pfs->write(ctx, rt.spec->costs.state_bytes(comp.spec.cores));
  comp.last_pfs_ckpt_ts = ts;
  if (emergency) {
    ++comp.metrics.proactive_checkpoints;
    comp.track.emit(obs::Kind::kProactiveCheckpoint, ts);
    comp.track.count("proactive_checkpoints");
  } else {
    ++comp.metrics.checkpoints;
    comp.track.emit(obs::Kind::kCheckpoint, ts);
  }
  // The PFS copy survives node loss, so the marker may advance the staging
  // GC watermark.
  if (component_logged(comp.spec)) {
    co_await comp.client->workflow_check(ctx,
                                         static_cast<staging::Version>(ts));
  }
  comp.track.end(span);
  comp.last_ckpt_ts = ts;
  comp.metrics.ckpt_stall_s += (ctx.now() - stall_start).seconds();
}

sim::Task<void> SchemePolicy::hierarchy_checkpoint(RuntimeServices& rt,
                                                   Comp& comp, int ts,
                                                   sim::Ctx ctx,
                                                   bool emergency) {
  const sim::TimePoint stall_start = ctx.now();
  const obs::SpanId span =
      comp.track.begin(emergency ? "emergency checkpoint (hierarchy)"
                                 : "checkpoint (hierarchy)",
                       obs::Phase::kCheckpoint, 0, ts);
  const std::uint64_t bytes = rt.spec->costs.state_bytes(comp.spec.cores);
  // Level 0: node-local cache write — the only synchronous I/O the
  // component pays. PFS durability is the drain agent's job.
  co_await ctx.delay(sim::from_seconds(static_cast<double>(bytes) /
                                       rt.spec->costs.local_ckpt_bw));
  rt.ckpt->write_set(comp.id, ts, bytes);
  // The replay anchor is non-durable: only the drain's CkptDrainAck (set
  // PFS-complete) may advance the staging GC watermark past it.
  if (component_logged(comp.spec)) {
    co_await comp.client->workflow_check(
        ctx, static_cast<staging::Version>(ts), /*durable=*/false);
  }
  // Level 1: ship the XOR parity share and notify the drain agent. One-way
  // sends — restart correctness never waits on them; the hierarchy state
  // above was updated synchronously.
  co_await comp.client->ckpt_announce(
      ctx, static_cast<staging::Version>(ts),
      bytes / static_cast<std::uint64_t>(rt.spec->ckpt.xor_group),
      rt.ckpt_drain_ep);
  comp.last_ckpt_ts = ts;
  if (emergency) {
    ++comp.metrics.proactive_checkpoints;
    comp.track.emit(obs::Kind::kProactiveCheckpoint, ts);
  } else {
    ++comp.metrics.local_checkpoints;
    comp.track.emit(obs::Kind::kLocalCheckpoint, ts);
  }
  comp.metrics.ckpt_stall_s += (ctx.now() - stall_start).seconds();
  comp.track.end(span);
  comp.track.count("ckpt.hierarchy_writes");
}

void SchemePolicy::recover_local(RuntimeServices& rt, Comp& comp) {
  if (comp.recovering) return;
  comp.recovering = true;
  ++comp.metrics.failures;
  if (comp.spec.method == FtMethod::kReplication) {
    rt.spawn(&comp, run_failover_recovery(rt, comp));
  } else {
    rt.spawn(&comp, run_checkpoint_restart_recovery(rt, comp));
  }
}

namespace {

/// Plain staging (the paper's Ds): no checkpoints, no logging. Failures
/// still recover — components restart from scratch (checkpoint ts 0) via
/// the same pipeline — so failure injection composes with every scheme.
class NonePolicy final : public SchemePolicy {
 public:
  [[nodiscard]] Scheme scheme() const override { return Scheme::kNone; }
  [[nodiscard]] bool uses_logging() const override { return false; }
  [[nodiscard]] bool proactive_eligible(const ComponentSpec&) const override {
    return false;  // no fault-tolerance scheme, no emergency checkpoints
  }
  sim::Task<void> on_timestep_end(RuntimeServices&, Comp&, int,
                                  sim::Ctx) override {
    co_return;
  }
  sim::Task<void> checkpoint(RuntimeServices&, Comp&, int,
                             sim::Ctx) override {
    co_return;
  }
  void recover(RuntimeServices& rt, Comp& comp) override {
    recover_local(rt, comp);
  }
};

}  // namespace

bool scheme_uses_logging(Scheme s) {
  return make_scheme_policy(s)->uses_logging();
}

std::unique_ptr<SchemePolicy> make_scheme_policy(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNone:
      return std::make_unique<NonePolicy>();
    case Scheme::kCoordinated:
      return std::make_unique<CoordinatedPolicy>();
    case Scheme::kUncoordinated:
      return std::make_unique<UncoordinatedPolicy>();
    case Scheme::kIndividual:
      return std::make_unique<IndividualPolicy>();
    case Scheme::kHybrid:
      return std::make_unique<HybridPolicy>();
  }
  throw std::invalid_argument("unknown scheme");
}

}  // namespace dstage::core
