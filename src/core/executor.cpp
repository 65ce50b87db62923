#include "core/executor.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/recovery_pipeline.hpp"
#include "sim/spawn.hpp"
#include "util/checksum.hpp"

namespace dstage::core {

namespace {

/// Order-independent fingerprint of a get's returned pieces: equal piece
/// sets give equal checksums regardless of server response order. Set (not
/// multiset) semantics over (content key, source region, payload): after an
/// elastic rebalance a chunk straddling two successors' cells is held whole
/// by both, so a fan-out read can return the same source chunk twice, each
/// clipped to a different request region (and hence a different nominal
/// fraction). The duplicates carry no extra content and the clipped nominal
/// size is placement-dependent, so neither may perturb cross-epoch read
/// equivalence — total bytes are compared separately.
std::uint64_t pieces_checksum(const std::vector<staging::Chunk>& pieces) {
  std::set<std::uint64_t> hashes;
  for (const staging::Chunk& piece : pieces) {
    std::uint64_t h = piece.content_key ^ staging::region_hash(piece.region);
    if (piece.data) {
      h ^= fnv1a(std::as_bytes(std::span{*piece.data}));
    }
    // SplitMix64 finalizer decorrelates before the XOR combine.
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    hashes.insert(h ^ (h >> 31));
  }
  std::uint64_t sum = 0;
  for (std::uint64_t h : hashes) sum ^= h;
  return sum;
}

}  // namespace

WorkflowRunner::WorkflowRunner(WorkflowSpec spec)
    : WorkflowRunner(std::move(spec), nullptr) {}

WorkflowRunner::WorkflowRunner(WorkflowSpec spec,
                               std::unique_ptr<SchemePolicy> policy)
    : policy_(policy ? std::move(policy) : make_scheme_policy(spec.scheme)) {
  runtime_ = RuntimeBuilder(std::move(spec)).policy(*policy_).build();
  services_ = runtime_->services();
  elastic_fired_.assign(runtime_->spec().elastic.events.size(), false);
  services_.resume = [this](Comp* comp, int start_ts) {
    sim::spawn(runtime_->engine(), run_component(comp, start_ts),
               keep_error(*comp));
  };
  services_.resume_recovered = [this](Comp* comp) {
    sim::spawn(runtime_->engine(), run_component_recovered(comp),
               keep_error(*comp));
  };
  services_.spawn = [this](Comp* comp, sim::Task<void> task) {
    sim::spawn(runtime_->engine(), std::move(task), keep_error(*comp));
  };
}

WorkflowRunner::~WorkflowRunner() {
  tearing_down_ = true;
  runtime_->teardown();
}

RunMetrics WorkflowRunner::run() {
  if (ran_) throw std::logic_error("WorkflowRunner::run() is single-shot");
  ran_ = true;

  for (auto& server : runtime_->servers()) server->start();
  if (runtime_->spill_gateway() != nullptr) runtime_->spill_gateway()->start();
  if (runtime_->group_manager() != nullptr) runtime_->group_manager()->start();
  if (runtime_->drain_agent() != nullptr) runtime_->drain_agent()->start();
  runtime_->cluster().on_failure(
      [this](cluster::VprocId vp) { on_vproc_failure(vp); });
  for (auto& comp : runtime_->comps()) {
    sim::spawn(runtime_->engine(), run_component(comp.get(), 0),
               keep_error(*comp));
  }

  runtime_->engine().run();
  runtime_->finalize_obs();

  if (!runtime_->all_done().is_set()) {
    // A process that threw left its component unfinished: report the
    // error, not the deadlock it caused.
    if (!failure_.empty()) throw std::runtime_error(failure_);
    std::string stuck;
    for (const auto& c : runtime_->comps()) {
      if (!c->done) stuck += " " + c->spec.name + "@ts" +
                             std::to_string(c->current_ts);
    }
    throw std::runtime_error("workflow deadlocked; unfinished:" + stuck);
  }
  return runtime_->collect(failures_injected_);
}

std::function<void(std::exception_ptr)> WorkflowRunner::keep_error(
    std::string who) {
  return [this, who = std::move(who)](std::exception_ptr error) {
    if (!error || !failure_.empty()) return;
    try {
      std::rethrow_exception(error);
    } catch (const sim::Cancelled&) {
      // A killed process: the failure plan's doing, recovered elsewhere.
    } catch (const std::exception& e) {
      failure_ = who + " failed: " + e.what();
    } catch (...) {
      failure_ = who + " failed: unknown exception";
    }
  };
}

std::function<void(std::exception_ptr)> WorkflowRunner::keep_error(
    const Comp& comp) {
  return keep_error("component " + comp.spec.name);
}

sim::Task<void> WorkflowRunner::run_component(Comp* comp, int start_ts) {
  const WorkflowSpec& spec = runtime_->spec();
  sim::Ctx ctx = runtime_->cluster().ctx_for(comp->vproc);
  const obs::Track& track = comp->track;
  for (int ts = start_ts + 1; ts <= spec.total_ts; ++ts) {
    track.emit(obs::Kind::kTimestepStart, ts);
    fire_elastic_events(ts);
    co_await maybe_fail(comp, ts, ctx);

    // Reads first (consumers pull the coupled data for this timestep).
    obs::SpanId read_span = 0;
    for (const auto& read : comp->spec.reads) {
      if (ts % read.every == 0) {
        read_span = track.begin("read", obs::Phase::kRead, 0, ts);
        break;
      }
    }
    for (const auto& read : comp->spec.reads) {
      if (ts % read.every != 0) continue;
      auto result = co_await comp->client->get(
          ctx, read.var, static_cast<staging::Version>(ts),
          runtime_->subset_region(read.subset_fraction));
      comp->metrics.get_response_s.add(result.response_time.seconds());
      comp->metrics.cum_get_response_s += result.response_time.seconds();
      comp->metrics.wrong_version_reads += result.wrong_version;
      comp->metrics.corrupt_reads += result.corrupt;
      track.observe("get_response_s", result.response_time.seconds());
      // The order-independent payload fingerprint is the forensic anchor
      // for replay-equivalence diffs: a replayed read that serves different
      // bytes than the reference run diverges here. The three read events
      // are emitted back to back (no co_await between them), so a
      // subscriber assembles one read observation per track from them.
      const std::uint64_t checksum = pieces_checksum(result.pieces);
      track.emit(obs::Kind::kGetServe, read.var, ts,
                 static_cast<std::int64_t>(checksum));
      if (const int anomalies = result.wrong_version + result.corrupt) {
        track.emit(obs::Kind::kReadAnomaly, read.var, ts, anomalies);
      }
      track.emit(obs::Kind::kReadDone, ts,
                 static_cast<std::int64_t>(result.nominal_bytes));
    }
    track.end(read_span);

    const obs::SpanId compute_span =
        track.begin("compute", obs::Phase::kCompute, 0, ts);
    co_await ctx.delay(sim::from_seconds(comp->spec.compute_per_ts_s));
    track.end(compute_span);
    track.emit(obs::Kind::kComputeDone, ts);

    obs::SpanId write_span = 0;
    if (!comp->spec.writes.empty()) {
      write_span = track.begin("write", obs::Phase::kWrite, 0, ts);
    }
    for (const auto& write : comp->spec.writes) {
      auto result = co_await comp->client->put(
          ctx, write.var, static_cast<staging::Version>(ts),
          runtime_->subset_region(write.subset_fraction));
      comp->metrics.put_response_s.add(result.response_time.seconds());
      comp->metrics.cum_put_response_s += result.response_time.seconds();
      comp->metrics.put_bytes += result.nominal_bytes;
      comp->metrics.suppressed_puts += result.suppressed;
      track.observe("put_response_s", result.response_time.seconds());
      track.emit(obs::Kind::kWriteDone, ts,
                 static_cast<std::int64_t>(result.nominal_bytes));
    }
    track.end(write_span);

    comp->current_ts = ts;
    ++comp->metrics.timesteps_done;
    track.emit(obs::Kind::kTimestepDone, ts);

    co_await policy_->on_timestep_end(services_, *comp, ts, ctx);
  }
  comp->done = true;
  comp->metrics.completion_time_s = ctx.now().seconds();
  runtime_->check_all_done();
}

sim::Task<void> WorkflowRunner::run_component_recovered(Comp* comp) {
  sim::Ctx ctx = runtime_->cluster().ctx_for(comp->vproc);
  const bool replay = policy_->replay_on_restart(comp->spec);
  co_await stage_reattach_and_replay(*comp, replay, ctx);
  // The recovery root opened at the failure instant closes once the
  // component is back in its timestep loop.
  comp->track.end(comp->obs_recovery_span);
  comp->obs_recovery_span = 0;
  comp->obs_detect_span = 0;
  comp->track.count("recoveries");
  co_await run_component(comp, comp->last_ckpt_ts);
}

sim::Task<void> WorkflowRunner::maybe_fail(Comp* comp, int ts, sim::Ctx ctx) {
  for (auto& f : runtime_->plan()) {
    if (f.fired || f.comp != comp->id || f.ts != ts) continue;
    f.fired = true;
    if (f.predicted && policy_->proactive_eligible(comp->spec)) {
      // The failure predictor raised an alert: take an emergency
      // checkpoint so the imminent failure loses only the current timestep.
      co_await policy_->emergency_checkpoint(services_, *comp, ts - 1, ctx);
    }
    if (f.phase < 0) continue;  // false alarm: no failure follows
    ++failures_injected_;
    // Die partway into this timestep's work.
    const obs::SpanId partial =
        comp->track.begin("compute (interrupted)", obs::Phase::kCompute, 0, ts);
    co_await ctx.delay(
        sim::from_seconds(f.phase * comp->spec.compute_per_ts_s));
    if (f.node_level && services_.ckpt != nullptr) {
      // The node loss wipes one member's cached blocks per affected set;
      // the freshest level still complete (cache intact, partner-
      // rebuildable, or PFS-drained) is the restart point. Mid-drain sets
      // don't qualify until their CkptDrainAck lands. With the hierarchy
      // off every checkpoint is already on the PFS, so nothing is lost.
      const std::uint64_t double_losses_before =
          services_.ckpt->stats().double_losses;
      services_.ckpt->on_node_failure(comp->id);
      if (services_.ckpt->stats().double_losses > double_losses_before) {
        // Double XOR loss: some cached set is now unrestorable at any
        // level below the PFS — loud enough to warrant a forensic dump.
        comp->track.degrade("double XOR loss: checkpoint set(s) of " +
                            comp->spec.name + " unrestorable below the PFS");
      }
      comp->last_ckpt_ts = services_.ckpt->best_restart_ts(
          comp->id, comp->last_pfs_ckpt_ts);
    }
    comp->track.emit(obs::Kind::kFailure, ts, f.node_level ? 1 : 0);
    comp->track.end(partial);
    // Root of this recovery's causal tree; the detect child covers the
    // failure-detection window and is closed by the recovery path that
    // eventually picks the component up.
    comp->obs_recovery_span =
        comp->track.begin("recovery", obs::Phase::kRestart, 0, ts);
    comp->obs_detect_span = comp->track.begin(
        "detect", obs::Phase::kRestart, comp->obs_recovery_span);
    comp->track.count("failures");
    runtime_->cluster().kill(comp->vproc);
    co_await ctx.delay({0});  // the cancelled token unwinds here
  }
}

void WorkflowRunner::fire_elastic_events(int ts) {
  const auto& events = runtime_->spec().elastic.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (elastic_fired_[i] || events[i].ts > ts) continue;
    elastic_fired_[i] = true;
    sim::spawn(runtime_->engine(), drive_elastic_event(events[i]),
               keep_error("membership change at ts " +
                          std::to_string(events[i].ts)));
  }
}

sim::Task<void> WorkflowRunner::drive_elastic_event(ElasticEvent event) {
  // Membership changes are system activity: they survive component kills
  // and run concurrently with the timestep loops they rebalance under.
  sim::Ctx ctx = services_.system_ctx();
  const obs::Track& track = runtime_->group_manager()->track();
  track.emit(obs::Kind::kMembershipChange, event.ts, event.join ? 1 : 0);
  staging::GroupChangeAck ack =
      co_await runtime_->group_change(ctx, event.join, event.server);
  track.emit(obs::Kind::kResilverDone, event.ts,
             ack.ok ? static_cast<std::int64_t>(ack.server) : -1);
}

void WorkflowRunner::on_vproc_failure(cluster::VprocId vproc) {
  if (tearing_down_ || runtime_->all_done().is_set()) return;
  Comp* comp = runtime_->comp_for_vproc(vproc);
  if (comp == nullptr || comp->done) return;
  policy_->recover(services_, *comp);
}

}  // namespace dstage::core
