#include "check/oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "check/forensics.hpp"
#include "ckpt/hierarchy.hpp"
#include "core/executor.hpp"
#include "core/multi_tenant.hpp"
#include "core/scheme/policy.hpp"
#include "staging/server.hpp"
#include "staging/tenant.hpp"
#include "util/geometry.hpp"

namespace dstage::check {

namespace {

using staging::AppId;
using staging::Version;

/// Reports are bounded: a systemic bug (e.g. a sabotaged GC) would
/// otherwise produce one violation per dropped version.
constexpr std::size_t kMaxViolations = 32;

void add_violation(std::vector<Violation>& out, int invariant,
                   std::string detail) {
  if (out.size() < kMaxViolations) {
    out.push_back(Violation{invariant, std::move(detail)});
  }
}

/// Sabotage decorator: forwards every protocol decision to the real scheme
/// policy except the post-recovery log replay, which it silently skips —
/// exactly the bug class the oracle's invariants 2 and 4 exist to catch.
class SkipReplayPolicy final : public core::SchemePolicy {
 public:
  explicit SkipReplayPolicy(std::unique_ptr<core::SchemePolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] core::Scheme scheme() const override {
    return inner_->scheme();
  }
  [[nodiscard]] bool uses_logging() const override {
    return inner_->uses_logging();
  }
  [[nodiscard]] bool replay_on_restart(
      const core::ComponentSpec&) const override {
    return false;
  }
  [[nodiscard]] bool proactive_eligible(
      const core::ComponentSpec& c) const override {
    return inner_->proactive_eligible(c);
  }
  [[nodiscard]] sim::Duration barrier_cost(
      const core::RuntimeServices& rt) const override {
    return inner_->barrier_cost(rt);
  }
  sim::Task<void> on_timestep_end(core::RuntimeServices& rt, core::Comp& comp,
                                  int ts, sim::Ctx ctx) override {
    return inner_->on_timestep_end(rt, comp, ts, ctx);
  }
  sim::Task<void> checkpoint(core::RuntimeServices& rt, core::Comp& comp,
                             int ts, sim::Ctx ctx) override {
    return inner_->checkpoint(rt, comp, ts, ctx);
  }
  void recover(core::RuntimeServices& rt, core::Comp& comp) override {
    inner_->recover(rt, comp);
  }

 private:
  std::unique_ptr<core::SchemePolicy> inner_;
};

/// var -> apps that may roll back and re-read it (the GC's retention
/// audience), derived from the spec under the *real* scheme semantics so a
/// sabotaged run is still judged against the correct protocol.
using ConsumerMap = std::map<std::string, std::vector<AppId>>;

ConsumerMap rollback_consumers(const core::WorkflowSpec& spec,
                               const core::SchemePolicy& policy) {
  ConsumerMap out;
  for (const auto& writer : spec.components) {
    for (const auto& write : writer.writes) {
      // Keys are tenant-namespaced exactly as the runtime registers them,
      // and only same-tenant readers are in the retention audience —
      // tenant A's rollback consumers never pin tenant B's log.
      auto& apps = out[staging::tenant_key(writer.tenant, write.var)];
      for (std::size_t r = 0; r < spec.components.size(); ++r) {
        const auto& reader = spec.components[r];
        if (reader.tenant != writer.tenant) continue;
        if (!policy.component_logged(reader)) continue;
        for (const auto& read : reader.reads) {
          if (read.var == write.var) {
            apps.push_back(static_cast<AppId>(r));
            break;
          }
        }
      }
    }
  }
  return out;
}

/// One consumer get, assembled from the events its component's track emits
/// for it back to back (core/executor.cpp): get-serve (var, ts, checksum),
/// read-anomaly (only when nonzero), read-done (bytes). Nothing can be
/// emitted between them, so one pending read suffices.
struct PendingRead {
  std::string var;
  ReferenceCache::ReadObs got;

  /// True when `e` completed the read; key(e) then names it.
  bool feed(const obs::Event& e, std::string_view detail) {
    if (e.kind == obs::Kind::kGetServe) {
      var = detail;
      got = {static_cast<std::uint64_t>(e.b), 0, 0};
    } else if (e.kind == obs::Kind::kReadAnomaly) {
      got.anomalies = static_cast<int>(e.b);
    } else if (e.kind == obs::Kind::kReadDone) {
      got.bytes = static_cast<std::uint64_t>(e.b);
      return true;
    }
    return false;
  }
  std::string key(const obs::Recorder& rec, const obs::Event& e) const {
    return read_key(rec.track_name(e.track), var, static_cast<int>(e.a));
  }
};

/// The retention watermark a server is *entitled* to believe, rebuilt from
/// the checkpoints (app -> highest version) the oracle watched it announce
/// — mirroring gc::GarbageCollector::watermark() exactly, minus any
/// sabotage bias.
Version true_watermark(const std::map<AppId, Version>& ckpts,
                       const std::string& var, const ConsumerMap& consumers) {
  auto it = consumers.find(var);
  Version mark = std::numeric_limits<Version>::max();
  if (it == consumers.end()) return mark;
  for (AppId app : it->second) {
    auto f = ckpts.find(app);
    mark = std::min(mark, f == ckpts.end() ? Version{0} : f->second);
  }
  return mark;
}

bool events_equal(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.timestep == b.timestep &&
         a.value == b.value && a.component == b.component;
}

std::string describe(const obs::TraceEvent& e) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s(%s, ts=%d) at %.6fs",
                obs::kind_name(e.kind), e.component.c_str(),
                e.timestep, e.at.seconds());
  return buf;
}

std::shared_ptr<const ReferenceCache::Entry> run_reference(
    const Schedule& base) {
  auto entry = std::make_shared<ReferenceCache::Entry>();
  PendingRead read;  // outlives the runner, whose teardown may still emit
  core::WorkflowRunner runner(base.to_spec());
  obs::Recorder& rec = runner.runtime().recorder();
  rec.subscribe([&](const obs::Event& e, std::string_view detail) {
    if (read.feed(e, detail)) entry->reads[read.key(rec, e)] = read.got;
  });
  runner.run();
  entry->trace = runner.trace().events();
  entry->digest = runner.trace().digest();
  entry->recorder_events = rec.dump();
  return entry;
}

}  // namespace

const char* sabotage_name(Sabotage s) {
  switch (s) {
    case Sabotage::kNone:
      return "none";
    case Sabotage::kSkipReplay:
      return "skip-replay";
    case Sabotage::kGcOvercollect:
      return "gc-overcollect";
  }
  throw std::invalid_argument("unknown sabotage");
}

Sabotage parse_sabotage(const std::string& name) {
  for (Sabotage s :
       {Sabotage::kNone, Sabotage::kSkipReplay, Sabotage::kGcOvercollect}) {
    if (name == sabotage_name(s)) return s;
  }
  throw std::invalid_argument("unknown sabotage '" + name +
                              "' (want none|skip-replay|gc-overcollect)");
}

std::string read_key(const std::string& comp, const std::string& var,
                     int ts) {
  return comp + "|" + var + "|" + std::to_string(ts);
}

std::string OracleReport::summary() const {
  std::string out;
  for (const Violation& v : violations) {
    out += "invariant " + std::to_string(v.invariant) + ": " + v.detail +
           "\n";
  }
  return out;
}

std::shared_ptr<const ReferenceCache::Entry> ReferenceCache::reference_for(
    const Schedule& s) {
  Schedule base = s;
  base.id = 0;
  base.mtbf = false;
  base.failures.clear();
  const std::string key = base.repro();

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = slots_[key];
    if (!entry) entry = std::make_shared<Slot>();
    slot = entry;
  }
  std::call_once(slot->once, [&] { slot->entry = run_reference(base); });
  return slot->entry;
}

OracleReport check_schedule(const Schedule& s, ReferenceCache& cache,
                            Sabotage sabotage, bool capture_bundle) {
  OracleReport report;
  const auto ref = cache.reference_for(s);
  report.reference_digest = ref->digest;

  const auto real_policy = core::make_scheme_policy(s.scheme);
  core::WorkflowSpec spec = s.to_spec();
  // Expand tenant clones up front (idempotent — the runtime builder's own
  // expansion then no-ops) so the consumer map sees the same namespaced
  // variables and app indices the servers will.
  core::expand_tenants(spec);
  const ConsumerMap consumers = rollback_consumers(spec, *real_policy);

  std::unique_ptr<core::SchemePolicy> run_policy;
  if (sabotage == Sabotage::kSkipReplay) {
    run_policy =
        std::make_unique<SkipReplayPolicy>(core::make_scheme_policy(s.scheme));
  }
  core::WorkflowRunner runner(std::move(spec), std::move(run_policy));
  const core::WorkflowSpec& rspec = runner.runtime().spec();

  // Filled by the subscriber: reads, and each server's app checkpoints.
  std::map<std::string, std::vector<ReferenceCache::ReadObs>> reads;
  auto& servers = runner.runtime().servers();
  std::vector<std::map<AppId, Version>> server_ckpts(servers.size());
  obs::Recorder& rec = runner.runtime().recorder();
  std::vector<int> server_of_track(rec.track_count(), -1);
  for (std::size_t si = 0; si < servers.size(); ++si) {
    server_of_track[servers[si]->track().id()] = static_cast<int>(si);
    if (sabotage == Sabotage::kGcOvercollect) {
      servers[si]->set_gc_watermark_bias(2);
    }
  }

  // Elastic invariant: a resilver hand-off may release a local copy only
  // when some *other* server already holds (var, version) — durability
  // moves across the membership change, it is never destroyed, and the
  // retained copy count never double-counts a version that left.
  const auto audit_resilver_drop = [&servers, &report](
                                       std::size_t si, const std::string& var,
                                       Version version, const char* what) {
    ++report.resilver_drops;
    for (std::size_t sj = 0; sj < servers.size(); ++sj) {
      if (sj == si) continue;
      if (servers[sj]->store().holds(var, version, staging::Holder::kBoth))
        return;
    }
    add_violation(report.violations, 1,
                  std::string("resilver released ") + var + " v" +
                      std::to_string(version) + " from the " + what +
                      " of server " + std::to_string(si) +
                      " with no other server holding it");
  };

  // Invariant 3, at reclaim time: a log drop is legal only at or below the
  // watermark this server could honestly have derived from the checkpoints
  // it has seen.
  const auto audit_log_drop = [&](std::size_t si, const std::string& var,
                                  Version version, staging::DropReason why) {
    if (why == staging::DropReason::kRollback) return;
    if (why == staging::DropReason::kResilver) {
      audit_resilver_drop(si, var, version, "data log");
      return;
    }
    if (why == staging::DropReason::kSpill) {
      // A spill eviction is legal at any version — but only if the PFS
      // gateway really holds the evicted version at the instant the log
      // lets go of it (the server must ack-then-drop, never drop-then-
      // spill).
      const staging::SpillGateway* gw = runner.runtime().spill_gateway();
      bool covered = false;
      if (gw != nullptr) {
        for (Version v : gw->versions_of(var)) covered |= v == version;
      }
      if (!covered) {
        add_violation(report.violations, 1,
                      "server " + std::to_string(si) + " spilled " + var +
                          " v" + std::to_string(version) +
                          " out of its log with no PFS copy at the "
                          "gateway");
      }
      return;
    }
    if (why == staging::DropReason::kRotation) {
      add_violation(report.violations, 3,
                    "data log rotated out " + var + " v" +
                        std::to_string(version) + " on server " +
                        std::to_string(si) +
                        " (log retention must be unbounded)");
      return;
    }
    const Version mark = true_watermark(server_ckpts[si], var, consumers);
    if (version > mark) {
      add_violation(report.violations, 3,
                    "GC reclaimed " + var + " v" + std::to_string(version) +
                        " on server " + std::to_string(si) +
                        " above the true watermark v" + std::to_string(mark));
    }
  };

  // The one subscriber: reads from the components' tracks; checkpoints,
  // drops and sweeps from the servers'. Delivery is synchronous, so every
  // audit inspects live state at the instant of the event.
  PendingRead read;
  rec.subscribe([&](const obs::Event& e, std::string_view detail) {
    if (read.feed(e, detail)) reads[read.key(rec, e)].push_back(read.got);
    if (e.track >= server_of_track.size() || server_of_track[e.track] < 0) {
      return;
    }
    const auto si = static_cast<std::size_t>(server_of_track[e.track]);
    const auto version = static_cast<Version>(e.a);
    const auto why = static_cast<staging::DropReason>(e.b);
    switch (e.kind) {
      case obs::Kind::kGcCheckpoint: {
        Version& mark = server_ckpts[si][static_cast<AppId>(e.a)];
        mark = std::max(mark, static_cast<Version>(e.b));
        break;
      }
      case obs::Kind::kStoreDrop:
        // Base-store drops are otherwise free-form (window rotation), but
        // a resilver release must pass the same hand-off audit as the
        // log's.
        if (why == staging::DropReason::kResilver) {
          audit_resilver_drop(si, std::string(detail), version, "store");
        }
        break;
      case obs::Kind::kLogDrop:
        audit_log_drop(si, std::string(detail), version, why);
        break;
      case obs::Kind::kGcReclaim: {
        // Invariant 3, after each variable's sweep: nothing the sweep
        // proved unreachable (a = its bound) may remain retained.
        const std::string var(detail);
        for (Version v : servers[si]->data_log().versions_of(var)) {
          if (v > version) continue;
          add_violation(report.violations, 3,
                        "sweep left unreachable " + var + " v" +
                            std::to_string(v) + " retained on server " +
                            std::to_string(si) + " (swept up to v" +
                            std::to_string(version) + ")");
        }
        break;
      }
      default:
        break;
    }
  });

  bool deadlocked = false;
  try {
    report.metrics = runner.run();
  } catch (const std::runtime_error& e) {
    deadlocked = true;
    add_violation(report.violations, 4,
                  std::string("recovery did not terminate: ") + e.what());
  }
  // The subscriber's state dies before the runner, whose teardown may
  // still emit while it unwinds the actors.
  rec.subscribe(nullptr);
  report.trace_digest = runner.trace().digest();

  // Forensic capture: freeze the flight recorder's surviving events into a
  // bundle whenever the run went loudly wrong — any invariant violation,
  // any recorded degradation — or when the caller forced it (--expect-fail
  // mismatch documentation). Called at every return point below.
  const auto attach_bundle = [&report, &runner, &ref, &s, sabotage,
                              capture_bundle] {
    const obs::Recorder& rec = runner.runtime().recorder();
    const bool degraded = !rec.degradations().empty();
    if (report.violations.empty() && !degraded && !capture_bundle) return;
    auto bundle = std::make_shared<ForensicBundle>();
    bundle->trigger = !report.violations.empty() ? "invariant-violation"
                      : degraded                 ? "degradation"
                                                 : "expect-fail-mismatch";
    bundle->detail =
        !report.violations.empty() ? report.violations.front().detail
        : degraded                 ? rec.degradations().front()
                   : "schedule expected to fail but passed clean";
    bundle->repro = s.repro();
    bundle->sabotage = sabotage_name(sabotage);
    bundle->trace_digest = report.trace_digest;
    bundle->reference_digest = report.reference_digest;
    bundle->events_recorded = rec.events_recorded();
    bundle->events_dropped = rec.events_dropped();
    bundle->events = rec.dump();
    bundle->reference_events = ref->recorder_events;
    bundle->degradations = rec.degradations();
    report.bundle = std::move(bundle);
  };

  bool any_fired = false;
  for (const core::PlannedFailure& f : runner.runtime().plan()) {
    if (!f.fired) continue;
    any_fired = true;
    if (f.phase < 0) {
      ++report.alarms_fired;
    } else {
      ++report.failures_injected;
    }
  }

  if (deadlocked) {
    // Mid-flight state is not meaningful for the remaining invariants;
    // the liveness violation above is the verdict.
    attach_bundle();
    return report;
  }

  const auto& ftrace = runner.trace().events();

  // ---- Invariant 4: recovery bookkeeping and prefix consistency. ----
  // Every recovery path — checkpoint/restart, failover, coordinated —
  // traces one start/done pair.
  const std::size_t recovery_starts =
      runner.trace().of_kind(obs::Kind::kRecoveryStart).size();
  const std::size_t recovery_dones =
      runner.trace().of_kind(obs::Kind::kRecoveryDone).size();
  if (recovery_starts != recovery_dones) {
    add_violation(report.violations, 4,
                  "unbalanced recovery pipeline: " +
                      std::to_string(recovery_starts) + " starts vs " +
                      std::to_string(recovery_dones) + " completions");
  }
  if (!any_fired) {
    if (report.trace_digest != ref->digest) {
      add_violation(report.violations, 4,
                    "no failure fired but the trace digest diverged from "
                    "the failure-free reference");
    }
  } else {
    // The earliest instant any fired schedule entry could have perturbed
    // the run: the victim's entry into the timestep it strikes.
    sim::TimePoint t_perturb{std::numeric_limits<std::int64_t>::max()};
    for (const core::PlannedFailure& f : runner.runtime().plan()) {
      if (!f.fired) continue;
      const std::string& victim =
          rspec.components[static_cast<std::size_t>(f.comp)].name;
      for (const obs::TraceEvent& e : ftrace) {
        if (e.kind == obs::Kind::kTimestepStart &&
            e.timestep == f.ts && e.component == victim) {
          t_perturb = std::min(t_perturb, e.at);
          break;
        }
      }
    }
    const auto& rtrace = ref->trace;
    const std::size_t n = std::min(ftrace.size(), rtrace.size());
    std::size_t d = 0;
    while (d < n && events_equal(ftrace[d], rtrace[d])) ++d;
    if (d < ftrace.size() || d < rtrace.size()) {
      const bool f_before = d >= ftrace.size() || ftrace[d].at < t_perturb;
      const bool r_before = d >= rtrace.size() || rtrace[d].at < t_perturb;
      if (f_before && r_before) {
        add_violation(
            report.violations, 4,
            "trace diverged before the first failure struck (at " +
                std::to_string(t_perturb.seconds()) + "s): got " +
                (d < ftrace.size() ? describe(ftrace[d]) : "end of trace") +
                ", reference has " +
                (d < rtrace.size() ? describe(rtrace[d]) : "end of trace"));
      }
    }
  }

  // ---- Invariant 4 (structural): every recovered logged component must
  // pass through log replay before it resumes timesteps. Catches a
  // skipped replay stage even when idempotent re-puts keep the data
  // correct by accident.
  std::map<std::string, bool> logged_by_name;
  for (const auto& c : rspec.components) {
    logged_by_name[c.name] = real_policy->component_logged(c);
  }
  for (std::size_t i = 0; i < ftrace.size(); ++i) {
    const obs::TraceEvent& e = ftrace[i];
    if (e.kind != obs::Kind::kRecoveryDone) continue;
    if (!logged_by_name[e.component]) continue;
    bool replayed = false;
    bool resumed = false;
    for (std::size_t j = i + 1; j < ftrace.size(); ++j) {
      if (ftrace[j].component != e.component) continue;
      if (ftrace[j].kind == obs::Kind::kReplayDone) {
        replayed = true;
        break;
      }
      if (ftrace[j].kind == obs::Kind::kTimestepStart) {
        resumed = true;
        break;
      }
    }
    if (!replayed) {
      add_violation(report.violations, 4,
                    e.component + " recovered at ts " +
                        std::to_string(e.timestep) +
                        (resumed ? " and resumed without log replay"
                                 : " but never replayed or resumed"));
    }
  }

  // ---- Invariant 5: restart-level equivalence (hierarchy only). ----
  // Every restart the hierarchy served must (a) have byte-verified the
  // restored state against the checksum taken at write time — so a cache
  // or partner-rebuilt restart is provably identical to what a PFS restart
  // of the same set would load — and (b) never be older than the durable
  // PFS anchor available at the same instant, which is how a partial or
  // in-flight drain could smuggle in a stale restart point.
  if (const ckpt::CheckpointHierarchy* hier =
          runner.runtime().ckpt_hierarchy()) {
    for (const ckpt::RestartRecord& r : hier->restart_records()) {
      if (!r.checksum_ok) {
        add_violation(report.violations, 5,
                      "restart of app " + std::to_string(r.app) + " at ts " +
                          std::to_string(r.ts) + " from level " +
                          ckpt::ckpt_level_name(r.level) +
                          " failed byte verification against the write-time "
                          "checksum");
      }
      if (r.ts < r.pfs_ts_at_choice) {
        add_violation(report.violations, 5,
                      "restart of app " + std::to_string(r.app) +
                          " chose ts " + std::to_string(r.ts) + " from level " +
                          ckpt::ckpt_level_name(r.level) +
                          " although a durable PFS checkpoint at ts " +
                          std::to_string(r.pfs_ts_at_choice) +
                          " was already available");
      }
    }
  }

  // ---- Invariant 2: replayed consumers read what the reference read. ----
  // Membership churn makes the producer's chunk decomposition epoch-
  // dependent: a put landing before vs after a join/retire merges cells
  // into different — equally complete — chunk sets, with per-chunk
  // synthetic payloads to match. Piece-identity checksums are therefore
  // only comparable across runs when the group is fixed; elastic
  // schedules fall back to content completeness (byte totals + anomaly
  // flags), which is the paper-level read guarantee.
  const bool chunking_stable = s.elastic.empty();
  for (const auto& [key, occurrences] : reads) {
    const auto it = ref->reads.find(key);
    if (it == ref->reads.end()) {
      add_violation(report.violations, 2,
                    "read " + key + " has no reference counterpart");
      continue;
    }
    const std::string comp_name = key.substr(0, key.find('|'));
    const bool must_match = logged_by_name[comp_name];
    const ReferenceCache::ReadObs& expect = it->second;
    for (const ReferenceCache::ReadObs& got : occurrences) {
      if ((got.checksum == expect.checksum || !chunking_stable) &&
          got.bytes == expect.bytes) {
        continue;
      }
      if (!must_match && got.anomalies > 0) continue;  // flagged, not silent
      add_violation(
          report.violations, 2,
          "read " + key + " diverged from the reference" +
              (must_match ? " (logged consumer must replay identically)"
                          : " with no anomaly flag raised") +
              ": got checksum=" + std::to_string(got.checksum) + " bytes=" +
              std::to_string(got.bytes) + " anomalies=" +
              std::to_string(got.anomalies) + ", want checksum=" +
              std::to_string(expect.checksum) + " bytes=" +
              std::to_string(expect.bytes) + " anomalies=" +
              std::to_string(expect.anomalies));
    }
  }

  // ---- Invariant 6: tenant isolation (multi-tenant schedules only). ----
  // Failures target tenant 0 (the schedule validator enforces it), so
  // every other tenant is a bystander whose reads must be bit-for-bit what
  // the same workflow observes running solo — tenant 0's crashes,
  // rollbacks, GC sweeps and spills must be invisible to co-tenants.
  // Bystander read keys carry the "@t<N>" clone suffix; stripping it
  // rebases them onto the single-tenant reference. Content identity is
  // tenant-invariant (chunk payloads key on the base variable), so
  // checksums and byte counts are directly comparable across namespaces.
  if (s.tenants > 1) {
    Schedule solo = s;
    solo.tenants = 1;
    const auto solo_ref = cache.reference_for(solo);
    for (const auto& [key, occurrences] : reads) {
      const std::size_t bar = key.find('|');
      const std::size_t at = key.rfind("@t", bar);
      if (at == std::string::npos) continue;  // tenant 0: not a bystander
      const std::string solo_key = key.substr(0, at) + key.substr(bar);
      const auto it = solo_ref->reads.find(solo_key);
      if (it == solo_ref->reads.end()) {
        add_violation(report.violations, 6,
                      "bystander read " + key +
                          " has no solo-run counterpart " + solo_key);
        continue;
      }
      const ReferenceCache::ReadObs& expect = it->second;
      for (const ReferenceCache::ReadObs& got : occurrences) {
        ++report.isolation_reads_checked;
        if ((got.checksum == expect.checksum || !chunking_stable) &&
            got.bytes == expect.bytes && got.anomalies == expect.anomalies) {
          continue;
        }
        add_violation(
            report.violations, 6,
            "bystander read " + key + " differs from the solo run (" +
                solo_key + "): got checksum=" + std::to_string(got.checksum) +
                " bytes=" + std::to_string(got.bytes) + " anomalies=" +
                std::to_string(got.anomalies) + ", solo has checksum=" +
                std::to_string(expect.checksum) + " bytes=" +
                std::to_string(expect.bytes) + " anomalies=" +
                std::to_string(expect.anomalies));
      }
    }
  }

  // ---- Invariant 7: codec transparency (codec schedules only). ----
  // The codec-armed reference run must read exactly what a codec-off run
  // of the same configuration reads: compression and delta encoding of the
  // write log are never observable through any read path. Invariant 2
  // already pins this failure run's reads to the codec-armed reference, so
  // together the chain run == codec-armed ref == codec-off ref holds
  // bit-for-bit (checksums compare piece identity; the timing of the two
  // references may differ — encoded wire sizes are the point — so only
  // read content is compared, never the trace digest).
  if (s.codec != wlog::codec::Scheme::kNone) {
    Schedule raw = s;
    raw.codec = wlog::codec::Scheme::kNone;
    const auto raw_ref = cache.reference_for(raw);
    for (const auto& [key, expect] : ref->reads) {
      ++report.codec_reads_checked;
      const auto it = raw_ref->reads.find(key);
      if (it == raw_ref->reads.end()) {
        add_violation(report.violations, 7,
                      "codec-armed read " + key +
                          " has no codec-off counterpart");
        continue;
      }
      const ReferenceCache::ReadObs& want = it->second;
      if (expect.checksum == want.checksum && expect.bytes == want.bytes &&
          expect.anomalies == want.anomalies) {
        continue;
      }
      add_violation(
          report.violations, 7,
          "codec-armed read " + key + " differs from the codec-off run: " +
              "got checksum=" + std::to_string(expect.checksum) + " bytes=" +
              std::to_string(expect.bytes) + " anomalies=" +
              std::to_string(expect.anomalies) + ", codec-off has checksum=" +
              std::to_string(want.checksum) + " bytes=" +
              std::to_string(want.bytes) + " anomalies=" +
              std::to_string(want.anomalies));
    }
  }

  // ---- Invariant 1: durability of committed versions. ----
  // Committed versions per var, recovered from the write trail (replayed
  // re-puts are suppressed but still acknowledged, so a set suffices).
  std::map<std::string, const core::ComponentSpec*> spec_by_name;
  for (const auto& c : rspec.components) spec_by_name[c.name] = &c;
  std::map<std::string, std::set<Version>> written;
  std::map<std::string, Box> write_region;
  std::map<std::string, std::map<int, int>> write_occurrence;
  for (const obs::TraceEvent& e : ftrace) {
    if (e.kind != obs::Kind::kWriteDone) continue;
    const core::ComponentSpec* c = spec_by_name[e.component];
    if (c == nullptr || c->writes.empty()) continue;
    const int k = write_occurrence[e.component][e.timestep]++;
    const auto& w =
        c->writes[static_cast<std::size_t>(k) % c->writes.size()];
    const std::string var = staging::tenant_key(c->tenant, w.var);
    written[var].insert(static_cast<Version>(e.timestep));
    write_region.emplace(
        var, runner.runtime().subset_region(w.subset_fraction));
  }

  // Integrity: every piece still retained anywhere, by the window or the
  // log, must be byte-exact for its declared (var, version) — in every
  // scheme.
  for (std::size_t si = 0; si < servers.size(); ++si) {
    const staging::ObjectStore& store = servers[si]->store();
    const staging::Holder any = staging::Holder::kBoth;
    for (const std::string& var : store.variables(any)) {
      for (Version v : store.versions_of(var, any)) {
        for (const staging::Chunk& piece : store.chunks_of(var, v, any)) {
          if (staging::check_chunk(servers[si]->data_log().decoded(piece),
                                   var, v) != staging::ChunkCheck::kOk) {
            add_violation(report.violations, 1,
                          "server " + std::to_string(si) +
                              " retains a corrupt " + var + " v" +
                              std::to_string(v) + " chunk");
          }
        }
      }
    }
  }
  // The spill gateway is one more holder: everything it persisted on the
  // servers' behalf must be byte-exact too.
  if (const staging::SpillGateway* gw = runner.runtime().spill_gateway()) {
    for (const std::string& var : gw->variables()) {
      for (Version v : gw->versions_of(var)) {
        for (const staging::Chunk& chunk : gw->get(var, v, rspec.domain)) {
          if (staging::check_chunk(chunk, var, v) !=
              staging::ChunkCheck::kOk) {
            add_violation(report.violations, 1,
                          "spill gateway retains a corrupt " + var + " v" +
                              std::to_string(v) + " chunk");
          }
        }
      }
    }
  }

  // Retention: under a logging scheme, every committed version a
  // rolled-back consumer could still demand must remain fully covered by
  // what the servers' windows and logs hold.
  if (real_policy->uses_logging()) {
    for (const auto& [var, versions] : written) {
      if (consumers.find(var) == consumers.end() ||
          consumers.at(var).empty()) {
        continue;  // nobody can roll back onto this var
      }
      Version required_above = 0;
      for (std::size_t si = 0; si < servers.size(); ++si) {
        required_above =
            std::max(required_above,
                     true_watermark(server_ckpts[si], var, consumers));
      }
      const Box& region = write_region.at(var);
      for (Version v : versions) {
        if (v <= required_above) continue;
        std::vector<Box> cover;
        for (const auto& srv : servers) {
          for (const staging::Chunk& chunk :
               srv->store().get(var, v, region, staging::Holder::kBoth))
            cover.push_back(chunk.region);
        }
        // Spilled versions count as retained: replay faults them back in
        // from the PFS transparently.
        if (const staging::SpillGateway* gw =
                runner.runtime().spill_gateway()) {
          for (const staging::Chunk& chunk : gw->get(var, v, region))
            cover.push_back(chunk.region);
        }
        if (!boxes_cover(region, cover)) {
          add_violation(report.violations, 1,
                        "committed " + var + " v" + std::to_string(v) +
                            " (above watermark v" +
                            std::to_string(required_above) +
                            ") is no longer fully retained");
        }
      }
    }
  }

  attach_bundle();
  return report;
}

}  // namespace dstage::check
