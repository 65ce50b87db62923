// Randomized fault-injection schedules for the consistency campaign. A
// Schedule is a fully explicit description of one oracle run — scheme,
// checkpoint periods, resilience policy, and a hand-listed set of failures
// — so the shrinker can drop or simplify individual failures without
// re-shuffling anything else (which any seed-drawn plan would). Schedules
// serialize to a compact one-line repro string that `tools/campaign
// --repro=...` replays exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/workflow.hpp"

namespace dstage::check {

/// One injected failure of a schedule (mirrors core::ExplicitFailure, plus
/// schedule-level equality for the shrinker's fixpoint test).
struct ScheduleFailure {
  int comp = 0;             // index into the Table-II pair: 0 sim, 1 analytic
  int ts = 1;               // timestep the failure strikes
  double phase = 0.5;       // fraction of the timestep's compute before death;
                            // < 0 means predictor false alarm (no kill)
  bool node_level = false;  // node failure: its cached ckpt blocks are lost
  bool predicted = false;   // the failure predictor flagged it in advance

  friend bool operator==(const ScheduleFailure&,
                         const ScheduleFailure&) = default;
};

/// One elastic membership change of a schedule: a standby joins the
/// staging group at `ts` (join) or an active server retires (not join).
/// The shrinker never touches these — a crash aimed into a resilver
/// window stays aimed there through every shrink candidate.
struct ElasticScheduleEvent {
  int ts = 1;
  bool join = true;

  friend bool operator==(const ElasticScheduleEvent&,
                         const ElasticScheduleEvent&) = default;
};

/// Redundancy applied to staged payloads by the schedule.
/// 0 = none, 1 = replication x2, 2 = Reed-Solomon RS(2, 1).
inline constexpr int kResilienceKinds = 3;

struct Schedule {
  int id = 0;  // position in the campaign (label only; not part of config)
  core::Scheme scheme = core::Scheme::kUncoordinated;
  int total_ts = 12;
  int sim_period = 3;        // simulation checkpoint period
  int analytic_period = 4;   // analytic checkpoint period
  int resilience = 0;        // see kResilienceKinds
  bool mtbf = false;         // provenance: failure times drawn via MTBF
  /// Per-server staging memory budget in MB (0 = governor disabled). Part
  /// of the configuration, so memory-governed campaigns get their own
  /// reference runs.
  int memory_budget_mb = 0;
  /// Initial active staging servers (0 = the Table-II default; serialized
  /// as `;ss=` only when set). Lets a repro string pin the paper's
  /// grow/shrink scenario exactly (e.g. 3 servers growing to 5).
  int staging_servers = 0;
  /// Multi-level checkpoint hierarchy: XOR partner-group size (0 = off,
  /// the default; serialized as `;ckpt=` only when set, so hierarchy-off
  /// repro strings stay stable). Part of the configuration, so hierarchy
  /// schedules get their own reference runs.
  int ckpt_group = 0;
  /// Co-located tenants sharing the staging group (1 = classic
  /// single-workflow run, the default; serialized as `;tenants=` only when
  /// > 1, so single-tenant repro strings stay stable). Failures always
  /// target tenant 0, making tenants 1..N-1 provable bystanders for the
  /// oracle's isolation invariant. Part of the configuration, so
  /// multi-tenant schedules get their own (multi-tenant, failure-free)
  /// reference runs; the isolation check additionally rebases bystander
  /// reads onto the single-tenant reference.
  int tenants = 1;
  /// Write-log payload codec armed for this schedule (kNone = raw
  /// retention, the default; serialized as `;codec=` only when set, so
  /// codec-off repro strings stay stable). Part of the configuration, so
  /// codec schedules get their own reference runs — and the oracle's
  /// codec-transparency invariant additionally replays every read against
  /// a codec-off twin.
  wlog::codec::Scheme codec = wlog::codec::Scheme::kNone;
  std::vector<ScheduleFailure> failures;
  /// Membership changes driven mid-run (empty = fixed group, the default;
  /// serialized as the `;elastic=` repro field only when non-empty).
  std::vector<ElasticScheduleEvent> elastic;

  /// The Table-II workflow spec this schedule runs: total_ts shortened to
  /// the schedule's horizon and the failures injected verbatim.
  [[nodiscard]] core::WorkflowSpec to_spec() const;

  /// One-line re-runnable serialization (exact round-trip incl. phases).
  [[nodiscard]] std::string repro() const;
  /// Inverse of repro(). Throws std::invalid_argument on malformed input.
  /// Accepts the retired node-local period only as `lp=0`, so older repro
  /// strings stay runnable; `lp=N` with N > 0 throws.
  static Schedule parse(const std::string& repro);

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

struct GenerateOptions {
  int count = 100;
  std::uint64_t seed = 1;
  /// Schemes to draw from; empty means all five (Ds/Co/Un/In/Hy).
  std::vector<core::Scheme> schemes;
  int total_ts = 12;
  int max_failures = 3;
  /// Per-server staging memory budget in MB applied to every generated
  /// schedule (0 = governor disabled).
  int memory_budget_mb = 0;
  /// Fraction of schedules that carry an elastic grow/shrink episode (a
  /// join and a later retire). When an episode is drawn and the schedule
  /// has failures, the first failure is re-aimed at the join timestep so
  /// crashes land during the resilver window.
  double elastic_probability = 0.0;
  /// Fraction of schedules that run the multi-level checkpoint hierarchy
  /// (XOR partner-group size drawn from {2, 3, 4}).
  double ckpt_probability = 0.0;
  /// Co-located tenants applied to every generated schedule (1 = classic
  /// single-tenant). Set without consuming the random stream, so
  /// --tenants=N campaigns replay the same failure schedules as their
  /// single-tenant counterparts.
  int tenants = 1;
  /// Write-log payload codec applied to every generated schedule. Set
  /// without consuming the random stream, so --codec campaigns replay the
  /// same failure schedules as their raw-retention counterparts.
  wlog::codec::Scheme codec = wlog::codec::Scheme::kNone;
  /// Cycle schedule i through lz/delta/delta_lz (overrides `codec`;
  /// deterministic by index, no rng draw) — the campaign's --codec=mix.
  bool codec_mix = false;
};

/// Draw `count` independent schedules. Schedule i depends only on
/// (seed, i) — via Rng::fork — so campaigns are reproducible and
/// parallelizable in any order.
std::vector<Schedule> generate_schedules(const GenerateOptions& opts);

/// Short scheme tokens used by repro strings and the CLI: ds|co|un|in|hy.
const char* scheme_token(core::Scheme s);
core::Scheme parse_scheme_token(const std::string& token);

}  // namespace dstage::check
