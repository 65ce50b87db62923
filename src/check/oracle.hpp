// The crash-consistency oracle. check_schedule() executes one failure
// schedule through the real runtime, subscribed to the run's event stream
// (reads, staging store/log drops, GC checkpoints and sweeps, recovery
// milestones), and asserts seven machine-checked invariants against a
// failure-free reference run of the same configuration:
//
//   1. Durability — no committed staged version a rolled-back consumer may
//      still need is lost, and every retained chunk is byte-exact for its
//      (var, version, region) content key.
//   2. Read equivalence — a replayed consumer observes data identical to
//      the reference run; non-logged schemes may diverge only with the
//      anomaly (wrong-version / corrupt) flags raised, never silently.
//   3. GC safety — the data log drops nothing above the true retention
//      watermark (computed independently from the gc-checkpoint events,
//      so a sabotaged collector cannot vouch for itself), never rotates
//      logged payloads out, and retains nothing a completed sweep proved
//      unreachable.
//   4. Recovery liveness and prefix consistency — recovery terminates
//      (on every recovery path each start has a done, no deadlock), the
//      trace never diverges from the reference before the first injected
//      failure strikes, and every recovered logged component passes
//      through log replay before resuming timesteps.
//   5. Restart-level equivalence (multi-level hierarchy only) — every
//      restart served from the checkpoint cache or a partner rebuild is
//      byte-verified against the checksum taken at write time and is never
//      older than the durable PFS anchor available at the same instant:
//      restart-from-cache ≡ restart-from-PFS, and a partial or in-flight
//      drain is never observable as a valid restart point. (Invariant 2's
//      read equivalence against the failure-free reference then proves the
//      post-restart execution is indistinguishable.)
//   6. Tenant isolation (multi-tenant schedules only) — failures target
//      tenant 0, so every other tenant is a bystander: its reads, rebased
//      onto a single-tenant reference run of the same workflow by stripping
//      the "@t<N>" clone suffix, must be bit-for-bit identical to running
//      solo. Tenant 0's crashes, rollbacks, GC sweeps and spills must be
//      invisible to its co-tenants.
//   7. Codec transparency (codec-armed schedules only) — every consumer
//      read of the codec-armed reference run must be bit-for-bit identical
//      (checksum, byte count, anomaly flags) to the codec-off reference of
//      the same configuration: compressing and delta-encoding the write
//      log must never be observable through any read path. Combined with
//      invariant 2 (the failure run replays identically to its codec-armed
//      reference), this pins decoded reads to the uncompressed truth, and
//      invariant 1's holdings sweep byte-verifies every decoded retained
//      chunk against its content key.
//
// Reference runs are memoized per failure-free configuration so a campaign
// pays for each distinct (scheme, periods, resilience) combination once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "core/workflow.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace dstage::check {

struct ForensicBundle;  // check/forensics.hpp

/// Deliberate protocol corruptions the campaign injects to prove the
/// oracle catches real bugs (and that the shrinker minimizes them).
enum class Sabotage {
  kNone,
  /// Recovered components skip the log-replay stage (drops the paper's
  /// re-attach protocol step).
  kSkipReplay,
  /// The garbage collector believes a watermark two versions above the
  /// truth and reclaims logged data consumers may still re-read.
  kGcOvercollect,
};

const char* sabotage_name(Sabotage s);
Sabotage parse_sabotage(const std::string& name);

struct Violation {
  int invariant = 0;  // 1..7, numbering above
  std::string detail;
};

struct OracleReport {
  std::vector<Violation> violations;
  int failures_injected = 0;
  int alarms_fired = 0;       // false-alarm entries that perturbed the run
  std::uint64_t trace_digest = 0;
  std::uint64_t reference_digest = 0;
  /// The run's own totals (governor, elastic, hierarchy, codec, ...);
  /// zeroed when the run deadlocked. check/counters.hpp names the ones a
  /// campaign sums and requires.
  core::RunMetrics metrics;
  // The oracle's own audit counts: what a passing verdict inspected, so a
  // campaign can tell a checked pass from a vacuous one.
  std::uint64_t resilver_drops = 0;           // hand-offs audited (elastic)
  std::uint64_t isolation_reads_checked = 0;  // bystander reads (tenants)
  std::uint64_t codec_reads_checked = 0;      // reads vs codec-off (codec)

  /// Forensic post-mortem captured from the flight recorder. Non-null when
  /// the run violated an invariant, the recorder noted a loud degradation,
  /// or the caller forced capture (campaign --expect-fail mismatches).
  std::shared_ptr<const ForensicBundle> bundle;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Human-readable one-per-line violation list (empty string when ok).
  [[nodiscard]] std::string summary() const;
};

/// Memoized failure-free reference runs, shared across campaign workers.
/// Thread-safe; each distinct configuration is computed exactly once.
class ReferenceCache {
 public:
  /// What invariant 2 compares against: one observation per completed get.
  struct ReadObs {
    std::uint64_t checksum = 0;  // order-independent piece checksum
    std::uint64_t bytes = 0;     // nominal bytes returned
    int anomalies = 0;           // wrong-version + corrupt counts
  };

  struct Entry {
    std::map<std::string, ReadObs> reads;  // "comp|var|ts" -> observation
    std::vector<obs::TraceEvent> trace;
    std::uint64_t digest = 0;
    /// The reference run's flight-recorder dump: what the forensic diff
    /// compares a failing run's events against.
    std::vector<obs::DecodedEvent> recorder_events;
  };

  /// The failure-free reference for `s`'s configuration (failures and id
  /// stripped). Blocks on first use per configuration; cheap thereafter.
  std::shared_ptr<const Entry> reference_for(const Schedule& s);

 private:
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const Entry> entry;
  };
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
};

/// Key of one consumer get occurrence: "component|var|timestep".
std::string read_key(const std::string& comp, const std::string& var, int ts);

/// Run `s` under the oracle and return every invariant violation found.
/// `capture_bundle` forces a forensic bundle even when the run is clean —
/// how a campaign documents an --expect-fail schedule that unexpectedly
/// passed.
OracleReport check_schedule(const Schedule& s, ReferenceCache& cache,
                            Sabotage sabotage = Sabotage::kNone,
                            bool capture_bundle = false);

}  // namespace dstage::check
