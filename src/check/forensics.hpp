// Failure forensics: the post-mortem side of the always-on flight
// recorder rings (obs/recorder). When check_schedule() trips an oracle
// invariant, a campaign --expect-fail run passes unexpectedly, or the
// recorder noted a loud degradation (double XOR loss), the run's
// surviving ring events are frozen into a ForensicBundle
// together with the failing schedule, the run digests, and the memoized
// reference run's events. find_divergence() then diffs the two event
// streams by key — not by position, since each ring truncates
// independently — names the first divergent event, and walks backwards
// through drains, spills, resilvers, and epoch changes to reconstruct the
// causal chain that led there.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace dstage::check {

/// Everything needed to diagnose one bad run offline. Serialized as JSON
/// (bundle_to_json / bundle_from_json) so CI can upload it as an artifact
/// and tools/forensics can replay the analysis without the run.
struct ForensicBundle {
  /// Why the bundle was captured: "invariant-violation",
  /// "expect-fail-mismatch", or "degradation".
  std::string trigger;
  /// First violation text or degradation note — the headline.
  std::string detail;
  /// The failing schedule's repro string (tools/campaign --repro=...).
  std::string repro;
  std::string sabotage;  // sabotage name ("none" when clean)
  std::uint64_t trace_digest = 0;
  std::uint64_t reference_digest = 0;
  /// Recorder totals: how much history existed vs how much the rings kept.
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  /// Surviving events of the failing run, global seq order (last K per
  /// component track).
  std::vector<obs::DecodedEvent> events;
  /// Same, from the memoized failure-free reference run.
  std::vector<obs::DecodedEvent> reference_events;
  /// Verbatim degradation notes (double XOR loss).
  std::vector<std::string> degradations;
};

/// Violation summaries ride along in OracleReport; the bundle itself is
/// the recorder's view.
std::string bundle_to_json(const ForensicBundle& b);
/// Parse a bundle written by bundle_to_json. Throws std::runtime_error on
/// malformed input.
ForensicBundle bundle_from_json(const std::string& text);

struct Divergence {
  bool found = false;
  /// Index into ForensicBundle::events of the first divergent event.
  std::size_t index = 0;
  /// Human-readable description of the divergence.
  std::string what;
  /// Events causally upstream of the divergent one (same variable or same
  /// track), oldest first, ending with the divergent event itself.
  std::vector<obs::DecodedEvent> causal_chain;
};

/// Ring kind names (obs/event.hpp) the causal-chain walk follows: data
/// movement, durability promotions, membership changes, GC moves, restarts
/// — everything that can change what a later read observes.
std::span<const char* const> causal_kinds();

/// Diff the failing run's events against the reference and name the first
/// divergent event. Keyed comparison, not positional: a get-serve is
/// matched by (track, var, timestep) and compared by payload checksum; a
/// GC watermark move is divergent when it advances past the reference's
/// final watermark for that variable. Reads flagged by a get-anomaly event
/// on the same (track, var) are not silent divergences and are skipped.
Divergence find_divergence(const ForensicBundle& b);

}  // namespace dstage::check
