// The run's one event vocabulary. Every instrumentation site names its
// fact with one obs::Kind and emits it once through its component's
// obs::Track (obs/recorder.hpp); the per-kind table below decides which
// sinks see it:
//
//   - the digest sink (obs::Trace): `always`, `obs_only` (only with
//     ObsConfig::enabled, so uninstrumented digests never hash it) or
//     `never`;
//   - the per-track flight-recorder rings that forensic bundles freeze;
//   - the span tracer, as a point instant (obs on only);
//   - a Recorder subscriber, which sees every kind (obs/recorder.hpp).
//
// Field layout per kind: `detail` is an interned string, `a`/`b` two int64
// payloads. For digest-visible kinds the trace records (track name, a, b)
// as (component, timestep, value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace dstage::obs {

enum class Kind : std::uint8_t {
  // Digest kinds, in their historical order: Trace::digest() hashes the
  // ordinal, so inserting or reordering here moves every golden digest.
  kTimestepStart,        // a=ts
  kReadDone,             // a=ts, b=nominal bytes read
  kComputeDone,          // a=ts
  kWriteDone,            // a=ts, b=nominal bytes written
  kTimestepDone,         // a=ts
  kCheckpoint,           // PFS level: a=ts
  kLocalCheckpoint,      // checkpoint-hierarchy cache set: a=ts
  kProactiveCheckpoint,  // a=ts
  kFailure,              // a=ts, b=1 node-level
  kRecoveryStart,        // a=ts
  kRecoveryDone,         // a=ts
  kReplayDone,           // detail=component, a=ts, b=versions replayed
  kGcSweep,              // a=entries scanned, b=nominal bytes reclaimed
  kGcWatermark,          // detail=var, a=new watermark version
  kLogTruncate,          // a=metadata entries dropped
  kMembershipChange,     // a=ts, b=1 join / 0 retire
  kResilverDone,         // a=ts, b=admitted/retired server id, -1 on reject
  kCkptDrainDone,        // a=drained ts (now PFS-durable), b=same ts
  kCkptRestore,          // a=restart ts, b=level (0 cache/1 partner/2 pfs)
  // Ring-only kinds.
  kPutAdmit,     // detail=var, a=version, b=nominal bytes
  kPutReject,    // governor admission reject: detail=var, a=version,
                 // b=nominal bytes
  kPutBounce,    // wrong-epoch put bounce: detail=var, a=version, b=epoch
  kGetServe,     // detail=var, a=ts, b=order-independent checksum
  kGetAnomaly,   // wrong-version serve: detail=var, a=requested version,
                 // b=version actually substituted
  kGetBounce,    // wrong-epoch get bounce: detail=var, a=version, b=epoch
  kSpillOut,     // detail=var, a=version, b=bytes spilled to the gateway
  kSpillFetch,   // detail=var, a=version, b=bytes faulted back in
  kDrainAck,     // ckpt drain ack promoted the watermark: detail=app, a=ts
  kCkptStore,    // drain agent accepted a set: detail=app, a=ts
  kCkptEncode,   // XOR parity distributed: detail=app, a=ts, b=bytes
  kCkptDrain,    // set reached the PFS: detail=app, a=ts, b=bytes
  kResilverOut,  // hand-off stream sent: detail=dest, a=chunks, b=bytes
  kResilverIn,   // hand-off stream received: detail=var, a=version, b=bytes
  kEpochChange,  // membership view installed: a=epoch, b=active servers
  kRestartLevel,  // detail=component, a=level (0 cache/1 partner/2 pfs),
                  // b=restart ts
  kDegradation,  // detail=what went loudly wrong
  // Subscriber-only kinds (no digest, ring or instant): a store rotates a
  // version out on every put, so as ring kinds they would flood its ring.
  kStoreDrop,     // detail=var, a=version, b=staging::DropReason
  kLogDrop,       // detail=var, a=version, b=staging::DropReason
  kGcCheckpoint,  // durable checkpoint seen by the GC: a=app, b=version
  kGcReclaim,     // one variable swept: detail=var, a=bound, b=dropped
  kReadAnomaly,   // detail=var, a=ts, b=wrong-version + corrupt (if > 0)
};

/// Which runs hash a kind into Trace::digest().
enum class Digest : std::uint8_t {
  kAlways,
  kObsOnly,  // instrumented runs only: uninstrumented digests never see it
  kNever,
};

struct KindInfo {
  /// Stable name: part of the forensic bundle format and the trace CSV.
  const char* name;
  Digest digest;
  bool ring;     // kept in the track's flight-recorder ring
  bool instant;  // also a span-tracer instant (obs on), value = b
};

inline constexpr KindInfo kKindTable[] = {
    // name                  digest            ring   instant
    {"ts-start", Digest::kAlways, false, false},
    {"read-done", Digest::kAlways, false, false},
    {"compute-done", Digest::kAlways, false, false},
    {"write-done", Digest::kAlways, false, false},
    {"ts-done", Digest::kAlways, false, false},
    {"checkpoint", Digest::kAlways, false, false},
    {"local-checkpoint", Digest::kAlways, false, false},
    {"proactive-checkpoint", Digest::kAlways, false, false},
    {"failure", Digest::kAlways, true, true},
    {"recovery-start", Digest::kAlways, false, false},
    {"recovery-done", Digest::kAlways, false, false},
    {"replay-done", Digest::kAlways, true, false},
    {"gc-sweep", Digest::kObsOnly, true, false},
    {"gc-watermark", Digest::kObsOnly, true, false},
    {"log-truncate", Digest::kObsOnly, true, false},
    {"membership-change", Digest::kAlways, false, false},
    {"resilver-done", Digest::kAlways, false, false},
    {"ckpt-drain-done", Digest::kAlways, false, false},
    {"ckpt-restore", Digest::kAlways, false, false},
    {"put-admit", Digest::kNever, true, false},
    {"put-reject", Digest::kNever, true, false},
    {"put-bounce", Digest::kNever, true, false},
    {"get-serve", Digest::kNever, true, false},
    {"get-anomaly", Digest::kNever, true, false},
    {"get-bounce", Digest::kNever, true, false},
    {"spill-out", Digest::kNever, true, false},
    {"spill-fetch", Digest::kNever, true, false},
    {"drain-ack", Digest::kNever, true, false},
    {"ckpt-store", Digest::kNever, true, false},
    {"ckpt-encode", Digest::kNever, true, false},
    {"ckpt-drain", Digest::kNever, true, false},
    {"resilver-out", Digest::kNever, true, false},
    {"resilver-in", Digest::kNever, true, false},
    {"epoch-change", Digest::kNever, true, false},
    {"restart-level", Digest::kNever, true, false},
    {"degradation", Digest::kNever, true, false},
    {"store-drop", Digest::kNever, false, false},
    {"log-drop", Digest::kNever, false, false},
    {"gc-checkpoint", Digest::kNever, false, false},
    {"gc-reclaim", Digest::kNever, false, false},
    {"read-anomaly", Digest::kNever, false, false},
};

inline constexpr std::size_t kKindCount = std::size(kKindTable);
static_assert(kKindCount == static_cast<std::size_t>(Kind::kReadAnomaly) + 1,
              "one kKindTable row per obs::Kind");
static_assert(static_cast<int>(Kind::kCkptRestore) == 18,
              "digest kinds keep their historical ordinals");

constexpr const KindInfo& kind_info(Kind k) {
  return kKindTable[static_cast<std::size_t>(k)];
}
constexpr const char* kind_name(Kind k) { return kind_info(k).name; }

}  // namespace dstage::obs
