// The closed wire vocabulary of the staging service. Every packet the
// fabric carries is one alternative of net::Message, so endpoint dispatch
// is an exhaustive std::visit and the modeled serialized size of every
// message (and every response) is computed in exactly one place: the
// wire_size() codec below. Callers never supply byte counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/reply.hpp"
#include "util/geometry.hpp"

namespace dstage::net {

using AppId = int;
using Version = std::uint32_t;
/// Workflow tenant sharing the staging fabric. Tenant 0 is the implicit
/// single-tenant default: every message constructed without an explicit
/// tenant belongs to it, so single-tenant wire traffic is byte-identical
/// to the pre-multi-tenant protocol (the tenant field never contributes
/// to wire_size()).
using TenantId = int;

/// Geometric descriptor: a named, versioned region of the global domain.
struct ObjectDesc {
  std::string var;
  Version version = 0;
  Box region;

  friend bool operator==(const ObjectDesc&, const ObjectDesc&) = default;
};

/// A stored piece of an object. `data` holds real bytes scaled down by the
/// configured mem_scale; `nominal_bytes` is the unscaled size used by all
/// virtual-time cost models and accounting.
struct Chunk {
  std::string var;
  Version version = 0;
  Box region;  // source region this piece covers
  std::uint64_t nominal_bytes = 0;
  /// Paper-scale size of the *stored* representation when the payload is
  /// codec-encoded (wlog compression/delta); 0 means "stored raw", i.e.
  /// same as nominal_bytes. nominal_bytes always describes the raw object,
  /// so read-side cost models and the consistency oracle see unchanged
  /// sizes, while accounting and payload-bearing wire traffic charge the
  /// encoded footprint.
  std::uint64_t stored_bytes = 0;
  std::uint64_t content_key = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> data;

  [[nodiscard]] std::uint64_t physical_bytes() const {
    return data ? data->size() : 0;
  }
  /// Paper-scale bytes this chunk occupies as stored/transferred: the
  /// encoded size when the codec shrank it, the nominal size otherwise.
  [[nodiscard]] std::uint64_t accounted_bytes() const {
    return stored_bytes != 0 ? stored_bytes : nominal_bytes;
  }
};

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

struct PutResponse {
  bool applied = false;     // false when suppressed as a replayed duplicate
  bool suppressed = false;  // true when recognized from the replay script
  /// Memory-governor backpressure: the server is above its hard watermark
  /// and refused admission. The put left no trace (no event logged, no
  /// bytes stored); the client must back off and re-send.
  bool retry_later = false;
  /// Elastic membership: the addressed server no longer owns the chunk's
  /// region (the client placed against a stale epoch). Nothing was
  /// applied; the client must refresh its membership view and re-place.
  bool wrong_epoch = false;
  std::uint64_t epoch = 0;  // server's epoch when it rejected
};

struct GetResponse {
  bool found = false;
  std::vector<Chunk> pieces;
  /// True when the pieces were resolved from the data log (replay mode)
  /// rather than the live store.
  bool from_log = false;
  /// Elastic membership: region not owned here anymore — refresh the
  /// placement view and re-issue (see PutResponse::wrong_epoch).
  bool wrong_epoch = false;
  std::uint64_t epoch = 0;
};

struct CheckpointAck {
  std::uint64_t chk_id = 0;
};

struct RecoveryAck {
  /// Number of logged events the server will replay for this app.
  std::size_t replay_events = 0;
};

struct RollbackAck {
  std::size_t versions_dropped = 0;
};

/// Metadata query: which versions of `var` does this server hold?
struct QueryResponse {
  std::vector<Version> store_versions;   // base-store window
  std::vector<Version> logged_versions;  // data-log retention
};

// ---------------------------------------------------------------------------
// Client → server messages. Every request carries the issuing app and a
// Reply the server fulfills after paying response transport costs; the
// transport (net::Rpc) fills reply_to/reply, so application code only
// supplies the payload fields.
// ---------------------------------------------------------------------------

struct PutRequest {
  using Response = PutResponse;
  AppId app = -1;
  Chunk chunk;
  bool logged = false;
  EndpointId reply_to = -1;
  ReplyPtr<PutResponse> reply;
  TenantId tenant = 0;
};

struct GetRequest {
  using Response = GetResponse;
  AppId app = -1;
  ObjectDesc desc;
  bool logged = false;
  EndpointId reply_to = -1;
  ReplyPtr<GetResponse> reply;
  TenantId tenant = 0;
};

/// workflow_check(): a checkpoint event for `app`; the server assigns and
/// records a W_Chk_ID and truncates the app's queue (GC).
struct CheckpointEvent {
  using Response = CheckpointAck;
  AppId app = -1;
  Version version = 0;  // app's timestep at the checkpoint
  EndpointId reply_to = -1;
  ReplyPtr<CheckpointAck> reply;
  // A checkpoint marker plays two roles: it anchors the app's replay
  // script (valid for every checkpoint level) and it advances the GC
  // watermark (only sound for a checkpoint that survives the worst
  // failure the app can suffer). A checkpoint-hierarchy cache set can be
  // lost to node failures before it drains, and that recovery falls back
  // to an older durable checkpoint — announcing the set as durable would
  // let GC reclaim logged versions the fallback restart still has to
  // replay. Only its drain's CkptDrainAck makes it durable.
  bool durable = true;
  TenantId tenant = 0;
};

/// workflow_restart(): app recovered from its latest checkpoint and
/// re-attached; the server switches the app's queue into replay mode.
struct RecoveryEvent {
  using Response = RecoveryAck;
  AppId app = -1;
  Version restored_version = 0;
  EndpointId reply_to = -1;
  ReplyPtr<RecoveryAck> reply;
  TenantId tenant = 0;
};

/// Coordinated-restart support: discard every version newer than
/// `version` so the staging state matches the global snapshot. `tenant`
/// scopes the rollback to one tenant's keys and queues; -1 (the
/// single-tenant default) rolls back everything.
struct RollbackRequest {
  using Response = RollbackAck;
  Version version = 0;
  EndpointId reply_to = -1;
  ReplyPtr<RollbackAck> reply;
  TenantId tenant = -1;
};

// ---------------------------------------------------------------------------
// Inter-server resilience traffic (CoREC-style). Every staged (and logged)
// payload is protected by redundancy fragments pushed to peer servers, so
// a reader can reconstruct a lost server's pieces from its peers.
// ---------------------------------------------------------------------------

/// One-way: a redundancy fragment (full replica or RS shard) pushed by the
/// owning server to a peer.
struct FragmentPut {
  int owner = -1;  // staging server index that owns the object
  std::string var;
  Version version = 0;
  Box region;          // the owner's chunk region
  int frag_index = 0;  // 1 .. fragments-1 (the owner's payload is index 0)
  std::uint64_t nominal_bytes = 0;    // paper-scale share for accounting
  std::size_t original_physical = 0;  // owner chunk's physical byte count
  std::uint64_t content_key = 0;      // source chunk key, for verification
  bool logged = false;                // restore into the data log too
  std::shared_ptr<const std::vector<std::uint8_t>> data;  // fragment bytes
};

/// One-way: owner → peers, reclaim fragments of versions <= `upto`.
struct FragmentPrune {
  int owner = -1;
  std::string var;
  Version upto = 0;
};

struct QueryRequest {
  using Response = QueryResponse;
  std::string var;
  EndpointId reply_to = -1;
  ReplyPtr<QueryResponse> reply;
  TenantId tenant = 0;
};

// ---------------------------------------------------------------------------
// Memory-governor spill traffic (staging server ↔ PFS spill gateway). When a
// server crosses its soft memory watermark it evicts cold, reclaim-ineligible
// log versions to the parallel file system; the gateway pays the PFS cost
// model and retains the chunks until the owner prunes them (GC watermark
// advance or rollback). Replay-path gets fault spilled payloads back in.
// ---------------------------------------------------------------------------

struct SpillAck {
  bool ok = false;
};

/// Server → gateway: persist one evicted log chunk on the PFS.
struct SpillPut {
  using Response = SpillAck;
  int owner = -1;  // staging server index that evicted the chunk
  Chunk chunk;
  EndpointId reply_to = -1;
  ReplyPtr<SpillAck> reply;
};

struct SpillFetchResponse {
  std::vector<Chunk> chunks;
};

/// Server → gateway: read the spilled chunks of one (var, version) back,
/// paying the PFS read cost.
struct SpillFetch {
  using Response = SpillFetchResponse;
  int owner = -1;
  std::string var;
  Version version = 0;
  EndpointId reply_to = -1;
  ReplyPtr<SpillFetchResponse> reply;
};

/// One-way, server → gateway: reclaim spilled versions of `var` that are
/// <= `upto` (GC watermark advance) or, with `above` set, > `upto`
/// (rollback).
struct SpillPrune {
  int owner = -1;
  std::string var;
  Version upto = 0;
  bool above = false;
  /// Rollback scoping: with `above` set, -1 prunes every tenant's spilled
  /// versions (single-tenant rollback); >= 0 prunes only keys whose
  /// tenant prefix matches.
  TenantId tenant = -1;
};

// ---------------------------------------------------------------------------
// Elastic group membership (client/tool ↔ GroupManager ↔ servers). The
// membership view is epoch-versioned: control verbs change it, servers and
// clients learn the new epoch via MembershipUpdate / wrong_epoch rejects,
// and the resilver traffic below moves only the cells whose owner changed.
// ---------------------------------------------------------------------------

struct GroupChangeAck {
  bool ok = false;
  std::uint64_t epoch = 0;  // epoch after the change (or current on reject)
  int server = -1;          // the server that joined/retired
};

/// Admit a standby server into the staging group. `server` == -1 lets the
/// GroupManager pick the lowest-numbered standby.
struct JoinGroup {
  using Response = GroupChangeAck;
  int server = -1;
  EndpointId reply_to = -1;
  ReplyPtr<GroupChangeAck> reply;
};

/// Retire an active server: its cells are drained to the survivors before
/// the ack fires; the retiree stays up as a warm standby.
struct RetireServer {
  using Response = GroupChangeAck;
  int server = -1;  // -1 picks the highest-numbered active server
  EndpointId reply_to = -1;
  ReplyPtr<GroupChangeAck> reply;
};

/// One-way, GroupManager → server: the authoritative membership view for
/// `epoch`. Servers use it to re-aim redundancy (fragment round-robin,
/// prune fan-out) at the active set only.
struct MembershipUpdate {
  std::uint64_t epoch = 0;
  std::vector<int> active;  // ascending server ids
};

struct MembershipInfo {
  std::uint64_t epoch = 0;
  std::vector<int> active;
};

/// Client → GroupManager: fetch the current membership view (issued after
/// a wrong_epoch reject before re-placing).
struct MembershipQuery {
  using Response = MembershipInfo;
  EndpointId reply_to = -1;
  ReplyPtr<MembershipInfo> reply;
};

struct FragmentFetchResponse {
  std::vector<FragmentPut> fragments;
};

/// Degraded read support: fetch whatever redundancy fragments the
/// addressed peer holds for (`owner`, `var`, `version`) so the reader can
/// reconstruct without waiting for the owner's recovery.
struct FragmentFetch {
  using Response = FragmentFetchResponse;
  int owner = -1;
  std::string var;
  Version version = 0;
  EndpointId reply_to = -1;
  ReplyPtr<FragmentFetchResponse> reply;
};

struct ResilverAck {
  bool ok = false;
  /// Destination governor pressure (governed footprint / soft watermark);
  /// sources back off above 1.0 so resilver yields to foreground puts.
  double pressure = 0;
};

/// Resilver transfer: old owner → new owner, one store/log chunk whose
/// cell changed hands. Acknowledged so the source only drops its copy
/// once the destination has durably applied it.
struct ResilverPut {
  using Response = ResilverAck;
  int from = -1;  // source staging server index
  Chunk chunk;
  bool logged = false;    // retain in the destination's data log
  bool in_store = true;   // install in the destination's window
  EndpointId reply_to = -1;
  ReplyPtr<ResilverAck> reply;
};

// ---------------------------------------------------------------------------
// Multi-level checkpoint traffic (component client ↔ ckpt::DrainAgent ↔
// staging servers). The hierarchy itself lives in ckpt::CheckpointHierarchy;
// these verbs announce level transitions: a set cached node-locally, its XOR
// parity distributed to the partner group, and — once the async drain's PFS
// flush lands — the durable promotion that lets the GC watermark advance.
// ---------------------------------------------------------------------------

/// One-way, client → drain agent: a checkpoint set was written to the
/// node-local cache (level 1). Bookkeeping only — the hierarchy state was
/// updated synchronously by the scheme layer, so restart correctness never
/// depends on this message's delivery.
struct CkptStoreLocal {
  AppId app = -1;
  Version version = 0;  // app's timestep at the checkpoint
};

/// One-way, client → drain agent: distribute the set's XOR parity share to
/// the partner group (level 2) and make the set eligible for draining.
/// Carries the parity share's nominal bytes so the transfer is charged at
/// paper scale.
struct CkptXorShard {
  AppId app = -1;
  Version version = 0;
  std::uint64_t nominal_bytes = 0;  // parity share = state bytes / group
};

/// One-way, drain agent → every staging server: the set's PFS flush
/// completed (level 3). The durable promotion: servers treat it exactly
/// like a durable CheckpointEvent for GC purposes — advance the watermark,
/// sweep, prune spilled and peer fragments.
struct CkptDrainAck {
  AppId app = -1;
  Version version = 0;
};

/// Any fabric message (std::variant keeps dispatch exhaustive). Dispatch
/// goes through std::visit only: nothing depends on variant indices.
using Message =
    std::variant<PutRequest, GetRequest, CheckpointEvent, RecoveryEvent,
                 RollbackRequest, FragmentPut, FragmentPrune, QueryRequest,
                 SpillPut, SpillFetch, SpillPrune, JoinGroup, RetireServer,
                 MembershipUpdate, MembershipQuery, FragmentFetch,
                 ResilverPut, CkptStoreLocal, CkptXorShard, CkptDrainAck>;

// ---------------------------------------------------------------------------
// Codec: the modeled serialized footprint of every message and response.
// Descriptor-only messages cost 64 B (a verbs work request with an inline
// header); requests that name an object cost 128 B; payload-bearing
// messages add their nominal bytes. These constants are load-bearing:
// the Table II golden-trace digests are recorded against them.
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t wire_size(const PutRequest& m);
[[nodiscard]] std::uint64_t wire_size(const GetRequest& m);
[[nodiscard]] std::uint64_t wire_size(const CheckpointEvent& m);
[[nodiscard]] std::uint64_t wire_size(const RecoveryEvent& m);
[[nodiscard]] std::uint64_t wire_size(const RollbackRequest& m);
[[nodiscard]] std::uint64_t wire_size(const FragmentPut& m);
[[nodiscard]] std::uint64_t wire_size(const FragmentPrune& m);
[[nodiscard]] std::uint64_t wire_size(const QueryRequest& m);
[[nodiscard]] std::uint64_t wire_size(const SpillPut& m);
[[nodiscard]] std::uint64_t wire_size(const SpillFetch& m);
[[nodiscard]] std::uint64_t wire_size(const SpillPrune& m);
[[nodiscard]] std::uint64_t wire_size(const JoinGroup& m);
[[nodiscard]] std::uint64_t wire_size(const RetireServer& m);
[[nodiscard]] std::uint64_t wire_size(const MembershipUpdate& m);
[[nodiscard]] std::uint64_t wire_size(const MembershipQuery& m);
[[nodiscard]] std::uint64_t wire_size(const FragmentFetch& m);
[[nodiscard]] std::uint64_t wire_size(const ResilverPut& m);
[[nodiscard]] std::uint64_t wire_size(const CkptStoreLocal& m);
[[nodiscard]] std::uint64_t wire_size(const CkptXorShard& m);
[[nodiscard]] std::uint64_t wire_size(const CkptDrainAck& m);

[[nodiscard]] std::uint64_t wire_size(const PutResponse& m);
[[nodiscard]] std::uint64_t wire_size(const GetResponse& m);
[[nodiscard]] std::uint64_t wire_size(const CheckpointAck& m);
[[nodiscard]] std::uint64_t wire_size(const RecoveryAck& m);
[[nodiscard]] std::uint64_t wire_size(const RollbackAck& m);
[[nodiscard]] std::uint64_t wire_size(const QueryResponse& m);
[[nodiscard]] std::uint64_t wire_size(const SpillAck& m);
[[nodiscard]] std::uint64_t wire_size(const SpillFetchResponse& m);
[[nodiscard]] std::uint64_t wire_size(const GroupChangeAck& m);
[[nodiscard]] std::uint64_t wire_size(const MembershipInfo& m);
[[nodiscard]] std::uint64_t wire_size(const FragmentFetchResponse& m);
[[nodiscard]] std::uint64_t wire_size(const ResilverAck& m);

/// Serialized size of any message — what the fabric charges a send.
[[nodiscard]] std::uint64_t serialized_size(const Message& m);

/// Stable short name for tracing/metrics, per alternative.
[[nodiscard]] const char* message_name(const PutRequest&);
[[nodiscard]] const char* message_name(const GetRequest&);
[[nodiscard]] const char* message_name(const CheckpointEvent&);
[[nodiscard]] const char* message_name(const RecoveryEvent&);
[[nodiscard]] const char* message_name(const RollbackRequest&);
[[nodiscard]] const char* message_name(const FragmentPut&);
[[nodiscard]] const char* message_name(const FragmentPrune&);
[[nodiscard]] const char* message_name(const QueryRequest&);
[[nodiscard]] const char* message_name(const SpillPut&);
[[nodiscard]] const char* message_name(const SpillFetch&);
[[nodiscard]] const char* message_name(const SpillPrune&);
[[nodiscard]] const char* message_name(const JoinGroup&);
[[nodiscard]] const char* message_name(const RetireServer&);
[[nodiscard]] const char* message_name(const MembershipUpdate&);
[[nodiscard]] const char* message_name(const MembershipQuery&);
[[nodiscard]] const char* message_name(const FragmentFetch&);
[[nodiscard]] const char* message_name(const ResilverPut&);
[[nodiscard]] const char* message_name(const CkptStoreLocal&);
[[nodiscard]] const char* message_name(const CkptXorShard&);
[[nodiscard]] const char* message_name(const CkptDrainAck&);
[[nodiscard]] const char* message_name(const Message& m);

}  // namespace dstage::net
