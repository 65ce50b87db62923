// Workflow specification and run metrics — the library's top-level public
// API. A WorkflowSpec describes the coupled components, the staging fabric,
// the fault-tolerance scheme, and the failure plan; WorkflowRunner (see
// executor.hpp) executes it and returns RunMetrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/pfs.hpp"
#include "core/cost_model.hpp"
#include "net/fabric.hpp"
#include "obs/config.hpp"
#include "staging/memory_governor.hpp"
#include "staging/server.hpp"
#include "util/geometry.hpp"
#include "util/stats.hpp"

namespace dstage::core {

/// Workflow-level fault-tolerance scheme (the paper's Ds/Co/Un/In/Hy).
enum class Scheme {
  kNone,           // Ds: plain staging, no fault tolerance
  kCoordinated,    // Co: global coordinated checkpoint/restart
  kUncoordinated,  // Un: per-component C/R + data logging
  kIndividual,     // In: per-component C/R, no logging (lower bound,
                   //     sacrifices correctness)
  kHybrid,         // Hy: C/R + data logging, replication where declared
};

const char* scheme_name(Scheme s);

/// Per-component fault-tolerance method (meaningful under kHybrid;
/// kCheckpointRestart elsewhere).
enum class FtMethod { kCheckpointRestart, kReplication };

/// One coupled variable written by a component each timestep.
struct CouplingWrite {
  std::string var;
  /// Fraction of the global domain written (Case 1 sweeps 0.2 .. 1.0).
  double subset_fraction = 1.0;
};

/// One coupled variable read by a component.
struct CouplingRead {
  std::string var;
  double subset_fraction = 1.0;
  /// Temporal frequency: read every `every` timesteps (S3D analyses run at
  /// different temporal frequencies).
  int every = 1;
};

struct ComponentSpec {
  std::string name;
  int cores = 1;
  double compute_per_ts_s = 1.0;
  /// Checkpoint period in timesteps (per-component under Un/In/Hy). With
  /// the checkpoint hierarchy off (CkptSpec) each checkpoint is one
  /// synchronous PFS write that survives node loss; with it on, each is a
  /// node-local cache set that the drain agent makes durable.
  int ckpt_period = 4;
  FtMethod method = FtMethod::kCheckpointRestart;
  std::vector<CouplingWrite> writes;
  std::vector<CouplingRead> reads;
  /// Owning tenant (multi-tenant staging). 0 — the default — is the classic
  /// single-workflow tenant whose staging keys are unprefixed, so existing
  /// specs and the golden digests are untouched. Stamped by
  /// expand_tenants(); appended last so positional initializers compile.
  int tenant = 0;
};

/// One hand-specified failure. Used by the consistency campaign and its
/// shrinker, which need full control over the schedule (dropping a single
/// failure or bisecting its time must not re-shuffle the rest, which any
/// seed-drawn plan would).
struct ExplicitFailure {
  int comp = 0;             // index into WorkflowSpec::components
  int ts = 1;               // timestep the failure strikes
  double phase = 0.5;       // fraction of the timestep's compute before death;
                            // < 0 means predictor false alarm (no kill)
  bool node_level = false;  // node failure: its cached ckpt blocks are lost
  bool predicted = false;   // the failure predictor flagged it in advance

  friend bool operator==(const ExplicitFailure&,
                         const ExplicitFailure&) = default;
};

struct FailurePlan {
  /// Exactly this many failures, uniformly placed in the run window.
  int count = 0;
  /// When > 0 and count == 0, draw failures from an exponential
  /// inter-arrival process with this MTBF instead (Table III's rows).
  double mtbf_s = 0;
  /// When non-empty, use exactly these failures and ignore the randomized
  /// planner (count/mtbf_s) entirely.
  std::vector<ExplicitFailure> explicit_failures;
  std::uint64_t seed = 1;
  /// Fraction of failures that take the whole node down (the checkpoint
  /// hierarchy's cached blocks on it are lost); the rest are process
  /// failures.
  double node_failure_fraction = 0.2;
  /// Proactive checkpointing (the paper's future-work direction, after
  /// Bouguerra et al. [15]): a failure predictor flags this fraction of
  /// failures ahead of time; the doomed component takes an emergency
  /// checkpoint just before dying, shrinking rework to the interrupted
  /// timestep. 0 disables prediction.
  double predictor_recall = 0;
  /// False alarms per run: emergency checkpoints taken with no failure
  /// following (the precision cost of the predictor).
  int predictor_false_alarms = 0;
};

/// One scheduled membership change: at the start of timestep `ts`, either
/// admit a standby into the staging group (join) or retire an active
/// server. `server` == -1 lets the GroupManager pick (lowest standby /
/// highest active).
struct ElasticEvent {
  int ts = 1;
  bool join = true;
  int server = -1;

  friend bool operator==(const ElasticEvent&, const ElasticEvent&) = default;
};

/// Elastic staging-group configuration. Inert by default: with no standbys
/// and no events the runtime builds the classic fixed group and the golden
/// digests are byte-identical.
struct ElasticSpec {
  /// Extra servers built alongside the group but not initially active;
  /// JoinGroup events admit them.
  int standby_servers = 0;
  /// Serve reads by reconstructing redundancy fragments when a fragment
  /// owner is down or mid-resilver (requires a redundancy policy).
  bool degraded_reads = false;
  /// Membership changes, fired at the named timesteps in spec order.
  std::vector<ElasticEvent> events;

  [[nodiscard]] bool enabled() const {
    return standby_servers > 0 || degraded_reads || !events.empty();
  }
};

/// Multi-level checkpoint hierarchy (DESIGN.md §12): node-local cache,
/// XOR-encoded partner redundancy, and an asynchronous background drain to
/// the PFS. Its cache is the only node-local checkpoint storage. Inert by
/// default (xor_group == 0): every checkpoint, periodic or emergency, is
/// then one synchronous PFS write and the golden digests are
/// byte-identical.
struct CkptSpec {
  /// XOR partner-group size (numbers of peers sharing one parity block).
  /// 0 disables the hierarchy; enabled values must lie in [2, 16]. A single
  /// node loss inside a group is rebuilt from the survivors + parity; two
  /// losses degrade loudly to the PFS level.
  int xor_group = 0;
  /// Vaidya-style adaptive checkpoint interval (SCR_Need_checkpoint):
  /// period = sqrt(2 * ckpt_cost * MTBF) instead of the fixed
  /// ckpt_period. Falls back to the fixed period when failure statistics
  /// are absent (mtbf_s == 0).
  bool adaptive_interval = false;

  [[nodiscard]] bool hierarchy_enabled() const { return xor_group >= 2; }
};

/// Multi-tenant staging (DESIGN.md §13): run `tenants` independent copies
/// of the component graph against ONE shared cluster, staging group, DHT
/// and spill gateway. Every copy's staging keys are namespaced by tenant
/// (staging/tenant.hpp), its coordinated barriers are tenant-private, and
/// rollback/GC are tenant-scoped — tenant A's failures must never truncate
/// or roll back tenant B's data. Inert by default (tenants == 1): the
/// component list is untouched and the golden digests are byte-identical.
struct TenancySpec {
  /// Number of co-located workflow instances sharing the staging group.
  /// 1 (the default) disables expansion entirely.
  int tenants = 1;
  /// Weighted fair-share memory QoS: tenant -> weight, forwarded to the
  /// memory governor when `fair_share` is set. Empty with fair_share on
  /// means equal weights for every tenant (filled in by expand_tenants()).
  std::map<int, double> weights;
  /// Arm per-tenant governor shares (requires staging.memory_budget > 0 to
  /// have any effect). Off: tenants compete for the pooled watermark.
  bool fair_share = false;
  /// Set by expand_tenants() once components have been cloned and stamped;
  /// guards against double expansion when a caller pre-expands the spec.
  bool expanded = false;

  [[nodiscard]] bool enabled() const { return tenants > 1; }
};

/// Write-log payload codec (DESIGN.md §14): LZ block compression plus
/// XOR-delta encoding of successive versions of the same region, applied
/// at log-retain time and decoded transparently on every read path.
/// Inert by default (codec == kNone): payloads are retained raw and the
/// golden-trace digests are byte-identical.
struct WlogSpec {
  wlog::codec::Scheme codec = wlog::codec::Scheme::kNone;

  [[nodiscard]] bool enabled() const {
    return codec != wlog::codec::Scheme::kNone;
  }
};

struct WorkflowSpec {
  Box domain = Box::from_dims(512, 512, 256);
  double bytes_per_point = 8.0;
  std::uint64_t mem_scale = 65536;
  int total_ts = 40;
  int staging_servers = 4;
  int staging_cores = 32;  // reported, and used for victim weighting context
  Scheme scheme = Scheme::kUncoordinated;
  /// Global period under kCoordinated.
  int coordinated_period = 4;
  std::vector<ComponentSpec> components;
  FailurePlan failures;
  CostModel costs;
  net::Fabric::Params fabric;
  cluster::Pfs::Params pfs;
  staging::ServerParams server;  // `logging` is overridden by the scheme
  /// Memory governor for the staging service: per-server budget covering
  /// object store + data log + event-queue metadata, with soft-watermark
  /// spill-to-PFS and hard-watermark client backpressure. Disabled by
  /// default (memory_budget = 0): golden-trace digests are recorded with
  /// unbounded staging memory.
  staging::GovernorParams staging;
  /// DHT grid resolution.
  int cells_per_axis = 8;
  /// Cross-layer observability (metrics registry + span tracing). Off by
  /// default: golden-trace digests are recorded without it.
  obs::ObsConfig obs;
  /// Always-on flight-recorder rings (bounded per-track event rings for
  /// failure forensics). Digest-invisible: no vprocs, no virtual-time
  /// cost, no trace records, no randomness.
  obs::RecorderConfig recorder;
  /// Elastic staging group (standbys, membership events, degraded reads).
  /// Inert by default: golden-trace digests are recorded with a fixed
  /// group.
  ElasticSpec elastic;
  /// Multi-level checkpoint hierarchy + async PFS drain. Inert by default:
  /// golden-trace digests are recorded with classic synchronous
  /// checkpoints.
  CkptSpec ckpt;
  /// Multi-tenant staging (N workflow instances sharing this cluster).
  /// Inert by default (tenants == 1): golden-trace digests are recorded
  /// single-tenant.
  TenancySpec tenancy;
  /// Write-log payload codec (compression + delta encoding). Inert by
  /// default (kNone): golden-trace digests are recorded with raw payload
  /// retention.
  WlogSpec wlog;

  /// Reject malformed specs before the runtime is assembled. Throws
  /// std::invalid_argument with a message naming the offending field (and
  /// component, where applicable). Called by RuntimeBuilder::build().
  void validate() const;
};

/// True when the scheme logs data/events in staging.
bool scheme_uses_logging(Scheme s);

struct ComponentMetrics {
  std::string name;
  double completion_time_s = 0;
  int timesteps_done = 0;
  int timesteps_reworked = 0;  // re-executed after rollbacks
  int failures = 0;
  int checkpoints = 0;       // periodic synchronous PFS checkpoints
  int local_checkpoints = 0; // checkpoint-hierarchy cache sets
  int proactive_checkpoints = 0;
  SampleSet put_response_s;
  SampleSet get_response_s;
  double cum_put_response_s = 0;
  double cum_get_response_s = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t suppressed_puts = 0;
  int wrong_version_reads = 0;  // Fig.-2 case-1 anomalies observed
  int corrupt_reads = 0;
  /// Virtual time this component spent blocked on checkpoint I/O (the
  /// stall the async drain is built to collapse). Accumulated by every
  /// checkpoint path, hierarchy on or off.
  double ckpt_stall_s = 0;
};

struct StagingMetrics {
  std::uint64_t store_bytes_peak = 0;       // summed over servers
  std::uint64_t total_bytes_peak = 0;       // MemoryReport::total()
  double total_bytes_mean = 0;
  std::uint64_t log_payload_bytes_peak = 0;  // summed over servers
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts_suppressed = 0;
  std::uint64_t gets_from_log = 0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t gc_versions_dropped = 0;
  // Memory-governor counters (all zero when the governor is disabled).
  std::uint64_t spilled_versions = 0;    // log versions evicted to the PFS
  std::uint64_t spilled_bytes = 0;       // nominal bytes evicted
  std::uint64_t spill_fetches = 0;       // spilled versions faulted back in
  std::uint64_t spill_fetch_bytes = 0;
  std::uint64_t spills_aborted = 0;      // evictions raced by GC/rollback
  std::uint64_t urgent_gc_sweeps = 0;    // soft-watermark sweeps
  std::uint64_t puts_rejected = 0;       // hard-watermark RetryLater bounces
  std::uint64_t governor_overruns = 0;   // single puts larger than the budget
  // Elastic-membership counters (all zero with elasticity off).
  std::uint64_t membership_epoch = 0;     // final epoch of the run
  std::uint64_t membership_joins = 0;     // servers admitted mid-run
  std::uint64_t membership_retires = 0;   // servers drained + retired
  std::uint64_t resilver_chunks_moved = 0;
  std::uint64_t resilver_bytes_moved = 0;
  double resilver_time_s = 0;             // wall-clock spent moving data
  std::uint64_t wrong_epoch_rejects = 0;  // stale-view requests bounced
  std::uint64_t degraded_reads = 0;       // pieces reconstructed from
                                          // fragments on the get path
  // Write-log codec counters (all zero with the codec off).
  std::uint64_t codec_raw_bytes = 0;     // nominal bytes presented to encode
  std::uint64_t codec_stored_bytes = 0;  // nominal-scale bytes after encode
  std::uint64_t codec_blocks = 0;        // payload blocks encoded
  std::uint64_t codec_delta_blocks = 0;  // encoded against a prior version
  // Multi-tenant counters.
  std::uint64_t fair_share_rejects = 0;   // puts bounced by a tenant share
  /// Per-tenant peak nominal store bytes, summed over servers — what the
  /// fair-share adherence check in bench/fig_multitenant compares against
  /// each tenant's configured share. Single-tenant runs have one entry
  /// (tenant 0).
  std::map<int, std::uint64_t> tenant_store_bytes_peak;
};

/// Multi-level checkpoint hierarchy counters (all zero with the hierarchy
/// off).
struct CkptMetrics {
  std::uint64_t sets_written = 0;      // level-0 cache writes
  std::uint64_t sets_encoded = 0;      // parity distributions completed
  std::uint64_t drains_completed = 0;  // sets flushed durable to the PFS
  std::uint64_t drain_bytes = 0;       // nominal bytes the drain flushed
  std::uint64_t pressure_stalls = 0;   // drain backoffs under governor load
  std::uint64_t drain_promotions = 0;  // CkptDrainAck applied at servers
  std::uint64_t cache_restarts = 0;    // restarts served from level 0
  std::uint64_t partner_rebuilds = 0;  // restarts served by XOR rebuild
  std::uint64_t pfs_restarts = 0;      // restarts that fell through to PFS
  std::uint64_t cache_evictions = 0;   // superseded sets dropped post-drain
  std::uint64_t blocks_lost = 0;       // cached blocks wiped by node loss
};

struct RunMetrics {
  Scheme scheme = Scheme::kNone;
  double total_time_s = 0;
  int failures_injected = 0;
  std::vector<ComponentMetrics> components;
  StagingMetrics staging;
  CkptMetrics ckpt;
  std::uint64_t pfs_bytes_written = 0;
  std::uint64_t pfs_bytes_read = 0;
  std::uint64_t events_processed = 0;
  /// Vprocs the run was built with (staging servers + component actors +
  /// control/agent processes) — the fig10 ceiling sweep's x axis.
  int vprocs = 0;
  /// Fabric totals (messages/bytes across all traffic classes).
  std::uint64_t fabric_packets = 0;
  std::uint64_t fabric_bytes = 0;
  /// Client-side transport counters summed over component clients.
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_exhausted = 0;
  /// Backpressure pauses honored by component clients: RetryLater bounces
  /// their transport waited out before re-sending the request.
  std::uint64_t rpc_backpressure_waits = 0;

  [[nodiscard]] const ComponentMetrics& component(
      const std::string& name) const;
  [[nodiscard]] int total_anomalies() const;
  /// Producer-side cumulative write response (Fig. 9a/9b metric).
  [[nodiscard]] double cum_write_response_s() const;
};

}  // namespace dstage::core
