// Golden trace-fingerprint regression test. The digests below were captured
// from the pre-refactor WorkflowRunner on the Table II presets (40 ts,
// dstage_cli defaults: node_failure_fraction 0.2) across all schemes and
// three failure seeds, plus the failure-free and the multi-level/proactive
// extension configurations. Any behavioral drift in the runtime, scheme
// policies, or recovery pipeline changes a digest; these values must only
// ever be updated for an intentional, explained semantic change.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/schedule.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"

namespace dstage::core {
namespace {

struct Golden {
  Scheme scheme;
  int failures;
  std::uint64_t seed;
  std::uint64_t digest;
};

// The three Co failure digests updated (were 0xba25ef72a474a18b,
// 0xe405ac115efeeab2, 0xab68c19fd7602e2b) for an intentional change:
// failover and coordinated restarts now trace their recovery. A
// coordinated rollback emits recovery-start/recovery-done on the
// "workflow" track, so the consistency oracle checks their balance from
// the trace instead of from a probe of its own; nothing else in the run
// moved. Hy's failovers strike only its checkpointed simulation here, so
// its digests hold.
constexpr Golden kGolden[] = {
    {Scheme::kCoordinated, 2, 1, 0x4073f2de068e38b1ull},
    {Scheme::kCoordinated, 2, 2, 0xa2c7be200368d4d2ull},
    {Scheme::kCoordinated, 2, 3, 0x6047366c660882e9ull},
    {Scheme::kUncoordinated, 2, 1, 0x9f4f954ecec58cfbull},
    {Scheme::kUncoordinated, 2, 2, 0x56fc10ffb64783b9ull},
    {Scheme::kUncoordinated, 2, 3, 0x3728dcd7bfe64794ull},
    {Scheme::kHybrid, 2, 1, 0x30dbf21780b1000eull},
    {Scheme::kHybrid, 2, 2, 0xb75b72c3e6583dcfull},
    {Scheme::kHybrid, 2, 3, 0xcd2db6b7b8dc694cull},
    {Scheme::kIndividual, 2, 1, 0x5d133bf32f9d9ff8ull},
    {Scheme::kIndividual, 2, 2, 0xf88ce33b3fe6f00cull},
    {Scheme::kIndividual, 2, 3, 0x04976d8ecbbc8a21ull},
    {Scheme::kCoordinated, 0, 1, 0xdb784046d757071bull},
    {Scheme::kNone, 0, 1, 0xe2da97408d9fc49dull},
};

WorkflowSpec golden_spec(Scheme scheme, int failures, std::uint64_t seed) {
  WorkflowSpec spec = table2_setup(scheme);
  spec.failures.count = failures;
  spec.failures.seed = seed;
  spec.failures.node_failure_fraction = 0.2;
  return spec;
}

TEST(GoldenTraceTest, Table2PresetDigestsAreStable) {
  for (const Golden& g : kGolden) {
    WorkflowRunner runner(golden_spec(g.scheme, g.failures, g.seed));
    runner.run();
    EXPECT_EQ(runner.trace().digest(), g.digest)
        << scheme_name(g.scheme) << " failures=" << g.failures
        << " seed=" << g.seed;
  }
}

// The multi-level + proactive extension path (local checkpoints every
// timestep, perfect predictor) exercises emergency checkpoints, local
// restore, and the local/PFS retention split.
//
// Digest updated (was 0x4d553f5cdc60dda3) for an intentional semantic
// change: node-local and emergency checkpoints no longer advance the
// staging GC watermark. The consistency oracle caught the old behavior
// reclaiming logged versions that a node-failure fallback to the PFS
// checkpoint still had to replay, deadlocking the replaying consumer.
// Non-durable checkpoints still record a replay-anchor marker, but the
// GC sweep (and its simulated latency) now only runs on PFS-level
// checkpoints, shifting this config's timing.
// Table III drives the same presets with an exponential (MTBF) failure
// process instead of a fixed count. Pin the Individual and Hybrid traces
// under plan_mtbf-driven injection for two Table III rows, so drift in the
// MTBF planner (arrival sampling, victim weighting, truncation) is caught
// the same way plan_uniform drift is.
TEST(GoldenTraceTest, MtbfPlanDigestsAreStable) {
  struct Case {
    Scheme scheme;
    double mtbf_s;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {Scheme::kIndividual, 600.0, 0x87f786d78cc2e74bull},
      {Scheme::kIndividual, 300.0, 0x7b0ff692690fdd97ull},
      {Scheme::kHybrid, 600.0, 0x95ad24d8804c11f9ull},
      {Scheme::kHybrid, 300.0, 0x7bad9a3fe948b954ull},
  };
  for (const Case& c : cases) {
    WorkflowSpec spec = golden_spec(c.scheme, 0, 1);
    spec.failures.mtbf_s = c.mtbf_s;
    WorkflowRunner runner(spec);
    runner.run();
    EXPECT_EQ(runner.trace().digest(), c.digest)
        << scheme_name(c.scheme) << " mtbf_s=" << c.mtbf_s;
  }
}

// The checkpoint hierarchy (a set every timestep, XOR groups of two) with
// a perfect failure predictor, so both extensions' checkpoints are in the
// trace.
//
// Re-expressed and re-pinned (was 0xa2c3d910effd8315ull, a node-local
// checkpoint every timestep with the hierarchy off) for an intentional
// change: the hierarchy's cache is now the only node-local checkpoint
// level, so this configuration reaches it through CkptSpec instead.
TEST(GoldenTraceTest, ExtensionConfigDigestIsStable) {
  WorkflowSpec spec = golden_spec(Scheme::kUncoordinated, 2, 1);
  spec.ckpt.xor_group = 2;
  for (auto& c : spec.components) c.ckpt_period = 1;
  spec.failures.predictor_recall = 1.0;
  WorkflowRunner runner(spec);
  runner.run();
  EXPECT_EQ(runner.trace().digest(), 0x608d7de80f07ec1aull);
}

// The Vaidya-style adaptive-interval policy over the MTBF failure process:
// checkpoint cadence becomes sqrt(2 * delta * MTBF) instead of the fixed
// period, so drift in the interval computation (or in what it anchors on)
// changes the checkpoint trace and with it this digest.
TEST(GoldenTraceTest, AdaptiveIntervalDigestIsStable) {
  WorkflowSpec spec = golden_spec(Scheme::kUncoordinated, 0, 1);
  spec.failures.mtbf_s = 600.0;
  spec.ckpt.adaptive_interval = true;
  WorkflowRunner runner(spec);
  runner.run();
  EXPECT_EQ(runner.trace().digest(), 0x4d9d6b87eaefab43ull);
}

// The memory-governed path: per-server budgets that drive admission
// backpressure, victim spills and replay-path fault-ins, raw and under the
// delta+LZ log codec. A raw log piece shares the store's buffer and is
// charged once, so the raw case needs a tighter budget than the encoded
// one for the same pressure: at 512 MB it bounces no put, at 416 MB it
// bounces 3,456, spills 100 versions and faults 4 back in (448 and 480 MB
// bounce none). The delta+LZ log keeps an encoded copy of its own, which
// is charged as before, and at 512 MB it spills and faults in without
// bouncing a put. Its digest was re-pinned (was 0xf7b597808f5b97f9) when
// the per-event queue mirror was deleted: the mirror's posted send no
// longer holds the server's NIC, which moves a later send's start. The
// raw case's digest did not move.
TEST(GoldenTraceTest, GovernedDigestsAreStable) {
  struct Case {
    wlog::codec::Scheme codec;
    std::uint64_t budget_mb;
    bool bounces;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {wlog::codec::Scheme::kNone, 416, true, 0xd6062dd5189abebcull},
      {wlog::codec::Scheme::kDeltaLz, 512, false, 0x627c68cc52d1c24cull},
  };
  for (const Case& c : cases) {
    WorkflowSpec spec = golden_spec(Scheme::kUncoordinated, 2, 1003);
    spec.staging.memory_budget = c.budget_mb << 20;
    spec.wlog.codec = c.codec;
    WorkflowRunner runner(spec);
    const RunMetrics m = runner.run();
    EXPECT_EQ(runner.trace().digest(), c.digest)
        << "codec=" << static_cast<int>(c.codec);
    // The budget must keep producing the pressure the case pins.
    EXPECT_EQ(m.staging.puts_rejected > 0, c.bounces);
    EXPECT_GT(m.staging.spilled_versions, 0u);
    EXPECT_GT(m.staging.spill_fetches, 0u);
  }
}

// Fixed-group peer redundancy: fragment placement over the identity view,
// under replication (res=1) and RS(2, 1) (res=2). Both digests were
// re-pinned (were 0xaaccdb957bbab48a and 0xd54976e1273880c9) when the
// per-event queue mirror was deleted: its posted send to the successor no
// longer holds the server's NIC ahead of the fragment pushes.
TEST(GoldenTraceTest, FixedGroupRedundancyDigestsAreStable) {
  struct Case {
    const char* repro;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"cc1;id=4;sch=un;ts=12;sp=3;ap=4;lp=0;res=1;mtbf=0;f=0:5:0.5:",
       0xe3c23d8d43cda2d8ull},
      {"cc1;id=4;sch=un;ts=12;sp=3;ap=4;lp=0;res=2;mtbf=0;f=0:5:0.5:",
       0x97c2d67aa0c971fcull},
  };
  for (const Case& c : cases) {
    WorkflowRunner runner(check::Schedule::parse(c.repro).to_spec());
    runner.run();
    EXPECT_EQ(runner.trace().digest(), c.digest) << c.repro;
  }
}

}  // namespace
}  // namespace dstage::core
