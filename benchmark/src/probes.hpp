// Leaf-layer probes for the traced run: each times one public function of
// a layer on inputs shaped like the workload (its domain, staging server
// count, placement grid, chunk size and codec), so a per-call cost can be
// multiplied by the workload's matching count.
#pragma once

#include <cstdint>

#include "core/workflow.hpp"

namespace dstage::benchmark {

/// Median per-call host cost of each probed function.
struct ProbeTimes {
  double dispatch_ns = 0;     // sim::Engine::schedule_call + run, per event
  double rpc_ns = 0;          // net::Rpc::call round trip over a Fabric
  double store_put_ns = 0;    // staging::ObjectStore::put, per chunk
  double store_get_ns = 0;    // staging::ObjectStore::get, per chunk
  double place_ns = 0;        // dht::SpatialIndex::place of one client put
  double encode_ns = 0;       // wlog::codec::encode vs the previous version
  double decode_ns = 0;       // wlog::codec::decode of that block
  double sweep_us = 0;        // gc::GarbageCollector::sweep of one server log
  double sweep_dropped = 0;   // versions one probed sweep drops
  double rs_encode_ns = 0;    // resilience::ReedSolomon(2,1)::encode, per chunk
};

/// Probe every leaf function on inputs shaped like `spec`. `quick` shrinks
/// the repetitions (smoke scale).
ProbeTimes run_probes(const core::WorkflowSpec& spec, bool quick);

}  // namespace dstage::benchmark
