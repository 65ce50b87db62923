#include "core/setups.hpp"

#include <stdexcept>

namespace dstage::core {

WorkflowSpec table2_setup(Scheme scheme, double subset_fraction,
                          int sim_period, int analytic_period) {
  if (!(subset_fraction > 0) || !(subset_fraction <= 1.0))
    throw std::invalid_argument("subset fraction must be in (0, 1]");
  WorkflowSpec spec;
  spec.domain = Box::from_dims(512, 512, 256);
  spec.bytes_per_point = 8.0;  // ~0.5 GB per full-domain timestep, 20 GB/run
  spec.mem_scale = 65536;
  spec.total_ts = 40;
  spec.staging_servers = 4;  // 32 staging cores, 8 per server process
  spec.staging_cores = 32;
  spec.scheme = scheme;
  spec.coordinated_period = 4;

  ComponentSpec sim;
  sim.name = "simulation";
  sim.cores = 256;  // 8 x 8 x 4
  sim.compute_per_ts_s = spec.costs.sim_compute_per_ts_s;
  sim.ckpt_period = sim_period;
  sim.writes.push_back(CouplingWrite{"field", subset_fraction});
  spec.components.push_back(sim);

  ComponentSpec analytic;
  analytic.name = "analytic";
  analytic.cores = 64;
  analytic.compute_per_ts_s = spec.costs.analytic_compute_per_ts_s;
  analytic.ckpt_period = analytic_period;
  analytic.method = scheme == Scheme::kHybrid ? FtMethod::kReplication
                                              : FtMethod::kCheckpointRestart;
  analytic.reads.push_back(CouplingRead{"field", subset_fraction, 1});
  spec.components.push_back(analytic);

  return spec;
}

int table3_total_cores(int scale_index) {
  if (scale_index < 0 || scale_index > 4)
    throw std::invalid_argument("scale index must be 0..4");
  return 704 << scale_index;
}

WorkflowSpec table3_setup(Scheme scheme, int scale_index, int failures,
                          std::uint64_t seed) {
  if (scale_index < 0 || scale_index > 4)
    throw std::invalid_argument("scale index must be 0..4");
  const int k = scale_index;
  WorkflowSpec spec;
  spec.domain = Box::from_dims(512, 512, 256);
  // 40 GB over 40 ts at the base scale, doubling with each step (1 GB per
  // full-domain timestep at 704 cores).
  spec.bytes_per_point = 16.0 * static_cast<double>(1 << k);
  spec.mem_scale = 65536ull << k;
  spec.total_ts = 40;
  spec.staging_servers = 4 << k;  // 64 .. 1024 staging cores, 16 per server
  spec.staging_cores = 64 << k;
  spec.scheme = scheme;
  spec.coordinated_period = 8;
  spec.failures.count = failures;
  spec.failures.seed = seed;

  ComponentSpec sim;
  sim.name = "simulation";
  sim.cores = 512 << k;
  sim.compute_per_ts_s = spec.costs.sim_compute_per_ts_s;  // weak scaling
  sim.ckpt_period = 8;
  sim.writes.push_back(CouplingWrite{"field", 1.0});
  spec.components.push_back(sim);

  ComponentSpec analytic;
  analytic.name = "analytic";
  analytic.cores = 128 << k;
  analytic.compute_per_ts_s = spec.costs.analytic_compute_per_ts_s;
  analytic.ckpt_period = 10;
  analytic.method = scheme == Scheme::kHybrid ? FtMethod::kReplication
                                              : FtMethod::kCheckpointRestart;
  analytic.reads.push_back(CouplingRead{"field", 1.0, 1});
  spec.components.push_back(analytic);

  return spec;
}

WorkflowSpec ceiling_setup(int staging_servers, wlog::codec::Scheme codec) {
  if (staging_servers < 1)
    throw std::invalid_argument("staging_servers must be >= 1");
  WorkflowSpec spec;
  spec.domain = Box::from_dims(256, 256, 128);
  spec.bytes_per_point = 8.0;  // 64 MB nominal per full-domain timestep
  spec.mem_scale = 65536;
  spec.total_ts = 4;
  spec.staging_servers = staging_servers;
  spec.staging_cores = staging_servers;
  spec.cells_per_axis = 64;
  spec.scheme = Scheme::kUncoordinated;
  spec.coordinated_period = 4;
  spec.wlog.codec = codec;

  ComponentSpec sim;
  sim.name = "simulation";
  sim.cores = 512;
  sim.compute_per_ts_s = spec.costs.sim_compute_per_ts_s;
  sim.ckpt_period = 2;
  sim.writes.push_back(CouplingWrite{"field", 1.0});
  spec.components.push_back(sim);

  ComponentSpec analytic;
  analytic.name = "analytic";
  analytic.cores = 128;
  analytic.compute_per_ts_s = spec.costs.analytic_compute_per_ts_s;
  analytic.ckpt_period = 3;
  analytic.reads.push_back(CouplingRead{"field", 1.0, 1});
  spec.components.push_back(analytic);

  return spec;
}

}  // namespace dstage::core
