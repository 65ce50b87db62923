#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dstage::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Full-scale pass sizes, chosen so that a pass takes ~3 s on a 4-vCPU
// shared VM and a run of BENCHMARK.json's run_seconds (15 s) fits four;
// --scale=smoke divides each by kSmokeDivisor and runs one pass.
constexpr int kTable2SeedsPerScheme = 10;        // x 5 schemes
constexpr int kCampaignSchedulesPerScheme = 14;  // x 5 schemes
constexpr int kMemcapSeeds = 16;                 // x {raw, delta_lz}
constexpr int kCeilingServers = 10000;           // + a seed-drawn 0..63
constexpr int kSmokeDivisor = 20;
constexpr int kSetupRepetitions = 3;  // per pass
constexpr int kMinPasses = 3;         // even when the budget runs out
constexpr std::uint64_t kMemcapBudgetMb = 512;
constexpr double kGB = 1e9;

constexpr core::Scheme kSchemes[] = {
    core::Scheme::kNone, core::Scheme::kCoordinated,
    core::Scheme::kUncoordinated, core::Scheme::kIndividual,
    core::Scheme::kHybrid};

enum class Kind { kTable2, kCampaign, kMemcap, kCeiling };

struct WorkloadDef {
  const char* name;
  Kind kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"table2_schemes", Kind::kTable2},
    {"campaign_mixed", Kind::kCampaign},
    {"memcap_codec", Kind::kMemcap},
    {"ceiling_10k", Kind::kCeiling},
};

/// One run (or, for the campaign, one oracle-checked schedule) of a pass.
struct Unit {
  std::string label;  // names the unit in error lines
  core::WorkflowSpec spec;
  std::optional<check::Schedule> schedule;
  /// Contributes to the paper's virtual-time metrics (Table II: Un only).
  bool paper_cell = true;
  /// Units of one group form one host-time sample, the sum of their
  /// fastest passes; -1 makes the unit a sample of its own.
  int group = -1;
};

int scaled(int full, bool smoke) {
  return smoke ? std::max(1, full / kSmokeDivisor) : full;
}

/// Failure seed of unit `i`: distinct per benchmark seed and per unit.
std::uint64_t failure_seed(std::uint64_t seed, int i) {
  return seed * 1000 + static_cast<std::uint64_t>(i) + 1;
}

std::vector<Unit> make_units(Kind kind, std::uint64_t seed, bool smoke) {
  std::vector<Unit> units;
  switch (kind) {
    case Kind::kTable2: {
      const int seeds = scaled(kTable2SeedsPerScheme, smoke);
      for (core::Scheme scheme : kSchemes) {
        for (int i = 0; i < seeds; ++i) {
          Unit u;
          u.spec = core::table2_setup(scheme);
          u.spec.failures.count = 2;
          u.spec.failures.seed = failure_seed(seed, i);
          u.paper_cell = scheme == core::Scheme::kUncoordinated;
          u.label = std::string(core::scheme_name(scheme)) + " failure seed " +
                    std::to_string(u.spec.failures.seed);
          units.push_back(std::move(u));
        }
      }
      break;
    }
    case Kind::kCampaign: {
      // An equal share of schedules per scheme, each share drawn from its
      // own seed: a freely drawn scheme mix is the largest source of
      // seed-to-seed variance in the virtual-time means (README, noise).
      std::vector<check::Schedule> schedules;
      check::GenerateOptions gen;
      gen.count = scaled(kCampaignSchedulesPerScheme, smoke);
      gen.total_ts = 12;
      gen.max_failures = 3;
      gen.ckpt_probability = 0.25;
      gen.elastic_probability = 0.25;
      for (std::size_t k = 0; k < std::size(kSchemes); ++k) {
        gen.schemes = {kSchemes[k]};
        gen.seed = seed * std::size(kSchemes) + k;
        for (check::Schedule& s : check::generate_schedules(gen)) {
          schedules.push_back(std::move(s));
        }
      }
      for (check::Schedule& s : schedules) {
        // StagingServer::push_fragments indexes a membership view size
        // taken before its co_awaits; a retire that shrinks the view
        // mid-push reads past the view's end (heap-buffer-overflow under
        // ASan, nondeterministic fragment placement). Elastic schedules
        // therefore run without redundancy. Remove this override once
        // push_fragments re-reads view().size() after each co_await; the
        // README's repro schedule must then give one digest.
        if (!s.elastic.empty()) s.resilience = 0;
        Unit u;
        u.label = s.repro();
        u.spec = s.to_spec();
        u.schedule = std::move(s);
        units.push_back(std::move(u));
      }
      break;
    }
    case Kind::kMemcap: {
      const int seeds = scaled(kMemcapSeeds, smoke);
      for (int i = 0; i < seeds; ++i) {
        for (wlog::codec::Scheme codec :
             {wlog::codec::Scheme::kNone, wlog::codec::Scheme::kDeltaLz}) {
          Unit u;
          u.spec = core::table2_setup(core::Scheme::kUncoordinated);
          u.spec.failures.count = 2;
          u.spec.failures.seed = failure_seed(seed, i);
          u.spec.staging.memory_budget = kMemcapBudgetMb << 20;
          u.spec.wlog.codec = codec;
          u.label = std::string("codec ") + wlog::codec::scheme_name(codec) +
                    " failure seed " + std::to_string(u.spec.failures.seed);
          // A sample is the raw/delta_lz pair of one seed: the two codecs
          // cost ~75 and ~95 ms, and a median over a two-cluster mix would
          // sit on the gap between them.
          u.group = i;
          units.push_back(std::move(u));
        }
      }
      break;
    }
    case Kind::kCeiling: {
      // The seed draws the population size from a narrow range: the
      // failure-free ceiling is otherwise identical for every seed.
      Rng rng(seed);
      Unit u;
      u.spec = core::ceiling_setup(scaled(kCeilingServers, smoke) +
                                   rng.uniform_int(0, 63));
      // 32^3 cells still give every server a cell, but cut the per-put
      // chunk count 8x: what is left is the vproc population's cost, and a
      // run fits several passes.
      u.spec.cells_per_axis = 32;
      u.label = std::to_string(u.spec.staging_servers) + " servers";
      units.push_back(std::move(u));
      break;
    }
  }
  return units;
}

struct Outcome {
  core::RunMetrics metrics;
  std::uint64_t digest = 0;
  std::optional<check::OracleReport> report;
  double sample_s = 0;  // the unit's host time: what unit_ms_* pools
  double build_s = 0, run_s = 0, teardown_s = 0;
  double reference_s = 0, oracle_s = 0;  // campaign only
  std::string error;                     // empty when the unit is correct

  /// Host time of the plain WorkflowRunner run, 0 when it was skipped.
  [[nodiscard]] double plain_s() const { return build_s + run_s + teardown_s; }
};

bool logged_scheme(core::Scheme s) {
  return s != core::Scheme::kNone && s != core::Scheme::kIndividual;
}

/// Why a completed unit's outputs are wrong, or "" when they are right.
std::string judge(const Unit& u, const Outcome& o) {
  const core::RunMetrics& m = o.metrics;
  if (m.rpc_exhausted > 0) return "rpc retries exhausted";
  if (logged_scheme(u.spec.scheme) && m.total_anomalies() > 0) {
    return std::to_string(m.total_anomalies()) +
           " consistency anomalies under " + core::scheme_name(u.spec.scheme);
  }
  if (u.spec.wlog.enabled()) {
    for (const core::ComponentMetrics& c : m.components) {
      if (c.corrupt_reads > 0) return "corrupt read through the codec";
    }
  }
  if (o.report) {
    if (!o.report->ok()) return "oracle: " + o.report->violations[0].detail;
    if (o.report->trace_digest != o.digest) {
      return "oracle run diverged from the plain run";
    }
  }
  return "";
}

/// Run one unit: a plain WorkflowRunner run, then (campaign) the oracle
/// check of the same schedule. A campaign unit may skip the plain run
/// (`plain` false) once an earlier pass has recorded its metrics; its
/// digest is then the oracle run's. `split_reference` primes the reference
/// separately so the traced pass can time it on its own.
Outcome run_unit(const Unit& u, check::ReferenceCache& cache, bool plain,
                 bool split_reference) {
  Outcome o;
  try {
    if (plain || !u.schedule) {
      const auto t0 = Clock::now();
      auto t1 = t0, t2 = t0;
      {
        core::WorkflowRunner runner(u.spec);
        t1 = Clock::now();
        o.metrics = runner.run();
        t2 = Clock::now();
        o.digest = runner.trace().digest();
      }
      const auto t3 = Clock::now();
      o.build_s = std::chrono::duration<double>(t1 - t0).count();
      o.run_s = std::chrono::duration<double>(t2 - t1).count();
      o.teardown_s = std::chrono::duration<double>(t3 - t2).count();
      o.sample_s = o.plain_s();
    }
    if (u.schedule) {
      const auto r0 = Clock::now();
      if (split_reference) cache.reference_for(*u.schedule);
      o.reference_s = seconds_since(r0);
      const auto r1 = Clock::now();
      o.report = check::check_schedule(*u.schedule, cache);
      o.oracle_s = seconds_since(r1);
      o.sample_s = o.reference_s + o.oracle_s;
      if (!plain) o.digest = o.report->trace_digest;
    }
  } catch (const std::exception& e) {
    o.error = std::string("threw: ") + e.what();
    return o;
  }
  o.error = judge(u, o);
  return o;
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so a large parent that
/// spawns the benchmark through vfork would leak its own peak into ours.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

template <class F>
double mean_over(const std::vector<Unit>& units,
                 const std::vector<Outcome>& outcomes, F f) {
  double total = 0;
  int n = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!units[i].paper_cell) continue;
    total += f(outcomes[i].metrics);
    ++n;
  }
  return n > 0 ? total / n : 0;
}

/// Sum of `f(metrics)` over a pass.
template <class F>
double sum_over(const std::vector<Outcome>& outcomes, F f) {
  double total = 0;
  for (const Outcome& o : outcomes) total += static_cast<double>(f(o.metrics));
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void add_end_to_end(RunResult& r, Kind kind, double setup_s,
                    const SampleSet& samples, const std::vector<Unit>& units,
                    const std::vector<Outcome>& first) {
  r.metrics.add("setup_s", setup_s, "s");
  r.metrics.add("unit_ms_p50", samples.percentile(50) * 1e3, "ms");
  r.metrics.add("unit_ms_p90", samples.percentile(90) * 1e3, "ms");
  r.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.metrics.add("total_time_s",
                mean_over(units, first,
                          [](const core::RunMetrics& m) {
                            return m.total_time_s;
                          }),
                "virtual_s");
  r.metrics.add("write_response_s",
                mean_over(units, first,
                          [](const core::RunMetrics& m) {
                            return m.cum_write_response_s();
                          }),
                "virtual_s");

  if (kind == Kind::kTable2) {
    // Un's execution-time saving over Co: the paper's headline comparison.
    double un = 0, co = 0;
    int nu = 0, nc = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      const core::Scheme s = units[i].spec.scheme;
      if (s == core::Scheme::kUncoordinated) {
        un += first[i].metrics.total_time_s;
        ++nu;
      } else if (s == core::Scheme::kCoordinated) {
        co += first[i].metrics.total_time_s;
        ++nc;
      }
    }
    if (nu > 0 && nc > 0) {
      r.extras.add("un_co_saving_pct", 100.0 * (1.0 - (un / nu) / (co / nc)),
                   "%");
    }
  }
}

struct Spans {
  double generate_s = 0;
  double build_s = 0, run_s = 0, teardown_s = 0;
  double reference_s = 0, oracle_s = 0;
};

/// `traced_s` and `untraced_s` are pass times less the plain runs of
/// schedules: the traced pass against the median untraced pass.
void add_per_layer(RunResult& r, const std::vector<Unit>& units,
                   const std::vector<Outcome>& first, const Spans& spans,
                   const ProbeTimes& probes, double traced_s,
                   double untraced_s) {
  using M = core::RunMetrics;
  auto sum = [&first](auto f) { return sum_over(first, f); };
  auto& out = r.metrics;

  const double events = sum([](const M& m) { return m.events_processed; });
  double vprocs = 0;
  for (const Outcome& o : first) {
    vprocs = std::max(vprocs, static_cast<double>(o.metrics.vprocs));
  }
  out.add("sim.events", events, "count");
  out.add("sim.vprocs", vprocs, "count");
  out.add("sim.events_per_s", ratio(events, spans.run_s), "1/s");

  const double packets = sum([](const M& m) { return m.fabric_packets; });
  out.add("net.packets", packets, "count");
  out.add("net.gb", sum([](const M& m) { return m.fabric_bytes; }) / kGB, "GB");
  out.add("net.rpc_retries", sum([](const M& m) { return m.rpc_retries; }),
          "count");
  out.add("net.backpressure_waits",
          sum([](const M& m) { return m.rpc_backpressure_waits; }), "count");

  const double puts = sum([](const M& m) { return m.staging.puts; });
  const double gets = sum([](const M& m) { return m.staging.gets; });
  out.add("staging.puts", puts, "count");
  out.add("staging.gets", gets, "count");
  out.add("staging.gets_from_log",
          sum([](const M& m) { return m.staging.gets_from_log; }), "count");
  out.add("staging.puts_rejected",
          sum([](const M& m) { return m.staging.puts_rejected; }), "count");
  out.add("staging.spilled_versions",
          sum([](const M& m) { return m.staging.spilled_versions; }), "count");
  out.add("staging.spill_fetches",
          sum([](const M& m) { return m.staging.spill_fetches; }), "count");
  out.add("staging.resilver_chunks",
          sum([](const M& m) { return m.staging.resilver_chunks_moved; }),
          "count");
  out.add("staging.wrong_epoch_rejects",
          sum([](const M& m) { return m.staging.wrong_epoch_rejects; }),
          "count");
  out.add("staging.degraded_reads",
          sum([](const M& m) { return m.staging.degraded_reads; }), "count");
  // Mean per-run peak of store + log + metadata: the Fig. 9(c)/(d) memory.
  out.add("staging.gb_peak",
          sum([](const M& m) { return m.staging.total_bytes_peak; }) / kGB /
              static_cast<double>(first.size()),
          "GB");

  const double blocks = sum([](const M& m) { return m.staging.codec_blocks; });
  out.add("wlog.codec_blocks", blocks, "count");
  out.add("wlog.delta_share",
          ratio(sum([](const M& m) { return m.staging.codec_delta_blocks; }),
                blocks),
          "ratio");
  out.add("wlog.codec_ratio",
          ratio(sum([](const M& m) { return m.staging.codec_raw_bytes; }),
                sum([](const M& m) { return m.staging.codec_stored_bytes; })),
          "x");
  out.add("wlog.log_gb_peak",
          sum([](const M& m) { return m.staging.log_payload_bytes_peak; }) /
              kGB / static_cast<double>(first.size()),
          "GB");

  const double dropped =
      sum([](const M& m) { return m.staging.gc_versions_dropped; });
  out.add("gc.versions_dropped", dropped, "count");

  out.add("ckpt.stall_s",
          sum([](const M& m) {
            double stall = 0;
            for (const auto& c : m.components) stall += c.ckpt_stall_s;
            return stall;
          }),
          "virtual_s");
  out.add("ckpt.drains",
          sum([](const M& m) { return m.ckpt.drains_completed; }), "count");
  out.add("ckpt.cache_restarts",
          sum([](const M& m) { return m.ckpt.cache_restarts; }), "count");
  out.add("ckpt.partner_rebuilds",
          sum([](const M& m) { return m.ckpt.partner_rebuilds; }), "count");

  out.add("cluster.pfs_gb_written",
          sum([](const M& m) { return m.pfs_bytes_written; }) / kGB, "GB");
  out.add("cluster.pfs_gb_read",
          sum([](const M& m) { return m.pfs_bytes_read; }) / kGB, "GB");

  out.add("core.timesteps_reworked",
          sum([](const M& m) {
            int reworked = 0;
            for (const auto& c : m.components) reworked += c.timesteps_reworked;
            return reworked;
          }),
          "count");
  out.add("core.failures_injected",
          sum([](const M& m) { return m.failures_injected; }), "count");

  // The oracle memoizes one failure-free reference per configuration:
  // the schedule with its id and failures stripped.
  std::set<std::string> configs;
  double violations = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!units[i].schedule) continue;
    check::Schedule base = *units[i].schedule;
    base.id = 0;
    base.mtbf = false;
    base.failures.clear();
    configs.insert(base.repro());
    if (first[i].report) {
      violations += static_cast<double>(first[i].report->violations.size());
    }
  }
  const bool campaign = !configs.empty();
  out.add("check.reference_runs", static_cast<double>(configs.size()),
          "count");
  out.add("check.violations", violations, "count");

  out.add("core.build_s", spans.build_s, "s");
  out.add("core.run_s", spans.run_s, "s");
  out.add("core.teardown_s", spans.teardown_s, "s");
  out.add("check.generate_s", spans.generate_s, "s");
  out.add("check.reference_s", spans.reference_s, "s");
  out.add("check.oracle_s", spans.oracle_s, "s");
  out.add("check.oracle_overhead_s",
          campaign ? spans.oracle_s -
                         (spans.build_s + spans.run_s + spans.teardown_s)
                   : 0.0,
          "s");

  // Matching counts for the leaf probes.
  double client_calls = 0, codec_log_gets = 0, rs_puts = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const M& m = first[i].metrics;
    for (const auto& c : m.components) {
      client_calls += static_cast<double>(c.put_response_s.count() +
                                          c.get_response_s.count());
    }
    if (units[i].spec.wlog.enabled()) {
      codec_log_gets += static_cast<double>(m.staging.gets_from_log);
    }
    if (units[i].spec.server.policy.kind ==
        resilience::Redundancy::kErasureCode) {
      rs_puts += static_cast<double>(m.staging.puts);
    }
  }
  struct Estimate {
    const char* name;
    const char* est_name;
    double per_call;
    const char* unit;
    double calls;
    double to_s;
  };
  const Estimate estimates[] = {
      {"sim.dispatch_ns", "sim.dispatch_est_s", probes.dispatch_ns, "ns",
       events, 1e-9},
      // One RPC round trip carries two fabric packets.
      {"net.rpc_ns", "net.rpc_est_s", probes.rpc_ns, "ns", packets / 2, 1e-9},
      {"staging.store_put_ns", "staging.store_put_est_s", probes.store_put_ns,
       "ns", puts, 1e-9},
      {"staging.store_get_ns", "staging.store_get_est_s", probes.store_get_ns,
       "ns", gets, 1e-9},
      {"dht.place_ns", "dht.place_est_s", probes.place_ns, "ns", client_calls,
       1e-9},
      {"wlog.encode_ns", "wlog.encode_est_s", probes.encode_ns, "ns", blocks,
       1e-9},
      {"wlog.decode_ns", "wlog.decode_est_s", probes.decode_ns, "ns",
       codec_log_gets, 1e-9},
      {"gc.sweep_us", "gc.sweep_est_s", probes.sweep_us, "us",
       ratio(dropped, probes.sweep_dropped), 1e-6},
      {"resilience.rs_encode_ns", "resilience.rs_encode_est_s",
       probes.rs_encode_ns, "ns", rs_puts, 1e-9},
  };
  double attributed = 0;
  for (const Estimate& e : estimates) {
    out.add(e.name, e.per_call, e.unit);
    const double est = e.per_call * e.calls * e.to_s;
    out.add(e.est_name, est, "s");
    attributed += est;
  }
  out.add("unattributed_s", spans.run_s - attributed, "s");
  out.add("trace.overhead_pct",
          100.0 * (ratio(traced_s, untraced_s) - 1.0), "%");
}

Kind kind_of(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return w.kind;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadDef& w : kWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

RunResult run_workload(const RunOptions& opts) {
  const Kind kind = kind_of(opts.workload);
  RunResult r;

  // Counts one executed unit; a pass after the first must also reproduce
  // the first pass's trace digest.
  auto record = [&r](const Unit& u, const Outcome& o, int pass,
                     const Outcome* first) {
    ++r.attempted;
    std::string error = o.error;
    if (error.empty() && first != nullptr && o.digest != first->digest) {
      error = "trace digest differs from the first pass";
    }
    if (!error.empty()) {
      ++r.failed;
      r.errors.push_back("pass " + std::to_string(pass + 1) + ", " + u.label +
                         ": " + error);
    }
  };

  // Whole passes, at least kMinPasses, then while another fits in the
  // budget. Each pass first sets up its inputs (several times, so set-up
  // samples spread over the run as the passes do), then runs every unit
  // once. A unit's host time is its fastest pass: on a shared host,
  // neighbours slow stretches of 0.5-3 s by up to 1.6x, and the minimum
  // over passes seconds apart filters them.
  std::vector<Unit> units;
  SampleSet setup_s;
  std::vector<Outcome> first;
  std::vector<double> fastest;
  // Per pass: its time less the plain runs of schedules, which only the
  // first pass does. What is left is the same work in every pass.
  SampleSet check_pass_s;
  const int setup_reps = opts.smoke ? 1 : kSetupRepetitions;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    for (int rep = 0; rep < setup_reps; ++rep) {
      const auto t0 = Clock::now();
      units = make_units(kind, opts.seed, opts.smoke);
      for (const Unit& u : units) core::WorkflowRunner runner(u.spec);
      setup_s.add(seconds_since(t0));
    }
    check::ReferenceCache cache;  // every pass primes its own references
    const auto p0 = Clock::now();
    double plain_s = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      Outcome o = run_unit(units[i], cache, pass == 0, false);
      record(units[i], o, pass, pass == 0 ? nullptr : &first[i]);
      if (units[i].schedule) plain_s += o.plain_s();
      if (pass == 0) {
        fastest.push_back(o.sample_s);
        first.push_back(std::move(o));
      } else {
        fastest[i] = std::min(fastest[i], o.sample_s);
      }
    }
    check_pass_s.add(seconds_since(p0) - plain_s);
    if (opts.smoke) break;
    const double elapsed = seconds_since(start);
    const bool another_fits = elapsed + elapsed / (pass + 1) <= opts.seconds;
    if (pass + 1 >= kMinPasses && !another_fits) break;
  }
  std::map<long, double> grouped;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const int g = units[i].group;
    grouped[g >= 0 ? g : -1 - static_cast<long>(i)] += fastest[i];
  }
  SampleSet samples;
  for (const auto& [g, s] : grouped) samples.add(s);

  const auto passes = static_cast<int>(check_pass_s.count());
  r.extras.add("passes", passes, "count");
  r.extras.add("units_per_pass", static_cast<double>(units.size()), "count");

  if (!opts.trace) {
    add_end_to_end(r, kind, setup_s.percentile(50), samples, units, first);
  } else {
    // One traced pass, timed per layer boundary, then the leaf probes.
    Spans spans;
    const auto g0 = Clock::now();
    std::vector<Unit> traced_units = make_units(kind, opts.seed, opts.smoke);
    if (kind == Kind::kCampaign) spans.generate_s = seconds_since(g0);
    check::ReferenceCache cache;
    const auto p0 = Clock::now();
    double plain_s = 0;
    for (std::size_t i = 0; i < traced_units.size(); ++i) {
      const Outcome o = run_unit(traced_units[i], cache, true, true);
      record(traced_units[i], o, passes, &first[i]);
      if (traced_units[i].schedule) plain_s += o.plain_s();
      spans.build_s += o.build_s;
      spans.run_s += o.run_s;
      spans.teardown_s += o.teardown_s;
      spans.reference_s += o.reference_s;
      spans.oracle_s += o.oracle_s;
    }
    const double traced_check_s = seconds_since(p0) - plain_s;

    const Unit* shape = &units.front();
    for (const Unit& u : units) {
      if (u.spec.wlog.enabled()) {
        shape = &u;
        break;
      }
    }
    const ProbeTimes probes = run_probes(shape->spec, opts.smoke);
    add_per_layer(r, units, first, spans, probes, traced_check_s,
                  check_pass_s.percentile(50));
  }
  r.extras.add("error_rate",
               ratio(static_cast<double>(r.failed),
                     static_cast<double>(r.attempted)),
               "failed/attempted");
  r.correct = r.failed == 0;
  return r;
}

}  // namespace dstage::benchmark
