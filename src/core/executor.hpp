// WorkflowRunner: the thin orchestrator over the layered runtime. It builds
// a Runtime (via RuntimeBuilder) for the scheme policy selected by the
// spec, drives each component's timestep loop (read -> compute -> write),
// injects the planned failures, and delegates every scheme-dependent
// decision — checkpointing, barrier costs, recovery — to the SchemePolicy
// and the Fig. 7(b) recovery pipeline. One runner executes one workflow
// run; construct a fresh runner per run. For multi-run batches see
// core/sweep.hpp.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "core/runtime.hpp"
#include "core/scheme/policy.hpp"

namespace dstage::core {

class WorkflowRunner {
 public:
  explicit WorkflowRunner(WorkflowSpec spec);
  /// Run with a caller-supplied policy instead of make_scheme_policy(
  /// spec.scheme). Used by fault-injection harnesses (src/check) to drive
  /// runs through deliberately broken policies; a null policy falls back
  /// to the spec's scheme.
  WorkflowRunner(WorkflowSpec spec, std::unique_ptr<SchemePolicy> policy);
  ~WorkflowRunner();
  WorkflowRunner(const WorkflowRunner&) = delete;
  WorkflowRunner& operator=(const WorkflowRunner&) = delete;

  /// Execute the workflow to completion and return the collected metrics.
  /// Throws std::runtime_error if the event queue drained before every
  /// component finished: "component <name> failed: <what>" when a
  /// component's process (its loop or recovery pipeline) threw, else
  /// "workflow deadlocked; unfinished: ...".
  RunMetrics run();

  /// Structured execution timeline (populated during run()).
  [[nodiscard]] const obs::Trace& trace() const { return runtime_->trace(); }
  /// The scheme policy driving this run.
  [[nodiscard]] const SchemePolicy& policy() const { return *policy_; }
  /// The assembled runtime (engine, cluster, staging, components). A
  /// harness watches a run by subscribing to runtime().recorder() before
  /// run() (src/check does).
  [[nodiscard]] Runtime& runtime() { return *runtime_; }

 private:
  sim::Task<void> run_component(Comp* comp, int start_ts);
  sim::Task<void> run_component_recovered(Comp* comp);
  sim::Task<void> maybe_fail(Comp* comp, int ts, sim::Ctx ctx);
  void on_vproc_failure(cluster::VprocId vproc);
  /// Launch every not-yet-fired elastic membership event scheduled at or
  /// before `ts`. Fired flags live in the runner, so replayed timesteps
  /// after a recovery never re-issue a change.
  void fire_elastic_events(int ts);
  sim::Task<void> drive_elastic_event(ElasticEvent event);
  /// on_done for a spawned process acting for `who`: keeps the first error
  /// that is not a kill's sim::Cancelled as "<who> failed: <what>".
  std::function<void(std::exception_ptr)> keep_error(std::string who);
  std::function<void(std::exception_ptr)> keep_error(const Comp& comp);

  std::unique_ptr<SchemePolicy> policy_;
  std::unique_ptr<Runtime> runtime_;
  RuntimeServices services_;
  std::vector<bool> elastic_fired_;
  int failures_injected_ = 0;
  std::string failure_;  // first error kept by keep_error()
  bool ran_ = false;
  bool tearing_down_ = false;
};

}  // namespace dstage::core
