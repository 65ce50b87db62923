// Virtual cluster: named virtual processes (vprocs) pinned to nodes, each
// with a fabric endpoint and a cancel token. kill() models a fail-stop crash
// (ULFM-style: the process disappears mid-operation); revive() models a
// spare process joining the recovered communicator with a bumped
// incarnation number so stale state can be recognized.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/cancel.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace dstage::cluster {

using VprocId = int;

struct Vproc {
  VprocId id = -1;
  net::NodeId node = -1;
  net::EndpointId endpoint = -1;
  std::string name;
  bool alive = true;
  /// Bumped on every revive; lets peers discard stale replies.
  std::uint64_t incarnation = 0;
  std::unique_ptr<sim::CancelToken> token;
};

class Cluster {
 public:
  Cluster(sim::Engine& eng, net::Fabric& fabric)
      : eng_(&eng), fabric_(&fabric) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a physical node to the fabric.
  net::NodeId add_node() { return fabric_->add_node(); }

  /// Creates a vproc homed on `node` with its own endpoint and token.
  VprocId add_vproc(std::string name, net::NodeId node);

  [[nodiscard]] Vproc& vproc(VprocId id);
  [[nodiscard]] const Vproc& vproc(VprocId id) const;
  [[nodiscard]] int vproc_count() const {
    return static_cast<int>(vprocs_.size());
  }

  /// Execution context bound to a vproc's cancel token.
  [[nodiscard]] sim::Ctx ctx_for(VprocId id) {
    return sim::Ctx{eng_, vproc(id).token.get()};
  }

  /// Fail-stop crash: cancels the vproc's token (unwinding whatever it is
  /// doing) and notifies failure observers after the detection delay.
  void kill(VprocId id);

  /// Teardown for harnesses that own the engine: cancel every vproc's
  /// token, with no failure notification. Draining the engine afterwards
  /// unwinds whatever each process is parked on and frees its frames.
  void cancel_all() {
    for (auto& vp : vprocs_) vp->token->cancel();
  }

  /// Recycle the slot for a replacement process: re-arms the token and bumps
  /// the incarnation. The caller restarts the process logic via spawn().
  void revive(VprocId id);

  /// Registers a failure observer (e.g. the staging recovery manager);
  /// invoked `detection_delay` of virtual time after each kill.
  void on_failure(std::function<void(VprocId)> observer) {
    observers_.push_back(std::move(observer));
  }
  void set_detection_delay(sim::Duration d) { detection_delay_ = d; }

  [[nodiscard]] sim::Engine& engine() { return *eng_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] int kill_count() const { return kill_count_; }

 private:
  sim::Engine* eng_;
  net::Fabric* fabric_;
  std::vector<std::unique_ptr<Vproc>> vprocs_;
  std::vector<std::function<void(VprocId)>> observers_;
  sim::Duration detection_delay_ = sim::milliseconds(100);
  int kill_count_ = 0;
};

}  // namespace dstage::cluster
