// Peer redundancy (the paper's Data Resilience Component, Fig. 8): the
// staging group's membership view, the redundancy fragments this server
// holds for its peers, and the event-queue mirrors it keeps for them.
//
// One placement rule (placement()): slot j >= 1 of an object whose owner
// sits at view position p lives on view[(p + 1 + (j - 1) % (n - 1)) % n],
// round-robin over the other active servers. Slot 1 is the owner's
// successor, which also mirrors its event queues.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "staging/types.hpp"
#include "wlog/event_queue.hpp"

namespace dstage::staging {

struct ServerContext;  // staging/server.hpp

class PeerRedundancy {
 public:
  explicit PeerRedundancy(ServerContext& ctx) : ctx_(&ctx) {}

  /// Null `initial_view`: every server is active.
  void set_peers(std::shared_ptr<const std::vector<net::EndpointId>> endpoints,
                 std::shared_ptr<const std::vector<int>> initial_view);
  void apply_membership(std::vector<int> active);

  // The messages this component serves (the server dispatches them):
  // handle() for the ones that pay request costs or answer, apply() for
  // the ones that only update state and so need no coroutine frame.
  sim::Task<void> handle(MembershipUpdate update);
  sim::Task<void> handle(FragmentFetch fetch);
  sim::Task<void> handle(RecoveryPull pull);
  void apply(FragmentPut frag);
  void apply(FragmentPrune prune);
  void apply(QueueBackup backup);

  sim::Task<void> push_fragments(Chunk chunk, bool logged);
  /// Send `event` to this server's successor, as a posted send (no
  /// frame). The successor is read now: the view changes only in this
  /// server's MembershipUpdate handler, whose request delay cannot end
  /// before the posted send starts.
  void mirror(wlog::LogEvent event);
  /// True when peers may hold fragments worth pruning.
  [[nodiscard]] bool prunes() const;
  /// Tell every other active server to reclaim this server's fragments of
  /// `var` up to `upto`.
  void prune_peers(const std::string& var, Version upto);
  sim::Task<void> handoff();

  /// What a replacement server recovers from its peers.
  struct Rebuilt {
    /// Every object in (var, version, region) order: the verified chunk
    /// (nullopt when it cannot be rebuilt) and whether it is logged too.
    std::vector<std::pair<std::optional<Chunk>, bool>> objects;
    std::vector<wlog::LogEvent> events;  // mirrored records, per-app order
  };
  /// Pull everything the peers hold on this server's behalf and rebuild
  /// each object from its fragments. The caller applies the result to its
  /// store, log and queues.
  sim::Task<Rebuilt> rebuild();

  [[nodiscard]] std::uint64_t fragment_bytes() const { return fragment_bytes_; }
  [[nodiscard]] const auto& endpoints() const { return peer_endpoints_; }

 private:
  [[nodiscard]] const std::vector<net::EndpointId>& peers() const {
    return *peer_endpoints_;
  }
  [[nodiscard]] const std::vector<int>& view() const { return *active_view_; }
  /// The server holding slot `slot` of the object owned at view position
  /// `pos`, or -1. Re-reads the view: a retire may shrink it mid-push.
  [[nodiscard]] int placement(int pos, int slot) const;
  /// `server`'s position in the view, or -1.
  [[nodiscard]] int position(int server) const;
  void refresh_view_pos();

  ServerContext* ctx_;
  // Shared across the group (copy-on-write: apply_membership installs a
  // fresh vector rather than mutating in place).
  std::shared_ptr<const std::vector<net::EndpointId>> peer_endpoints_ =
      std::make_shared<std::vector<net::EndpointId>>();
  std::shared_ptr<const std::vector<int>> active_view_ =
      std::make_shared<std::vector<int>>();  // ascending server ids
  int view_pos_ = -1;  // this server's index in *active_view_, or -1
  // owner → fragments held on that owner's behalf.
  std::map<int, std::vector<FragmentPut>> fragments_;
  std::uint64_t fragment_bytes_ = 0;
  // owner → app → mirrored event queue.
  std::map<int, std::map<AppId, wlog::EventQueue>> mirrors_;
  bool placement_warned_ = false;
};

}  // namespace dstage::staging
