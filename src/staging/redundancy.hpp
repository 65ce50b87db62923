// Peer redundancy (the paper's Data Resilience Component, Fig. 8): the
// staging group's membership view and the redundancy fragments this server
// holds for its peers, which degraded reads reconstruct a lost owner's
// pieces from.
//
// One placement rule (placement()): slot j >= 1 of an object whose owner
// sits at view position p lives on view[(p + 1 + (j - 1) % (n - 1)) % n],
// round-robin over the other active servers. Slot 1 is the owner's
// successor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/task.hpp"
#include "staging/types.hpp"

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
  void apply(FragmentPut frag);
  void apply(FragmentPrune prune);

  sim::Task<void> push_fragments(Chunk chunk, bool logged);
  /// True when peers may hold fragments worth pruning.
  [[nodiscard]] bool prunes() const;
  /// Tell every other active server to reclaim this server's fragments of
  /// `var` up to `upto`.
  void prune_peers(const std::string& var, Version upto);
  sim::Task<void> handoff();

  [[nodiscard]] std::uint64_t fragment_bytes() const { return fragment_bytes_; }

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
  bool placement_warned_ = false;
};

}  // namespace dstage::staging
