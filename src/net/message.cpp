#include "net/message.hpp"

namespace dstage::net {

namespace {
/// Descriptor-only message or ack: a verbs work request with inline header.
constexpr std::uint64_t kDescriptor = 64;
/// Request/response naming an object (descriptor + geometry + keys).
constexpr std::uint64_t kObjectHeader = 128;
}  // namespace

std::uint64_t wire_size(const PutRequest& m) {
  return kObjectHeader + m.chunk.nominal_bytes;
}
std::uint64_t wire_size(const GetRequest&) { return kObjectHeader; }
std::uint64_t wire_size(const CheckpointEvent&) { return kDescriptor; }
std::uint64_t wire_size(const RecoveryEvent&) { return kDescriptor; }
std::uint64_t wire_size(const RollbackRequest&) { return kDescriptor; }
std::uint64_t wire_size(const FragmentPut& m) { return m.nominal_bytes; }
std::uint64_t wire_size(const FragmentPrune&) { return kDescriptor; }
std::uint64_t wire_size(const QueryRequest&) { return kDescriptor; }

std::uint64_t wire_size(const SpillPut& m) {
  // Spilled log chunks travel in their stored (possibly codec-encoded)
  // representation: the PFS write is charged the encoded footprint.
  return kObjectHeader + m.chunk.accounted_bytes();
}
std::uint64_t wire_size(const SpillFetch&) { return kObjectHeader; }
std::uint64_t wire_size(const SpillPrune&) { return kDescriptor; }

std::uint64_t wire_size(const JoinGroup&) { return kDescriptor; }
std::uint64_t wire_size(const RetireServer&) { return kDescriptor; }
std::uint64_t wire_size(const MembershipUpdate& m) {
  return kDescriptor + 4 * static_cast<std::uint64_t>(m.active.size());
}
std::uint64_t wire_size(const MembershipQuery&) { return kDescriptor; }
std::uint64_t wire_size(const FragmentFetch&) { return kObjectHeader; }
std::uint64_t wire_size(const ResilverPut& m) {
  // Log chunks resilver in their stored (possibly codec-encoded) form.
  return kObjectHeader + m.chunk.accounted_bytes();
}
std::uint64_t wire_size(const CkptStoreLocal&) { return kDescriptor; }
std::uint64_t wire_size(const CkptXorShard& m) {
  // The parity share really travels to the partner group.
  return kDescriptor + m.nominal_bytes;
}
std::uint64_t wire_size(const CkptDrainAck&) { return kDescriptor; }

std::uint64_t wire_size(const PutResponse&) { return kDescriptor; }
std::uint64_t wire_size(const SpillAck&) { return kDescriptor; }

std::uint64_t wire_size(const SpillFetchResponse& m) {
  // A descriptor per chunk, plus the bytes of each chunk that carries a
  // payload.
  std::uint64_t bytes = kObjectHeader;
  for (const Chunk& chunk : m.chunks)
    bytes += kDescriptor + (chunk.data ? chunk.accounted_bytes() : 0);
  return bytes;
}

std::uint64_t wire_size(const CheckpointAck&) { return kDescriptor; }
std::uint64_t wire_size(const RecoveryAck&) { return kDescriptor; }
std::uint64_t wire_size(const RollbackAck&) { return kDescriptor; }

std::uint64_t wire_size(const GetResponse& m) {
  std::uint64_t bytes = kObjectHeader;
  for (const Chunk& piece : m.pieces) bytes += piece.nominal_bytes;
  return bytes;
}

std::uint64_t wire_size(const GroupChangeAck&) { return kDescriptor; }
std::uint64_t wire_size(const MembershipInfo& m) {
  return kDescriptor + 4 * static_cast<std::uint64_t>(m.active.size());
}
std::uint64_t wire_size(const FragmentFetchResponse& m) {
  std::uint64_t bytes = kObjectHeader;
  for (const FragmentPut& f : m.fragments) bytes += f.nominal_bytes;
  return bytes;
}
std::uint64_t wire_size(const ResilverAck&) { return kDescriptor; }

std::uint64_t wire_size(const QueryResponse& m) {
  return kDescriptor +
         4 * static_cast<std::uint64_t>(m.store_versions.size() +
                                        m.logged_versions.size());
}

std::uint64_t serialized_size(const Message& m) {
  return std::visit([](const auto& alt) { return wire_size(alt); }, m);
}

const char* message_name(const PutRequest&) { return "put"; }
const char* message_name(const GetRequest&) { return "get"; }
const char* message_name(const CheckpointEvent&) { return "checkpoint"; }
const char* message_name(const RecoveryEvent&) { return "recovery"; }
const char* message_name(const RollbackRequest&) { return "rollback"; }
const char* message_name(const FragmentPut&) { return "fragment_put"; }
const char* message_name(const FragmentPrune&) { return "fragment_prune"; }
const char* message_name(const QueryRequest&) { return "query"; }
const char* message_name(const SpillPut&) { return "spill_put"; }
const char* message_name(const SpillFetch&) { return "spill_fetch"; }
const char* message_name(const SpillPrune&) { return "spill_prune"; }
const char* message_name(const JoinGroup&) { return "join_group"; }
const char* message_name(const RetireServer&) { return "retire_server"; }
const char* message_name(const MembershipUpdate&) {
  return "membership_update";
}
const char* message_name(const MembershipQuery&) {
  return "membership_query";
}
const char* message_name(const FragmentFetch&) { return "fragment_fetch"; }
const char* message_name(const ResilverPut&) { return "resilver_put"; }
const char* message_name(const CkptStoreLocal&) { return "ckpt_store_local"; }
const char* message_name(const CkptXorShard&) { return "ckpt_xor_shard"; }
const char* message_name(const CkptDrainAck&) { return "ckpt_drain_ack"; }

const char* message_name(const Message& m) {
  return std::visit([](const auto& alt) { return message_name(alt); }, m);
}

}  // namespace dstage::net
