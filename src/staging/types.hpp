// Shared vocabulary of the staging service. The wire-facing types —
// geometric object descriptors (DataSpaces-style), payload chunks carrying
// real (scaled) bytes, and every request/response message — live in the
// net message layer (net/message.hpp) so the transport codec and the
// endpoints agree on one closed vocabulary; this header aliases them into
// the staging namespace and adds the payload-synthesis/verification
// helpers that are staging-side concerns.
#pragma once

#include <cstdint>
#include <string>

#include "net/message.hpp"
#include "util/checksum.hpp"
#include "util/geometry.hpp"

namespace dstage::staging {

using AppId = net::AppId;
using Version = net::Version;

using ObjectDesc = net::ObjectDesc;
using Chunk = net::Chunk;

using PutResponse = net::PutResponse;
using GetResponse = net::GetResponse;
using CheckpointAck = net::CheckpointAck;
using RecoveryAck = net::RecoveryAck;
using RollbackAck = net::RollbackAck;
using QueryResponse = net::QueryResponse;

using PutRequest = net::PutRequest;
using GetRequest = net::GetRequest;
using CheckpointEvent = net::CheckpointEvent;
using RecoveryEvent = net::RecoveryEvent;
using RollbackRequest = net::RollbackRequest;
using FragmentPut = net::FragmentPut;
using FragmentPrune = net::FragmentPrune;
using QueryRequest = net::QueryRequest;

using SpillAck = net::SpillAck;
using SpillFetchResponse = net::SpillFetchResponse;
using SpillPut = net::SpillPut;
using SpillFetch = net::SpillFetch;
using SpillPrune = net::SpillPrune;

using GroupChangeAck = net::GroupChangeAck;
using MembershipInfo = net::MembershipInfo;
using FragmentFetchResponse = net::FragmentFetchResponse;
using ResilverAck = net::ResilverAck;
using JoinGroup = net::JoinGroup;
using RetireServer = net::RetireServer;
using MembershipUpdate = net::MembershipUpdate;
using MembershipQuery = net::MembershipQuery;
using FragmentFetch = net::FragmentFetch;
using ResilverPut = net::ResilverPut;
using CkptStoreLocal = net::CkptStoreLocal;
using CkptXorShard = net::CkptXorShard;
using CkptDrainAck = net::CkptDrainAck;

/// Any staging message (historical name for net::Message).
using Request = net::Message;

/// Stable hash of a region, mixed into payload content keys.
std::uint64_t region_hash(const Box& b);

/// Content key identifying the unique byte stream for (var, version,
/// source region). Consumers recompute it to detect version anomalies.
std::uint64_t chunk_content_key(const std::string& var, Version version,
                                const Box& source_region);

/// Synthesizes a chunk whose bytes are the deterministic stream for
/// (var, version, region). `bytes_per_point` sets the nominal size;
/// `mem_scale` divides it down to the physically allocated size.
Chunk make_chunk(const std::string& var, Version version, const Box& region,
                 double bytes_per_point, std::uint64_t mem_scale);

/// Checks a chunk's bytes against its own key, and its key against the
/// expected (var, version): detects both corruption and the Fig.-2
/// wrong-version anomaly.
enum class ChunkCheck { kOk, kWrongVersion, kCorrupt };
ChunkCheck check_chunk(const Chunk& chunk, const std::string& expected_var,
                       Version expected_version);

}  // namespace dstage::staging
