// Predicate-aware stream partitioning for sharded sessions (DESIGN.md
// Section 13). A JoinSession with N > 1 shards splits the two input
// streams over N independent pipeline shards; which split is *correct*
// depends on the predicate class:
//
//   hash        — equi-join predicates: both sides are hash-partitioned on
//                 the join key, so every matching pair lands on the same
//                 shard (pred(r, s) implies KeyR(r) == KeyS(s)). Linear
//                 scale-out: each tuple enters exactly one shard.
//   replicate_r — band/range (or arbitrary) predicates: R is replicated to
//                 every shard, S is partitioned round-robin. Every (r, s)
//                 candidate pair is co-located on exactly one shard (the
//                 one owning s), so no match can be lost and none can be
//                 duplicated. Scales the S-side work; R-side work is paid
//                 once per shard.
//   replicate_s — the mirror image (partition R, replicate S).
//   auto        — hash when the predicate type declares shard keys
//                 (ShardKeyTraits), replicate_r otherwise.
//
// Requesting `hash` for a predicate type without ShardKeyTraits is a
// configuration error and is rejected up front (ValidateShardedJoinConfig
// calls ResolvePartitionPolicy) — a silently mis-partitioned band join
// would simply lose matches.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/schema.hpp"
#include "common/types.hpp"

namespace sjoin {

/// How the two input streams are split across shards.
enum class PartitionPolicy : uint8_t {
  kAuto = 0,     ///< hash when the predicate declares keys, else replicate_r
  kHashKey,      ///< hash-partition both sides on the join key (equi only)
  kReplicateR,   ///< replicate R to all shards, partition S round-robin
  kReplicateS,   ///< replicate S to all shards, partition R round-robin
};

constexpr const char* ToString(PartitionPolicy p) {
  switch (p) {
    case PartitionPolicy::kAuto:
      return "auto";
    case PartitionPolicy::kHashKey:
      return "hash";
    case PartitionPolicy::kReplicateR:
      return "replicate_r";
    case PartitionPolicy::kReplicateS:
      return "replicate_s";
  }
  return "?";
}

/// Parses a policy name; throws std::invalid_argument naming the offending
/// value (PR 3 knob discipline: unknown string knobs must self-diagnose).
inline PartitionPolicy ParsePartitionPolicy(const std::string& name) {
  if (name == "auto") return PartitionPolicy::kAuto;
  if (name == "hash") return PartitionPolicy::kHashKey;
  if (name == "replicate_r") return PartitionPolicy::kReplicateR;
  if (name == "replicate_s") return PartitionPolicy::kReplicateS;
  throw std::invalid_argument(
      "ParsePartitionPolicy: unknown partition policy \"" + name +
      "\" (expected auto|hash|replicate_r|replicate_s)");
}

/// Declares that a predicate type is hash-partitionable: KeyR/KeyS extract
/// a shard key from each side such that pred(r, s) implies
/// KeyR(r) == KeyS(s) (the equi-join contract — equal keys land on the
/// same shard, so no matching pair is ever split). The primary template is
/// disabled; specialize it for every hash-partitionable predicate type.
template <typename Pred, typename R, typename S>
struct ShardKeyTraits {
  static constexpr bool kEnabled = false;
};

/// The library's equi-join predicate joins on r.x == s.a (common/schema.hpp).
template <>
struct ShardKeyTraits<EquiPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static uint64_t KeyR(const RTuple& r) {
    return static_cast<uint64_t>(static_cast<int64_t>(r.x));
  }
  static uint64_t KeyS(const STuple& s) {
    return static_cast<uint64_t>(static_cast<int64_t>(s.a));
  }
};

/// splitmix64 finalizer: shard assignment must not correlate with key
/// arithmetic (sequential keys modulo a small shard count would starve
/// shards), so keys are mixed before the modulo.
inline uint64_t MixShardKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shard owning `key` among `shards` shards (deterministic; equal keys map
/// to equal shards — the hash-partitioning correctness anchor).
inline int ShardOfKey(uint64_t key, int shards) {
  return static_cast<int>(MixShardKey(key) % static_cast<uint64_t>(shards));
}

/// True when each arrival of `side` enters exactly one shard under the
/// resolved policy `p`; false when the side is replicated to every shard.
constexpr bool SidePartitioned(PartitionPolicy p, StreamSide side) {
  return p == PartitionPolicy::kHashKey ||
         p == (side == StreamSide::kR ? PartitionPolicy::kReplicateS
                                      : PartitionPolicy::kReplicateR);
}

/// Resolves the requested policy against the predicate type's metadata.
/// kAuto picks the best supported split; kHashKey is rejected (throws
/// std::invalid_argument) when the predicate type declares no shard keys.
template <typename Pred, typename R, typename S>
PartitionPolicy ResolvePartitionPolicy(PartitionPolicy requested) {
  constexpr bool hashable = ShardKeyTraits<Pred, R, S>::kEnabled;
  switch (requested) {
    case PartitionPolicy::kAuto:
      return hashable ? PartitionPolicy::kHashKey
                      : PartitionPolicy::kReplicateR;
    case PartitionPolicy::kHashKey:
      if (!hashable) {
        throw std::invalid_argument(
            "ShardedJoinConfig: partition policy \"hash\" requires a "
            "ShardKeyTraits specialization for the predicate type (equi-join "
            "key extractors); this predicate declares none — a band/range "
            "predicate cannot be hash-partitioned without losing matches. "
            "Use \"auto\", \"replicate_r\" or \"replicate_s\".");
      }
      return PartitionPolicy::kHashKey;
    case PartitionPolicy::kReplicateR:
    case PartitionPolicy::kReplicateS:
      return requested;
  }
  throw std::invalid_argument(
      "ShardedJoinConfig: partition must be auto|hash|replicate_r|"
      "replicate_s, got enum value " +
      std::to_string(static_cast<int>(requested)));
}

}  // namespace sjoin
