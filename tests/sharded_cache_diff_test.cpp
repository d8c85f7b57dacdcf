// Differential test of the ShardedCache slab store against a reference
// LRU written here from std::list + std::map, the textbook form of the
// semantics the store promises: first writer wins, a per-stripe cap,
// least-recently-used victims (lookup hits refresh recency only when
// the cache is bounded), snapshots drained stripe by stripe, least
// recent first. Seeded random sequences of insert, lookup, clear,
// snapshot and restore run against both; after every step the return
// values, the counters and the snapshot bytes must agree — equal
// snapshot bytes mean the same resident entries in the same recency
// order, so every eviction picked the same victim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "parallel/sharded_cache.hpp"
#include "util/serialize.hpp"

namespace easyc::par {
namespace {

/// Spreads keys like std::hash<int> does on libstdc++ (identity).
struct IdentityHash {
  size_t operator()(int k) const { return static_cast<size_t>(k); }
};

/// Gives groups of keys one hash value: long probe runs in the stripe
/// index, so lookups, evictions and their backward shifts all run over
/// collisions.
struct ClumpyHash {
  size_t operator()(int k) const { return static_cast<size_t>(k / 5) * 12; }
};

void encode_key(util::BinaryWriter& w, int k) {
  w.u64(static_cast<uint64_t>(k));
}
void encode_value(util::BinaryWriter& w, const std::string& v) { w.str(v); }
int decode_key(util::BinaryReader& r) { return static_cast<int>(r.u64()); }
std::string decode_value(util::BinaryReader& r) { return r.str(); }

constexpr uint64_t kTag = 0x5eed;

/// The reference model: one list (front = most recent) and one ordered
/// map per stripe, stripe chosen as the store does.
template <typename Hash>
class ReferenceLru {
 public:
  ReferenceLru(size_t shards, size_t max_entries)
      : shards_(shards),
        cap_(max_entries == 0 ? 0
                              : std::max<size_t>(1, max_entries / shards)) {}

  std::optional<std::string> lookup(int key) {
    Shard& s = shard(key);
    const auto it = s.where.find(key);
    if (it == s.where.end()) {
      ++misses;
      return std::nullopt;
    }
    if (cap_ != 0) s.order.splice(s.order.begin(), s.order, it->second);
    ++hits;
    return it->second->second;
  }

  void insert(int key, const std::string& value) {
    Shard& s = shard(key);
    if (s.where.count(key) != 0) return;
    if (cap_ != 0 && s.where.size() >= cap_) {
      s.where.erase(s.order.back().first);
      s.order.pop_back();
      ++evictions;
    }
    s.order.emplace_front(key, value);
    s.where[key] = s.order.begin();
  }

  void clear() {
    for (Shard& s : shards_) {
      s.order.clear();
      s.where.clear();
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.where.size();
    return n;
  }

  /// Every resident entry, stripe by stripe, least recent first.
  std::vector<std::pair<int, std::string>> drain_order() const {
    std::vector<std::pair<int, std::string>> out;
    for (const Shard& s : shards_) {
      for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
        out.push_back(*it);
      }
    }
    return out;
  }

  /// The snapshot layout, written out field by field.
  std::string snapshot() const {
    util::BinaryWriter payload;
    const auto entries = drain_order();
    for (const auto& [k, v] : entries) {
      encode_key(payload, k);
      encode_value(payload, v);
    }
    util::BinaryWriter out;
    out.raw("EZCSNAP\n");
    out.u32(1);
    out.u64(kTag);
    out.u64(entries.size());
    out.u64(util::checksum64(payload.bytes()));
    out.raw(payload.bytes());
    return out.bytes();
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

 private:
  struct Shard {
    std::list<std::pair<int, std::string>> order;
    std::map<int, std::list<std::pair<int, std::string>>::iterator> where;
  };
  Shard& shard(int key) { return shards_[Hash{}(key) % shards_.size()]; }

  std::vector<Shard> shards_;
  size_t cap_;
};

template <typename Hash>
void run_sequence(size_t shards, size_t max_entries, uint64_t seed,
                  int key_range, int steps, int snapshot_every = 1) {
  SCOPED_TRACE("shards " + std::to_string(shards) + ", max_entries " +
               std::to_string(max_entries) + ", seed " +
               std::to_string(seed));
  ShardedCache<int, std::string, Hash> cache(shards, max_entries);
  ReferenceLru<Hash> ref(shards, max_entries);
  std::mt19937_64 rng(seed);
  std::string saved = ref.snapshot();  // a restore source; starts empty

  for (int step = 0; step < steps; ++step) {
    const int key =
        static_cast<int>(rng() % static_cast<uint64_t>(key_range));
    const uint64_t op = rng() % 100;
    if (op < 45) {
      const std::string value = "v" + std::to_string(rng() % 1000);
      cache.insert(key, value);
      ref.insert(key, value);
    } else if (op < 90) {
      std::string got = "untouched";
      const bool hit = cache.lookup(key, got);
      const auto want = ref.lookup(key);
      ASSERT_EQ(hit, want.has_value()) << "step " << step << " key " << key;
      if (hit) {
        ASSERT_EQ(got, *want) << "step " << step;
      }
    } else if (op < 93) {
      cache.clear();
      ref.clear();
    } else if (op < 97) {
      saved = cache.snapshot(kTag, encode_key, encode_value);
    } else {
      // Restore an earlier snapshot over the live entries: resident
      // keys win, new ones insert (and evict) in snapshot order.
      util::BinaryReader r(saved);
      r.raw(20);  // magic, format version, scheme tag
      const uint64_t count = r.u64();
      r.u64();  // checksum
      ASSERT_EQ(cache.restore(saved, kTag, decode_key, decode_value),
                count);
      for (uint64_t i = 0; i < count; ++i) {
        const int k = decode_key(r);
        ref.insert(k, decode_value(r));
      }
    }
    const CacheStats stats = cache.stats();
    ASSERT_EQ(stats.hits, ref.hits) << "step " << step;
    ASSERT_EQ(stats.misses, ref.misses) << "step " << step;
    ASSERT_EQ(stats.evictions, ref.evictions) << "step " << step;
    ASSERT_EQ(stats.entries, ref.size()) << "step " << step;
    ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
    if (step % snapshot_every == 0 || step + 1 == steps) {
      ASSERT_EQ(cache.snapshot(kTag, encode_key, encode_value),
                ref.snapshot())
          << "step " << step;
    }
  }
}

// max_entries 0 = unbounded; shards x1 = a per-stripe cap of 1; the
// rest are small caps that keep eviction running.
template <typename Hash>
void run_all_capacities() {
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    for (const size_t max_entries :
         {size_t{0}, shards, 2 * shards + 1, 5 * shards, 12 * shards}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        run_sequence<Hash>(shards, max_entries, seed, 48, 2500);
      }
    }
  }
}

TEST(ShardedCacheDifferential, MatchesReferenceLruWithSpreadKeys) {
  run_all_capacities<IdentityHash>();
}

TEST(ShardedCacheDifferential, MatchesReferenceLruWithCollidingKeys) {
  run_all_capacities<ClumpyHash>();
}

TEST(ShardedCacheDifferential, GrowsPastManyIndexResizes) {
  // Unbounded, then bounded, over a key range large enough that each
  // stripe's slab and index grow several times.
  run_sequence<IdentityHash>(4, 0, 7, 5000, 20000, 500);
  run_sequence<ClumpyHash>(4, 600, 8, 5000, 20000, 500);
}

TEST(ShardedCacheDifferential, RestoreRefusesCountThePayloadCannotHold) {
  ShardedCache<int, std::string> source(2);
  for (int k = 0; k < 10; ++k) source.insert(k, "x");
  const std::string good = source.snapshot(kTag, encode_key, encode_value);
  // Each entry is at least its 8-byte key plus an 8-byte length.
  constexpr size_t kMinEntry = 16;

  std::string bad = good;
  const uint64_t count = 11;  // 10 entries' bytes cannot back 11
  for (int i = 0; i < 8; ++i) {
    bad[20 + static_cast<size_t>(i)] = static_cast<char>(count >> (8 * i));
  }
  ShardedCache<int, std::string> target(2);
  target.insert(99, "resident");
  EXPECT_THROW(
      target.restore(bad, kTag, decode_key, decode_value, kMinEntry),
      util::CodecError);
  EXPECT_EQ(target.size(), 1u);  // nothing was inserted

  ShardedCache<int, std::string> fine(2);
  EXPECT_EQ(fine.restore(good, kTag, decode_key, decode_value, kMinEntry),
            10u);
}

}  // namespace
}  // namespace easyc::par
