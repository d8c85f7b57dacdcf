// Differential test of the ShardedCache slab store against a reference
// LRU written here from std::list + std::map, the textbook form of the
// semantics the store promises: first writer wins, a per-stripe cap,
// least-recently-used victims (lookup hits refresh recency only when
// the cache is bounded), snapshots drained stripe by stripe, least
// recent first. Seeded random sequences of insert, lookup, clear,
// snapshot and restore run against both; after every step the return
// values, the counters and the snapshot bytes must agree — equal
// snapshot bytes mean the same resident entries in the same recency
// order, so every eviction picked the same victim. The bulk sequences
// make inserts and lookups as insert_many / lookup_many runs of random
// length (duplicates included, some longer than one bucketing run) and
// apply each run key by key to the reference. A concurrent case checks
// that overlapping bulk runs from several threads leave every key
// resident once with its one value and consistent counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
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

/// How a sequence makes its inserts and lookups: one key per call, or
/// as insert_many / lookup_many runs.
enum class Calls { kSingle, kBulk };

/// A bulk run's length: mostly short, sometimes longer than the
/// store's 256-key bucketing run.
size_t run_length(std::mt19937_64& rng) {
  return rng() % 20 == 0 ? 200 + rng() % 200 : 1 + rng() % 40;
}

template <typename Hash>
void run_sequence(size_t shards, size_t max_entries, uint64_t seed,
                  int key_range, int steps, int snapshot_every = 1,
                  Calls calls = Calls::kSingle) {
  SCOPED_TRACE("shards " + std::to_string(shards) + ", max_entries " +
               std::to_string(max_entries) + ", seed " +
               std::to_string(seed) +
               (calls == Calls::kBulk ? ", bulk" : ", single"));
  ShardedCache<int, std::string, Hash> cache(shards, max_entries);
  ReferenceLru<Hash> ref(shards, max_entries);
  std::mt19937_64 rng(seed);
  std::string saved = ref.snapshot();  // a restore source; starts empty

  for (int step = 0; step < steps; ++step) {
    const int key =
        static_cast<int>(rng() % static_cast<uint64_t>(key_range));
    const uint64_t op = rng() % 100;
    if (calls == Calls::kBulk && op < 90) {
      std::vector<int> keys(run_length(rng));
      for (int& k : keys) {
        k = static_cast<int>(rng() % static_cast<uint64_t>(key_range));
      }
      if (op < 45) {
        std::vector<std::string> values;
        for (size_t i = 0; i < keys.size(); ++i) {
          values.push_back("v" + std::to_string(rng() % 1000));
        }
        cache.insert_many(
            keys.size(), [&](size_t i) { return keys[i]; },
            [&](size_t i) -> const std::string& { return values[i]; });
        for (size_t i = 0; i < keys.size(); ++i) ref.insert(keys[i], values[i]);
      } else {
        std::vector<std::optional<std::string>> got(keys.size());
        const size_t hits = cache.lookup_many(
            keys.size(), [&](size_t i) { return keys[i]; },
            [&](size_t i, const std::string& v) {
              ASSERT_FALSE(got[i].has_value()) << "key visited twice";
              got[i] = v;
            });
        size_t want_hits = 0;
        for (size_t i = 0; i < keys.size(); ++i) {
          const auto want = ref.lookup(keys[i]);
          ASSERT_EQ(got[i], want) << "step " << step << " run index " << i
                                  << " key " << keys[i];
          want_hits += want.has_value() ? 1 : 0;
        }
        ASSERT_EQ(hits, want_hits) << "step " << step;
      }
    } else if (op < 45) {
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
void run_all_capacities(Calls calls) {
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    for (const size_t max_entries :
         {size_t{0}, shards, 2 * shards + 1, 5 * shards, 12 * shards}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        run_sequence<Hash>(shards, max_entries, seed, 48, 2500, 1, calls);
      }
    }
  }
}

TEST(ShardedCacheDifferential, MatchesReferenceLruWithSpreadKeys) {
  run_all_capacities<IdentityHash>(Calls::kSingle);
}

TEST(ShardedCacheDifferential, MatchesReferenceLruWithCollidingKeys) {
  run_all_capacities<ClumpyHash>(Calls::kSingle);
}

TEST(ShardedCacheDifferential, BulkRunsMatchReferenceLruWithSpreadKeys) {
  run_all_capacities<IdentityHash>(Calls::kBulk);
}

TEST(ShardedCacheDifferential, BulkRunsMatchReferenceLruWithCollidingKeys) {
  run_all_capacities<ClumpyHash>(Calls::kBulk);
}

TEST(ShardedCacheDifferential, GrowsPastManyIndexResizes) {
  // Unbounded, then bounded, over a key range large enough that each
  // stripe's index grows several times and its slab spans more than
  // one chunk.
  for (const Calls calls : {Calls::kSingle, Calls::kBulk}) {
    run_sequence<IdentityHash>(4, 0, 7, 5000, 20000, 500, calls);
    run_sequence<ClumpyHash>(4, 600, 8, 5000, 20000, 500, calls);
  }
}

std::string value_of(int key) { return "value-" + std::to_string(key); }

// Four threads bulk-insert and bulk-look-up overlapping key runs (each
// thread walks the shared key range from its own offset, so every key
// is inserted by several threads). Afterwards every key is resident
// exactly once, every value read is the one value inserted for its
// key, and the counters add up to the lookups made.
template <typename Hash>
void run_concurrent_bulk(size_t shards) {
  SCOPED_TRACE("shards " + std::to_string(shards));
  constexpr int kThreads = 4;
  constexpr int kKeys = 6000;
  constexpr size_t kRun = 97;
  ShardedCache<int, std::string, Hash> cache(shards);
  std::vector<uint64_t> lookups(kThreads, 0);
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int> keys(kRun);
      for (int base = 0; base < kKeys; base += static_cast<int>(kRun)) {
        for (size_t i = 0; i < kRun; ++i) {
          keys[i] = (base + static_cast<int>(i) + t * kKeys / kThreads) % kKeys;
        }
        cache.lookup_many(
            kRun, [&](size_t i) { return keys[i]; },
            [&](size_t i, const std::string& v) {
              if (v != value_of(keys[i])) ++wrong[t];
            });
        cache.insert_many(
            kRun, [&](size_t i) { return keys[i]; },
            [&](size_t i) { return value_of(keys[i]); });
        cache.lookup_many(
            kRun, [&](size_t i) { return keys[i]; },
            [&](size_t i, const std::string& v) {
              if (v != value_of(keys[i])) ++wrong[t];
            });
        lookups[t] += 2 * kRun;
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  const CacheStats stats = cache.stats();
  uint64_t total_lookups = 0;
  for (const uint64_t n : lookups) total_lookups += n;
  EXPECT_EQ(stats.hits + stats.misses, total_lookups);
  // Each thread's second look at a run follows its own insert of it.
  EXPECT_GE(stats.hits, total_lookups / 2);
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));

  const std::string snap = cache.snapshot(kTag, encode_key, encode_value);
  util::BinaryReader r(snap);
  r.raw(20);
  ASSERT_EQ(r.u64(), static_cast<uint64_t>(kKeys));
  r.u64();
  std::vector<int> seen(kKeys, 0);
  for (int i = 0; i < kKeys; ++i) {
    const int k = decode_key(r);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, kKeys);
    ++seen[static_cast<size_t>(k)];
    EXPECT_EQ(decode_value(r), value_of(k));
  }
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(seen[static_cast<size_t>(k)], 1) << "key " << k;
  }
}

TEST(ShardedCacheDifferential, ConcurrentBulkRunsKeepOneEntryPerKey) {
  run_concurrent_bulk<IdentityHash>(16);
  run_concurrent_bulk<ClumpyHash>(3);
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
