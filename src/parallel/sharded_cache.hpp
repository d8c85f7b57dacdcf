// A lock-striped memo table for concurrent workers.
//
// The assessment engine's workload is many parallel cells looking up /
// inserting immutable results keyed by content fingerprints. A single
// mutex around one hash map would serialize the hot path; full
// lock-free machinery would be unauditable overkill. Lock striping is
// the middle ground this repo favors (see thread_pool.hpp): the key
// space is split over N independently-locked shards, so two workers
// collide only when their keys land on the same stripe.
//
// Semantics are memoization, not general caching: values for a key are
// assumed immutable (first writer wins; a racing duplicate insert is
// dropped), so readers can copy values out under the shard lock and
// never observe a torn update. When a capacity is set, each shard
// evicts its least-recently-used entry (lookup hits refresh recency) —
// correctness never depends on residency, only speed, but LRU keeps
// the hot working set resident under pressure and makes the victim
// deterministic for the eviction accounting.
//
// Each stripe is a slab: entries live in fixed-size chunks that never
// move, linked into recency order by index, and an open-addressing
// index (linear probing, backward-shift deletion) maps a key to its
// slot. An insert takes the next slot of the last chunk (a new chunk
// when it is full — earlier slots are never copied or re-faulted), an
// eviction reuses the victim's slot, and teardown frees a few chunks
// instead of a node per entry. Nothing is pre-sized: an empty cache
// owns no storage.
//
// Bulk callers use lookup_many() / insert_many(): a run of keys is
// hashed once and bucketed by stripe with a stable counting sort, each
// stripe's lock is taken once per run (at most kRunKeys keys, so a
// lock is never held long; a stripe another thread holds is left for a
// second sweep), and the index bucket of a key a few places ahead is
// prefetched while the current one probes. Per stripe, a run
// has exactly the effect of the same calls made one key at a time in
// the caller's order; lookup() and insert() are one-key runs through
// the same code.
//
// The table can be persisted: snapshot() serializes every entry under
// the stripe locks behind a checksummed, versioned header, and
// restore() loads such a snapshot back through the normal insert path.
// Stale (wrong version / scheme tag) or corrupt (bad magic, checksum,
// truncation) snapshots are rejected with util::CodecError, never
// trusted.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/serialize.hpp"

namespace easyc::par {

/// Counter snapshot of a cache's lifetime activity. hits/misses count
/// lookup() calls; evictions counts entries dropped to respect the
/// capacity bound; entries is the current resident count.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  /// Activity since an earlier snapshot of the same cache (counters
  /// are monotonic; `entries` stays the current value).
  CacheStats since(const CacheStats& earlier) const {
    CacheStats d;
    d.hits = hits - earlier.hits;
    d.misses = misses - earlier.misses;
    d.evictions = evictions - earlier.evictions;
    d.entries = entries;
    return d;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  /// Snapshot container format (the header layout below). Bump when the
  /// header or entry framing changes shape.
  static constexpr uint32_t kSnapshotFormatVersion = 1;
  /// First bytes of every snapshot; anything else is not a snapshot.
  static constexpr std::string_view kSnapshotMagic = "EZCSNAP\n";

  /// `max_entries` == 0 means unbounded; otherwise the bound is
  /// enforced per shard (max_entries / num_shards, minimum 1), so the
  /// total resident count stays within ~max_entries.
  explicit ShardedCache(size_t num_shards = 16, size_t max_entries = 0)
      : shards_(num_shards == 0 ? 1 : num_shards) {
    per_shard_cap_ =
        max_entries == 0 ? 0 : std::max<size_t>(1, max_entries / shards_.size());
  }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Copy the value for `key` into `out` if resident. Counts one hit
  /// or one miss; on a capacity-bounded cache a hit also refreshes the
  /// entry's recency.
  bool lookup(const Key& key, Value& out) const {
    return lookup_many(
               1, [&](size_t) -> const Key& { return key; },
               [&](size_t, const Value& v) { out = v; }) == 1;
  }

  /// Memoize `value` for `key`. First writer wins: if the key is
  /// already resident the call is a no-op (values per key are assumed
  /// identical, so dropping the duplicate is sound; recency is not
  /// refreshed — only real lookups are uses). At capacity, the shard's
  /// least-recently-used entry is evicted and its slot reused.
  void insert(const Key& key, Value value) {
    insert_many(
        1, [&](size_t) -> const Key& { return key; },
        [&](size_t) -> Value&& { return std::move(value); });
  }

  /// lookup() of key_at(0) .. key_at(n - 1): each resident key's value
  /// is passed to on_hit(i, value), under its stripe's lock, so on_hit
  /// should only copy it out and must not call back into the cache.
  /// Counters and recency move exactly as n lookup() calls in index
  /// order would. Returns the number of hits.
  template <typename KeyAt, typename OnHit>
  size_t lookup_many(size_t n, KeyAt&& key_at, OnHit&& on_hit) const {
    size_t hits = 0;
    for_each_by_stripe(n, key_at, [&](size_t s, size_t i, uint32_t hk) {
      const Shard& shard = shards_[s];
      const uint32_t slot = shard.find(key_at(i), hk);
      if (slot == kNil) {
        ++shard.misses;
        return;
      }
      // Recency only matters when eviction can happen; unbounded caches
      // skip the relink on the hot memoization path (their snapshot
      // order degrades to insertion order, which restore() handles
      // identically).
      if (per_shard_cap_ != 0) {
        shard.unlink(slot);
        shard.link_front(slot);
      }
      ++shard.hits;
      ++hits;
      on_hit(i, shard.at(slot).value);
    });
    return hits;
  }

  /// insert() of (key_at(i), value_at(i)) for i in [0, n), with the
  /// same effect as n insert() calls in index order. value_at(i) is
  /// called, under the stripe's lock, only for a key that is actually
  /// stored; like on_hit it must not call back into the cache.
  template <typename KeyAt, typename ValueAt>
  void insert_many(size_t n, KeyAt&& key_at, ValueAt&& value_at) {
    for_each_by_stripe(n, key_at, [&](size_t s, size_t i, uint32_t hk) {
      Shard& shard = shards_[s];
      const Key& key = key_at(i);
      if (shard.find(key, hk) != kNil) return;
      uint32_t slot;
      if (per_shard_cap_ != 0 && shard.count >= per_shard_cap_) {
        slot = shard.tail;
        shard.erase_index(slot);
        shard.unlink(slot);
        ++shard.evictions;
      } else {
        slot = shard.add_slot();
      }
      Slot& entry = shard.at(slot);
      entry.key = key;
      entry.value = value_at(i);
      entry.hash = hk;
      shard.link_front(slot);
      shard.index_insert(slot);
    });
  }

  /// lookup(); on miss, compute (outside any lock — `make` may be
  /// expensive and may itself use the pool) and insert. Racing callers
  /// for one key may each compute, but all return identical values.
  template <typename Make>
  Value get_or_compute(const Key& key, Make&& make) {
    Value v;
    if (lookup(key, v)) return v;
    v = make();
    insert(key, v);
    return v;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.count;
    }
    return n;
  }

  /// Drop all entries and free their storage. Counters (hits/misses/
  /// evictions) keep running; take a stats() snapshot and diff with
  /// CacheStats::since instead.
  void clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      std::vector<std::unique_ptr<Slot[]>>().swap(s.chunks);
      std::vector<Bucket>().swap(s.index);
      s.count = 0;
      s.head = s.tail = kNil;
    }
  }

  CacheStats stats() const {
    CacheStats out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
      out.entries += s.count;
    }
    return out;
  }

  /// Serialize every resident entry. `scheme_tag` names the key/value
  /// scheme (fingerprint algorithm + value codec version); restore()
  /// refuses a snapshot whose tag differs, so a semantically stale file
  /// can never poison the cache. Layout:
  ///
  ///   magic "EZCSNAP\n"        8 bytes
  ///   format version           u32 (kSnapshotFormatVersion)
  ///   scheme tag               u64 (caller-defined)
  ///   entry count              u64
  ///   payload checksum         u64 (FNV-1a over the payload bytes)
  ///   payload                  count x (encode_key, encode_value)
  ///
  /// Shards are drained in index order under their stripe locks,
  /// least-recently-used entries first, so restore()'s inserts rebuild
  /// the same per-shard recency order.
  template <typename EncodeKey, typename EncodeValue>
  std::string snapshot(uint64_t scheme_tag, EncodeKey&& encode_key,
                       EncodeValue&& encode_value) const {
    util::BinaryWriter payload;
    uint64_t count = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      for (uint32_t i = s.tail; i != kNil; i = s.at(i).prev) {
        encode_key(payload, s.at(i).key);
        encode_value(payload, s.at(i).value);
        ++count;
      }
    }
    util::BinaryWriter out;
    out.raw(kSnapshotMagic);
    out.u32(kSnapshotFormatVersion);
    out.u64(scheme_tag);
    out.u64(count);
    out.u64(util::checksum64(payload.bytes()));
    out.raw(payload.bytes());
    return out.bytes();
  }

  /// Load a snapshot() buffer through the normal insert path (resident
  /// keys win over snapshot entries; capacity eviction applies).
  /// Returns the number of entries the snapshot carried. Throws
  /// util::CodecError on bad magic, a format/scheme mismatch, an entry
  /// count the payload cannot hold at `min_entry_bytes` per entry, a
  /// checksum failure, truncation, or trailing bytes — the count and
  /// checksum checks run before anything is inserted.
  template <typename DecodeKey, typename DecodeValue>
  size_t restore(std::string_view bytes, uint64_t scheme_tag,
                 DecodeKey&& decode_key, DecodeValue&& decode_value,
                 size_t min_entry_bytes = 1) {
    util::BinaryReader r(bytes);
    if (r.raw(kSnapshotMagic.size()) != kSnapshotMagic) {
      throw util::CodecError("not a cache snapshot (bad magic)");
    }
    const uint32_t version = r.u32();
    if (version != kSnapshotFormatVersion) {
      throw util::CodecError(
          "snapshot format version " + std::to_string(version) +
          ", expected " + std::to_string(kSnapshotFormatVersion));
    }
    const uint64_t tag = r.u64();
    if (tag != scheme_tag) {
      throw util::CodecError(
          "snapshot was written under a different key/value scheme "
          "(stale fingerprint algorithm or codec); refusing to load");
    }
    const uint64_t count = r.u64();
    const uint64_t checksum = r.u64();
    const uint64_t payload_bytes = r.remaining();
    if (count > payload_bytes / std::max<size_t>(1, min_entry_bytes)) {
      throw util::CodecError(
          "snapshot claims " + std::to_string(count) + " entries but its " +
          std::to_string(payload_bytes) + "-byte payload cannot hold them");
    }
    if (checksum != util::checksum64(r.rest())) {
      throw util::CodecError("snapshot payload checksum mismatch");
    }
    for (uint64_t i = 0; i < count; ++i) {
      Key key = decode_key(r);
      Value value = decode_value(r);
      insert(std::move(key), std::move(value));
    }
    if (!r.exhausted()) {
      throw util::CodecError("snapshot has trailing bytes after " +
                             std::to_string(count) + " entries");
    }
    return static_cast<size_t>(count);
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  /// Most keys a bulk call buckets at once, and so the most it handles
  /// under one stripe lock; longer calls run in several runs.
  static constexpr size_t kRunKeys = 128;
  /// How many keys ahead of the probing one a run prefetches.
  static constexpr size_t kPrefetchAhead = 4;

  /// The 32 hash bits a stripe indexes by: the top bits pick the home
  /// bucket, all of them pre-filter key compares. Mixed from the full
  /// hash so they are independent of the bits that picked the stripe.
  static uint32_t hash32(size_t h) {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(h) * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  struct Slot {
    Key key;
    Value value;
    uint32_t prev = kNil;  ///< toward the most recently used
    uint32_t next = kNil;  ///< toward the least recently used
    uint32_t hash = 0;     ///< hash32(key)
  };

  /// Slots per slab chunk: the largest power of two that fits 64 KiB
  /// (256 memo cells), at least 16.
  static constexpr uint32_t kChunkShift = static_cast<uint32_t>(
      std::bit_width(std::max<size_t>(16, 65536 / sizeof(Slot))) - 1);
  static constexpr uint32_t kChunkMask = (uint32_t{1} << kChunkShift) - 1;

  /// Index bucket: slot + 1 (0 = empty) and the slot's hash32.
  struct Bucket {
    uint32_t slot1 = 0;
    uint32_t hash = 0;
  };

  /// One stripe. Everything is guarded by `mu`. A const lookup refreshes
  /// and counts under the lock: slots are reached through the chunk
  /// pointers, and the list ends and counters are mutable.
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Slot[]>> chunks;
    uint32_t count = 0;         ///< slots in use
    std::vector<Bucket> index;  ///< power-of-two size, at most half full
    mutable uint32_t head = kNil;  ///< most recently used
    mutable uint32_t tail = kNil;  ///< least recently used
    mutable uint64_t hits = 0;
    mutable uint64_t misses = 0;
    uint64_t evictions = 0;

    Slot& at(uint32_t slot) const {
      return chunks[slot >> kChunkShift][slot & kChunkMask];
    }

    /// The next unused slot, in a new chunk when the last one is full.
    uint32_t add_slot() {
      if ((count & kChunkMask) == 0) {
        chunks.push_back(
            std::make_unique_for_overwrite<Slot[]>(size_t{1} << kChunkShift));
      }
      return count++;
    }

    size_t home(uint32_t hash) const {
      return static_cast<size_t>(hash) >>
             (32 - std::countr_zero(index.size()));
    }

    void prefetch_home(uint32_t hash) const {
      if (!index.empty()) __builtin_prefetch(&index[home(hash)]);
    }

    uint32_t find(const Key& key, uint32_t hash) const {
      if (index.empty()) return kNil;
      const size_t mask = index.size() - 1;
      for (size_t b = home(hash);; b = (b + 1) & mask) {
        const Bucket& bucket = index[b];
        if (bucket.slot1 == 0) return kNil;
        if (bucket.hash == hash && at(bucket.slot1 - 1).key == key) {
          return bucket.slot1 - 1;
        }
      }
    }

    /// Index `slot` (its key is known absent), growing the index first
    /// when it would pass half full.
    void index_insert(uint32_t slot) {
      if (2 * size_t{count} > index.size()) {
        std::vector<Bucket> old(std::max<size_t>(8, 2 * index.size()));
        old.swap(index);
        for (const Bucket& b : old) {
          if (b.slot1 != 0) place(b);
        }
      }
      place(Bucket{slot + 1, at(slot).hash});
    }

    void place(Bucket bucket) {
      const size_t mask = index.size() - 1;
      size_t b = home(bucket.hash);
      while (index[b].slot1 != 0) b = (b + 1) & mask;
      index[b] = bucket;
    }

    /// Remove `slot` from the index, shifting later members of its
    /// probe run back so lookups never need tombstones.
    void erase_index(uint32_t slot) {
      const size_t mask = index.size() - 1;
      size_t hole = home(at(slot).hash);
      while (index[hole].slot1 != slot + 1) hole = (hole + 1) & mask;
      for (size_t b = (hole + 1) & mask; index[b].slot1 != 0;
           b = (b + 1) & mask) {
        // An entry may fill the hole unless its home lies cyclically
        // in (hole, b] — moving it before its home would hide it.
        const size_t h = home(index[b].hash);
        if (((b - h) & mask) >= ((b - hole) & mask)) {
          index[hole] = index[b];
          hole = b;
        }
      }
      index[hole] = Bucket{};
    }

    void link_front(uint32_t slot) const {
      Slot& s = at(slot);
      s.prev = kNil;
      s.next = head;
      if (head != kNil) at(head).prev = slot;
      head = slot;
      if (tail == kNil) tail = slot;
    }

    void unlink(uint32_t slot) const {
      const Slot& s = at(slot);
      if (s.prev != kNil) {
        at(s.prev).next = s.next;
      } else {
        head = s.next;
      }
      if (s.next != kNil) {
        at(s.next).prev = s.prev;
      } else {
        tail = s.prev;
      }
    }
  };

  /// Bucketing arrays of the bulk calls, one set per thread, so a call
  /// allocates nothing once its thread has made a first one.
  struct RunBuckets {
    std::vector<uint32_t> stripe_end;  ///< counting-sort cursors
    std::vector<uint32_t> busy;        ///< stripes left for the second sweep
    std::array<uint32_t, kRunKeys> stripe{};
    std::array<uint32_t, kRunKeys> hash{};
    std::array<uint32_t, kRunKeys> order{};
  };
  static RunBuckets& run_buckets() {
    thread_local RunBuckets run;
    return run;
  }

  /// Call visit(stripe, i, hash32) for every i in [0, n) with the
  /// stripe of key_at(i) locked. Keys are taken in runs of kRunKeys:
  /// each run is hashed once and bucketed by stripe with a stable
  /// counting sort, and each stripe it touches is locked once, its keys
  /// visited in index order while the home bucket of a key
  /// kPrefetchAhead places on is prefetched. A stripe another thread
  /// holds is skipped and taken on a second sweep, so concurrent runs
  /// do not queue behind each other stripe after stripe.
  template <typename KeyAt, typename Visit>
  void for_each_by_stripe(size_t n, KeyAt& key_at, Visit&& visit) const {
    const size_t num_shards = shards_.size();
    if (n == 1) {
      const size_t h = Hash{}(key_at(0));
      const size_t s = h % num_shards;
      std::lock_guard<std::mutex> lock(shards_[s].mu);
      visit(s, 0, hash32(h));
      return;
    }
    RunBuckets& run = run_buckets();
    for (size_t base = 0; base < n; base += kRunKeys) {
      const size_t m = std::min(kRunKeys, n - base);
      run.stripe_end.assign(num_shards + 1, 0);
      for (size_t k = 0; k < m; ++k) {
        const size_t h = Hash{}(key_at(base + k));
        run.stripe[k] = static_cast<uint32_t>(h % num_shards);
        run.hash[k] = hash32(h);
        ++run.stripe_end[run.stripe[k] + 1];
      }
      for (size_t s = 1; s <= num_shards; ++s) {
        run.stripe_end[s] += run.stripe_end[s - 1];
      }
      // Placing advances each stripe's cursor from its first position
      // to one past its last, so stripe s then spans
      // [stripe_end[s - 1], stripe_end[s]) (from 0 for stripe 0).
      for (size_t k = 0; k < m; ++k) {
        run.order[run.stripe_end[run.stripe[k]]++] = static_cast<uint32_t>(k);
      }
      auto visit_stripe = [&](size_t s) {
        const Shard& shard = shards_[s];
        const uint32_t last = run.stripe_end[s];
        for (uint32_t j = s == 0 ? 0 : run.stripe_end[s - 1]; j < last; ++j) {
          if (j + kPrefetchAhead < last) {
            shard.prefetch_home(run.hash[run.order[j + kPrefetchAhead]]);
          }
          const uint32_t k = run.order[j];
          visit(s, base + k, run.hash[k]);
        }
      };
      run.busy.clear();
      for (size_t s = 0; s < num_shards; ++s) {
        if (run.stripe_end[s] == (s == 0 ? 0 : run.stripe_end[s - 1])) {
          continue;
        }
        std::unique_lock<std::mutex> lock(shards_[s].mu, std::try_to_lock);
        if (lock.owns_lock()) {
          visit_stripe(s);
        } else {
          run.busy.push_back(static_cast<uint32_t>(s));
        }
      }
      for (const uint32_t s : run.busy) {
        std::lock_guard<std::mutex> lock(shards_[s].mu);
        visit_stripe(s);
      }
    }
  }

  std::vector<Shard> shards_;
  size_t per_shard_cap_ = 0;
};

}  // namespace easyc::par
