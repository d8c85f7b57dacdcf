#include "parallel/algorithms.hpp"
#include "parallel/sharded_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace easyc::par {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must finish all queued work
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(pool, 0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](size_t i) {
                     if (i == 57) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelForInterleaved, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(3000);
    parallel_for_interleaved(pool, 0, hits.size(),
                             [&](size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    int calls = 0;
    parallel_for_interleaved(pool, 4, 4, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
  }
}

TEST(ParallelForInterleaved, PropagatesBodyExceptionAndStopsStarting) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for_interleaved(pool, 0, 100,
                                        [&](size_t i) {
                                          ++ran;
                                          if (i == 7) {
                                            throw std::runtime_error("bad");
                                          }
                                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // one thread: indices run in order
}

TEST(ParallelForInterleaved, WorkSubmittedMidPassRunsBeforeThePassEnds) {
  // One worker: the pass keeps a single task queued, so a task submitted
  // while index 0 runs goes next, not after the other 199 indices.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  std::future<int> seen;
  parallel_for_interleaved(pool, 0, 200, [&](size_t i) {
    if (i == 0) seen = pool.submit([&] { return done.load(); });
    ++done;
  });
  EXPECT_EQ(seen.get(), 1);
  EXPECT_EQ(done.load(), 200);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ThreadPool pool(4);
  auto out = parallel_map(pool, 0, 1000,
                          [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelReduce, MatchesSerialSum) {
  ThreadPool pool(4);
  const size_t n = 100000;
  const long long expected = static_cast<long long>(n) * (n - 1) / 2;
  const long long got = parallel_reduce<long long>(
      pool, 0, n, 0LL, [](size_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(got, expected);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const int got = parallel_reduce<int>(
      pool, 10, 10, 123, [](size_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 123);
}

// Property sweep: results must be independent of pool size.
class PoolSizeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PoolSizeSweep, ReduceIsDeterministicAcrossPoolSizes) {
  ThreadPool pool(GetParam());
  const long long got = parallel_reduce<long long>(
      pool, 0, 9999, 0LL, [](size_t i) { return static_cast<long long>(i); },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(got, 9999LL * 9998 / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

TEST(ShardedCache, LookupInsertRoundTripAndStats) {
  ShardedCache<int, std::string> cache(4);
  std::string out;
  EXPECT_FALSE(cache.lookup(1, out));
  cache.insert(1, "one");
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, "one");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ShardedCache, FirstWriterWins) {
  ShardedCache<int, int> cache(2);
  cache.insert(7, 70);
  cache.insert(7, 71);  // duplicate for an immutable key: dropped
  int out = 0;
  ASSERT_TRUE(cache.lookup(7, out));
  EXPECT_EQ(out, 70);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, CapacityBoundEvicts) {
  ShardedCache<int, int> cache(1, 4);
  for (int i = 0; i < 100; ++i) cache.insert(i, i);
  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 96u);
}

TEST(ShardedCache, EvictsLeastRecentlyUsedFirst) {
  // Single shard, capacity 3: the victim must be the entry touched
  // longest ago, with lookup hits counting as touches.
  ShardedCache<int, int> cache(1, 3);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);
  int out = 0;
  ASSERT_TRUE(cache.lookup(1, out));  // refresh 1; LRU order is now 2,3,1

  cache.insert(4, 40);  // evicts 2
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_TRUE(cache.lookup(3, out));
  EXPECT_TRUE(cache.lookup(4, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedCache, EvictionFollowsInsertionOrderWithoutTouches) {
  ShardedCache<int, int> cache(1, 3);
  for (int i = 0; i < 6; ++i) cache.insert(i, i);
  // 0,1,2 inserted then evicted in that order as 3,4,5 arrived.
  int out = 0;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(cache.lookup(i, out)) << i;
  for (int i = 3; i < 6; ++i) EXPECT_TRUE(cache.lookup(i, out)) << i;
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ShardedCache, DuplicateInsertDoesNotEvictOrRefresh) {
  ShardedCache<int, int> cache(1, 2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(1, 11);  // dropped duplicate: no eviction, no refresh
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(3, 30);  // 1 is still the least recently used
  int out = 0;
  EXPECT_FALSE(cache.lookup(1, out));
  ASSERT_TRUE(cache.lookup(2, out));
  EXPECT_EQ(out, 20);
}

TEST(ShardedCache, SnapshotRestoreRoundTripPreservesEntriesAndOrder) {
  ShardedCache<int, std::string> cache(1, 3);
  cache.insert(1, "one");
  cache.insert(2, "two");
  cache.insert(3, "three");
  std::string s;
  ASSERT_TRUE(cache.lookup(1, s));  // LRU order: 2,3,1

  const auto encode_key = [](util::BinaryWriter& w, int k) {
    w.u64(static_cast<uint64_t>(k));
  };
  const auto encode_value = [](util::BinaryWriter& w, const std::string& v) {
    w.str(v);
  };
  const auto decode_key = [](util::BinaryReader& r) {
    return static_cast<int>(r.u64());
  };
  const auto decode_value = [](util::BinaryReader& r) { return r.str(); };

  const std::string bytes = cache.snapshot(77, encode_key, encode_value);
  ShardedCache<int, std::string> back(1, 3);
  EXPECT_EQ(back.restore(bytes, 77, decode_key, decode_value), 3u);
  EXPECT_EQ(back.size(), 3u);

  // Recency order survived the round trip: under pressure the restored
  // cache evicts the same victim (2) the original would. Probe only
  // after the eviction — lookups themselves refresh recency.
  back.insert(4, "four");
  EXPECT_FALSE(back.lookup(2, s));
  ASSERT_TRUE(back.lookup(1, s));
  EXPECT_EQ(s, "one");
  ASSERT_TRUE(back.lookup(3, s));
  EXPECT_EQ(s, "three");
  EXPECT_TRUE(back.lookup(4, s));

  // A scheme-tag mismatch is a stale snapshot: rejected untouched.
  ShardedCache<int, std::string> other(1, 3);
  EXPECT_THROW(other.restore(bytes, 78, decode_key, decode_value),
               util::CodecError);
  EXPECT_EQ(other.size(), 0u);
  // And arbitrary bytes are not a snapshot.
  EXPECT_THROW(other.restore("not a snapshot at all", 77, decode_key,
                             decode_value),
               util::CodecError);
}

TEST(ShardedCache, GetOrComputeMemoizes) {
  ShardedCache<int, int> cache(4);
  std::atomic<int> computed{0};
  auto square = [&](int k) {
    return cache.get_or_compute(k, [&] {
      ++computed;
      return k * k;
    });
  };
  EXPECT_EQ(square(6), 36);
  EXPECT_EQ(square(6), 36);
  EXPECT_EQ(computed.load(), 1);
}

TEST(ShardedCache, SnapshotWhileWorkersMutateIsRaceFreeAndCoherent) {
  // The TSan acceptance case: snapshot() drains the stripes while
  // workers keep memoizing. Every snapshot taken mid-flight must be a
  // coherent prefix of the key space (each entry internally intact),
  // and restoring it must reproduce only correct values.
  ThreadPool pool(4);
  ShardedCache<size_t, size_t> cache(8);
  const auto encode_key = [](util::BinaryWriter& w, size_t k) { w.u64(k); };
  const auto encode_value = [](util::BinaryWriter& w, size_t v) { w.u64(v); };
  const auto decode_key = [](util::BinaryReader& r) {
    return static_cast<size_t>(r.u64());
  };
  const auto decode_value = [](util::BinaryReader& r) {
    return static_cast<size_t>(r.u64());
  };

  std::atomic<bool> done{false};
  auto snapshotter = pool.submit([&] {
    std::vector<std::string> taken;
    while (!done.load()) {
      taken.push_back(cache.snapshot(5, encode_key, encode_value));
    }
    taken.push_back(cache.snapshot(5, encode_key, encode_value));
    return taken;
  });

  parallel_for(pool, 0, 20000, [&](size_t i) {
    const size_t key = i % 509;
    const size_t v = cache.get_or_compute(key, [&] { return key * 7 + 1; });
    ASSERT_EQ(v, key * 7 + 1);
  });
  done.store(true);

  const auto snapshots = snapshotter.get();
  ASSERT_FALSE(snapshots.empty());
  for (const std::string& bytes : snapshots) {
    ShardedCache<size_t, size_t> restored(8);
    restored.restore(bytes, 5, decode_key, decode_value);
    for (size_t key = 0; key < 509; ++key) {
      size_t v = 0;
      if (restored.lookup(key, v)) {
        EXPECT_EQ(v, key * 7 + 1);
      }
    }
  }
  // The final snapshot (after all workers finished) carries everything.
  ShardedCache<size_t, size_t> full(8);
  EXPECT_EQ(full.restore(snapshots.back(), 5, decode_key, decode_value),
            509u);
}

TEST(ShardedCache, ConcurrentMixedUseIsConsistent) {
  ThreadPool pool(4);
  ShardedCache<size_t, size_t> cache(8);
  // Many workers memoizing an overlapping key space: every returned
  // value must be the pure function of its key.
  parallel_for(pool, 0, 10000, [&](size_t i) {
    const size_t key = i % 257;
    const size_t v = cache.get_or_compute(key, [&] { return key * 3; });
    ASSERT_EQ(v, key * 3);
  });
  EXPECT_EQ(cache.size(), 257u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 10000u);
  EXPECT_GE(stats.hits, 10000u - 257u * 4u);  // racing first computes allowed
}

TEST(ShardedCache, ClearDropsEntriesKeepsCounters) {
  ShardedCache<int, int> cache(2);
  cache.insert(1, 1);
  int out;
  cache.lookup(1, out);
  const auto before = cache.stats();
  cache.clear();
  const auto after = cache.stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_FALSE(cache.lookup(1, out));
  EXPECT_EQ(after.since(before).hits, 0u);
}

TEST(GlobalPool, IsUsable) {
  std::atomic<int> n{0};
  parallel_for(0, 100, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

}  // namespace
}  // namespace easyc::par
