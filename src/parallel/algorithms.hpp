// Data-parallel building blocks on top of ThreadPool.
//
// Chunking strategy: the index range is cut into ~4 chunks per worker so
// that mild load imbalance (e.g. accelerator-rich systems cost more to
// model than CPU-only ones) is absorbed without fine-grained queueing.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace easyc::par {

/// Invoke f(i) for every i in [begin, end) across the pool. Blocks until
/// complete. The body must not throw for indices it cannot handle —
/// exceptions propagate out of parallel_for after all chunks finish or
/// fail.
template <typename F>
void parallel_for(ThreadPool& pool, size_t begin, size_t end, F&& f) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t nchunks =
      std::min<size_t>(n, static_cast<size_t>(pool.size()) * 4);
  const size_t chunk = (n + nchunks - 1) / nchunks;

  std::vector<std::future<void>> futures;
  futures.reserve(nchunks);
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t lo = begin + c * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(pool.submit([lo, hi, &f] {
      for (size_t i = lo; i < hi; ++i) f(i);
    }));
  }
  // Collect all first so every chunk completes even if one throws; then
  // rethrow the first failure.
  std::exception_ptr first_error;
  for (auto& fut : futures) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Invoke f(i) for every i in [begin, end) across a pool other callers
/// share, without holding them up. parallel_for queues its whole range
/// at once, so a task submitted mid-pass waits for all of it; here at
/// most pool.size() tasks of the pass are queued at any time — each runs
/// one index, then re-queues itself while indices remain — so work
/// submitted meanwhile waits behind at most that many indices. Indices
/// start in ascending order. Blocks until complete; after a body throws
/// no further index starts, and the first exception propagates once
/// the running ones finish.
template <typename F>
void parallel_for_interleaved(ThreadPool& pool, size_t begin, size_t end,
                              F&& f) {
  if (begin >= end) return;
  struct Pass {
    Pass(ThreadPool& p, F& body, size_t first, size_t last)
        : pool(p), f(body), end(last), next(first) {}
    ThreadPool& pool;
    F& f;
    size_t end;
    std::atomic<size_t> next;
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable done;
    size_t live = 0;  ///< task chains not yet retired (guarded by mu)
    std::exception_ptr error;
  };
  Pass pass(pool, f, begin, end);
  // One chain: run an index, then re-queue itself or retire.
  struct Step {
    Pass* pass;
    void operator()() const {
      Pass& p = *pass;
      const size_t i = p.next.fetch_add(1, std::memory_order_relaxed);
      if (i < p.end && !p.failed.load(std::memory_order_relaxed)) {
        try {
          p.f(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(p.mu);
          if (!p.error) p.error = std::current_exception();
          p.failed.store(true, std::memory_order_relaxed);
        }
      }
      if (p.next.load(std::memory_order_relaxed) < p.end &&
          !p.failed.load(std::memory_order_relaxed)) {
        p.pool.submit(Step{pass});
        return;
      }
      std::lock_guard<std::mutex> lock(p.mu);
      if (--p.live == 0) p.done.notify_one();
    }
  };
  const size_t width = std::min<size_t>(end - begin, pool.size());
  pass.live = width;
  for (size_t w = 0; w < width; ++w) pool.submit(Step{&pass});
  std::unique_lock<std::mutex> lock(pass.mu);
  pass.done.wait(lock, [&] { return pass.live == 0; });
  if (pass.error) std::rethrow_exception(pass.error);
}

/// parallel_for on the process-global pool.
template <typename F>
void parallel_for(size_t begin, size_t end, F&& f) {
  parallel_for(ThreadPool::global(), begin, end, std::forward<F>(f));
}

/// Map f over [begin, end), materializing results in index order.
template <typename F>
auto parallel_map(ThreadPool& pool, size_t begin, size_t end, F&& f)
    -> std::vector<decltype(f(size_t{0}))> {
  using R = decltype(f(size_t{0}));
  std::vector<R> out(end > begin ? end - begin : 0);
  parallel_for(pool, begin, end,
               [&](size_t i) { out[i - begin] = f(i); });
  return out;
}

/// Reduction: combine f(i) over [begin, end) with `combine`, starting
/// from `init`. `combine` must be associative and commutative; each
/// chunk reduces locally and chunk results fold serially, so the result
/// is deterministic for exact operations and stable within floating
/// error for sums.
template <typename T, typename F, typename Combine>
T parallel_reduce(ThreadPool& pool, size_t begin, size_t end, T init, F&& f,
                  Combine&& combine) {
  if (begin >= end) return init;
  const size_t n = end - begin;
  const size_t nchunks =
      std::min<size_t>(n, static_cast<size_t>(pool.size()) * 4);
  const size_t chunk = (n + nchunks - 1) / nchunks;

  std::vector<std::future<T>> futures;
  for (size_t c = 0; c < nchunks; ++c) {
    const size_t lo = begin + c * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(pool.submit([lo, hi, init, &f, &combine]() -> T {
      T acc = init;
      for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
      return acc;
    }));
  }
  T total = init;
  std::exception_ptr first_error;
  for (auto& fut : futures) {
    try {
      total = combine(total, fut.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return total;
}

}  // namespace easyc::par
