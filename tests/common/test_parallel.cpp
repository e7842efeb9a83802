// Concurrency tests for the deterministic parallel runtime. These exercise
// the thread pool under contention and are the primary target of the TSAN
// build (tools/run_sanitizer_tests.sh thread); they intentionally mutate the
// process-wide thread count, which is why they live in their own binary.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace clear {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  constexpr std::size_t kChunks = 10000;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run(kChunks, [&](std::size_t chunk, std::size_t worker) {
    EXPECT_LT(chunk, kChunks);
    EXPECT_LE(worker, 3u);  // Workers 0..2 plus the caller (index 3).
    hits[chunk].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t c = 0; c < kChunks; ++c)
    ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::size_t count = 0;
  pool.run(100, [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++count;  // Safe: single-threaded by construction.
  });
  EXPECT_EQ(count, 100u);
}

TEST(ThreadPool, BackToBackJobsReuseWorkers) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run(37, [&](std::size_t, std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 37);
  }
}

TEST(ParallelFor, TinyTasksAllComplete) {
  const NumThreadsGuard guard(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ChunkLayoutIndependentOfThreadCount) {
  const auto layout_at = [](std::size_t threads) {
    const NumThreadsGuard guard(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks(8);
    parallel_for_chunks(3, 50, 7,
                        [&](std::size_t c, std::size_t lo, std::size_t hi) {
                          chunks[c] = {lo, hi};
                        });
    return chunks;
  };
  const auto serial = layout_at(1);
  EXPECT_EQ(serial[0], (std::pair<std::size_t, std::size_t>{3, 10}));
  EXPECT_EQ(serial[6], (std::pair<std::size_t, std::size_t>{45, 50}));
  EXPECT_EQ(layout_at(4), serial);
  EXPECT_EQ(layout_at(16), serial);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  const NumThreadsGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 1,
                   [&](std::size_t lo, std::size_t) {
                     if (lo == 500) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after a throwing region.
  std::atomic<int> count{0};
  parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, ExceptionPropagatesInline) {
  const NumThreadsGuard guard(1);
  EXPECT_THROW(parallel_for(0, 10, 1,
                            [](std::size_t, std::size_t) {
                              throw std::runtime_error("serial boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline) {
  const NumThreadsGuard guard(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_region_flag{false};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    if (in_parallel_region()) saw_region_flag.store(true);
    // Nested region: must execute inline on this thread without deadlock.
    int local = 0;
    parallel_for(0, 100, 10, [&](std::size_t lo, std::size_t hi) {
      local += static_cast<int>(hi - lo);  // Inline => no race on local.
    });
    inner_total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(inner_total.load(), 8 * 100);
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, SingleThreadMatchesPlainLoop) {
  const NumThreadsGuard guard(1);
  EXPECT_EQ(num_threads(), 1u);
  std::vector<std::size_t> order;
  parallel_for(0, 64, 5, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // Inline execution is strictly ordered.
}

TEST(ParallelForWorkers, WorkerIndicesAreDenseAndScratchIsPrivate) {
  const NumThreadsGuard guard(4);
  ASSERT_EQ(parallel_workers(), 4u);
  std::vector<std::size_t> per_worker(parallel_workers(), 0);
  parallel_for_workers(0, 1000, 1,
                       [&](std::size_t worker, std::size_t lo, std::size_t hi) {
                         ASSERT_LT(worker, 4u);
                         per_worker[worker] += hi - lo;  // Disjoint slots.
                       });
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(),
                            std::size_t{0}),
            1000u);
}

TEST(ParallelReduce, ContendedStressIsBitIdenticalToSerial) {
  // An FP sum whose result depends on association: catches both data races
  // (under TSAN) and ordering bugs (value mismatch vs 1 thread).
  const auto noisy_sum = [] {
    return parallel_reduce(
        0, 100000, 64, 0.0,
        [](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i)
            s += std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / 3.0;
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  double serial = 0.0;
  {
    const NumThreadsGuard guard(1);
    serial = noisy_sum();
  }
  const NumThreadsGuard guard(8);
  for (int round = 0; round < 20; ++round) {
    const double parallel = noisy_sum();
    ASSERT_EQ(parallel, serial) << "round " << round;  // Bitwise equal.
  }
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const NumThreadsGuard guard(4);
  const int r = parallel_reduce(
      5, 5, 1, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 42);
}

TEST(NumThreads, SetAndGuardRestore) {
  const std::size_t before = num_threads();
  {
    const NumThreadsGuard guard(3);
    EXPECT_EQ(num_threads(), 3u);
    set_num_threads(0);  // 0 = all hardware threads.
    EXPECT_EQ(num_threads(), hardware_threads());
    set_num_threads(3);  // Restore what the guard saved against.
  }
  EXPECT_EQ(num_threads(), before);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(NumThreads, PoolSwapUnderUseIsSafe) {
  // Alternate thread counts between regions; each region must still run
  // every index exactly once.
  for (const std::size_t n : {1u, 4u, 2u, 8u, 1u, 3u}) {
    const NumThreadsGuard guard(n);
    std::vector<std::atomic<int>> hits(512);
    parallel_for(0, 512, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < 512; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

}  // namespace
}  // namespace clear
