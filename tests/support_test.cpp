#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "depchaos/support/log_histogram.hpp"
#include "depchaos/support/path_table.hpp"
#include "depchaos/support/rng.hpp"
#include "depchaos/support/sha256.hpp"
#include "depchaos/support/strings.hpp"
#include "depchaos/support/thread_pool.hpp"

namespace depchaos::support {
namespace {

// ---------------------------------------------------------------- sha256

TEST(Sha256, EmptyStringVector) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.hex_digest(), sha256_hex("hello world"));
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  std::string input(1000, 'x');
  Sha256 h;
  for (std::size_t i = 0; i < input.size(); i += 7) {
    h.update(input.substr(i, 7));
  }
  EXPECT_EQ(h.hex_digest(), sha256_hex(input));
}

TEST(Sha256, ExactBlockSizeInput) {
  const std::string input(64, 'a');
  EXPECT_EQ(sha256_hex(input),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, PrefixTruncates) {
  EXPECT_EQ(sha256_prefix("abc", 8), "ba7816bf");
  EXPECT_EQ(sha256_prefix("abc", 200).size(), 64u);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedPrefersHeavyBucket) {
  Rng rng(13);
  int heavy = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.weighted({1.0, 9.0}) == 1) ++heavy;
  }
  EXPECT_GT(heavy, 800);
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99] * 5);
}

TEST(Zipf, CoversSupport) {
  Rng rng(19);
  ZipfSampler zipf(5, 0.5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(zipf.sample(rng));
  EXPECT_EQ(seen.size(), 5u);
}

// -------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitNonempty) {
  const auto parts = split_nonempty("/usr//lib/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "usr");
  EXPECT_EQ(parts[1], "lib");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ":"), "a:b:c");
  EXPECT_EQ(join({}, ":"), "");
}

TEST(Strings, IsAllDigits) {
  EXPECT_TRUE(is_all_digits("0123"));
  EXPECT_FALSE(is_all_digits(""));
  EXPECT_FALSE(is_all_digits("12a"));
  EXPECT_FALSE(is_all_digits("-1"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("$ORIGIN/lib:$ORIGIN", "$ORIGIN", "/app"),
            "/app/lib:/app");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

// ------------------------------------------------------------ path table

TEST(PathTable, RootIsPreinterned) {
  PathTable table;
  EXPECT_EQ(table.intern("/"), PathTable::kRoot);
  EXPECT_EQ(table.str(PathTable::kRoot), "/");
  EXPECT_EQ(table.name(PathTable::kRoot), "/");
  EXPECT_EQ(table.parent(PathTable::kRoot), PathTable::kRoot);
  EXPECT_EQ(table.depth(PathTable::kRoot), 0u);
}

TEST(PathTable, InternIsStableAndNormalizing) {
  PathTable table;
  const PathId a = table.intern("/usr/lib/libx.so");
  EXPECT_EQ(table.intern("/usr/lib/libx.so"), a);
  EXPECT_EQ(table.intern("//usr//lib/./libx.so"), a);
  EXPECT_EQ(table.intern("/usr/lib/sub/../libx.so"), a);
  EXPECT_EQ(table.str(a), "/usr/lib/libx.so");
  EXPECT_EQ(table.name(a), "libx.so");
  EXPECT_EQ(table.depth(a), 3u);
  EXPECT_EQ(table.str(table.parent(a)), "/usr/lib");
}

TEST(PathTable, InternRejectsNonAbsolute) {
  PathTable table;
  EXPECT_THROW(table.intern(""), std::invalid_argument);
  EXPECT_THROW(table.intern("usr/lib"), std::invalid_argument);
}

TEST(PathTable, DotDotClampsAtRoot) {
  PathTable table;
  EXPECT_EQ(table.intern("/.."), PathTable::kRoot);
  EXPECT_EQ(table.intern("/../../a"), table.intern("/a"));
  EXPECT_EQ(table.child(PathTable::kRoot, ".."), PathTable::kRoot);
}

TEST(PathTable, ChildSteps) {
  PathTable table;
  const PathId usr = table.intern("/usr");
  EXPECT_EQ(table.child(usr, "lib"), table.intern("/usr/lib"));
  EXPECT_EQ(table.child(usr, "."), usr);
  EXPECT_EQ(table.child(usr, ""), usr);
  EXPECT_EQ(table.child(usr, ".."), PathTable::kRoot);
}

TEST(PathTable, InternUnderResolvesRelative) {
  PathTable table;
  const PathId dir = table.intern("/opt/app/lib");
  EXPECT_EQ(table.intern_under(dir, "libz.so"),
            table.intern("/opt/app/lib/libz.so"));
  EXPECT_EQ(table.intern_under(dir, "../share/x"),
            table.intern("/opt/app/share/x"));
  EXPECT_EQ(table.intern_under(dir, "./a/./b"),
            table.intern("/opt/app/lib/a/b"));
  EXPECT_EQ(table.intern_under(dir, ""), dir);
  // Absolute relatives restart from the root, ignoring the base.
  EXPECT_EQ(table.intern_under(dir, "/etc/ld.so.conf"),
            table.intern("/etc/ld.so.conf"));
}

TEST(PathTable, NameIsSpanOfFullString) {
  PathTable table;
  const PathId id = table.intern("/a/b/component");
  const std::string_view name = table.name(id);
  const std::string& full = table.str(id);
  // The span aliases the stored string — no separate allocation.
  EXPECT_GE(name.data(), full.data());
  EXPECT_EQ(name.data() + name.size(), full.data() + full.size());
  EXPECT_EQ(name, "component");
}

TEST(PathTable, ConcurrentInternIsConsistent) {
  PathTable table;
  constexpr int kThreads = 8;
  constexpr int kPaths = 200;
  std::vector<std::vector<PathId>> ids(kThreads,
                                       std::vector<PathId>(kPaths));
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.submit([&table, &ids, t] {
        for (int i = 0; i < kPaths; ++i) {
          // Every thread interns the same path set (plus reads back
          // already-published entries) — ids must agree across threads.
          ids[t][i] = table.intern("/shared/dir" + std::to_string(i % 20) +
                                   "/file" + std::to_string(i));
          EXPECT_FALSE(table.str(ids[t][i]).empty());
        }
      });
    }
    pool.wait_idle();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i]++; }, 16);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [&](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThrowingTaskIsCapturedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> after{0};
  pool.submit([] { throw std::runtime_error("bad request"); });
  pool.submit([&] { after.fetch_add(1); });
  pool.wait_idle();
  // The pool survived the throw and kept serving.
  EXPECT_EQ(after.load(), 1);
  EXPECT_TRUE(pool.has_errors());
  auto errors = pool.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_THROW(std::rethrow_exception(errors[0]), std::runtime_error);
  // take_errors drains the list.
  EXPECT_FALSE(pool.has_errors());
  EXPECT_TRUE(pool.take_errors().empty());
}

// A task queued behind one that blocks is run by whichever worker is free:
// A waits for B, and B is submitted after A and a no-op, so B must not be
// stuck behind A on A's worker.
TEST(ThreadPool, QueuedTaskRunsWhileAnotherWorkerBlocks) {
  ThreadPool pool(2);
  std::promise<void> b_ran;
  std::future<void> b_finished = b_ran.get_future();
  bool a_saw_b = false;
  pool.submit([&] {
    a_saw_b = b_finished.wait_for(std::chrono::seconds(10)) ==
              std::future_status::ready;
  });
  pool.submit([] {});
  pool.submit([&] { b_ran.set_value(); });
  pool.wait_idle();
  EXPECT_TRUE(a_saw_b);
}

TEST(ThreadPool, ParallelForRethrowsFirstChunkError) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(parallel_for(
                   pool, 1000,
                   [&](std::size_t i) {
                     visited.fetch_add(1);
                     if (i == 500) throw std::runtime_error("mid-batch");
                   },
                   16),
               std::runtime_error);
  // Other chunks were not skipped, and the pool's shared error list was
  // not polluted by parallel_for's private capture.
  EXPECT_GT(visited.load(), 500);
  EXPECT_FALSE(pool.has_errors());
}

// --------------------------------------------------------- log histogram

// Exact nearest-rank quantile over the raw samples (the reference).
double nearest_rank(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

// Named sample sets spanning what the histogram records in practice: pool
// latencies (microseconds), drain-batch sizes (small integers) and MDS
// latencies (seconds), plus a point mass and a heavy tail.
std::vector<std::pair<std::string, std::vector<double>>> random_sample_sets(
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1000.0);
  std::exponential_distribution<double> exponential(1.0 / 40.0);
  std::lognormal_distribution<double> lognormal(-7.0, 2.0);
  std::uniform_int_distribution<int> batch(1, 40);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::pair<std::string, std::vector<double>>> sets(6);
  sets[0].first = "uniform us";
  sets[1].first = "exponential us";
  sets[2].first = "lognormal seconds";
  sets[3].first = "integer batches";
  sets[4].first = "point mass";
  sets[5].first = "pareto tail";
  for (int i = 0; i < 5000; ++i) {
    sets[0].second.push_back(uniform(rng));
    sets[1].second.push_back(exponential(rng));
    sets[2].second.push_back(lognormal(rng));
    sets[3].second.push_back(batch(rng));
    sets[4].second.push_back(3.7);
    sets[5].second.push_back(10.0 * std::pow(1.0 - unit(rng), -1.0 / 1.2));
  }
  return sets;
}

TEST(LogHistogram, QuantilesWithinOneBucketOfNearestRankOnRandomSamples) {
  const std::vector<double> qs = {0.0, 0.01, 0.1, 0.25, 0.5,
                                  0.75, 0.9, 0.99, 0.999, 1.0};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& [name, samples] : random_sample_sets(seed)) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed));
      LogHistogram h;
      double sum = 0;
      for (const double v : samples) {
        h.record(v);
        sum += v;
      }
      EXPECT_EQ(h.count(), samples.size());
      EXPECT_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
      EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
      EXPECT_NEAR(h.sum(), sum, std::abs(sum) * 1e-12);
      for (const double q : qs) {
        const double exact = nearest_rank(samples, q);
        // A bucket is at most 1/kSubBuckets of its lower bound wide.
        EXPECT_LE(std::abs(h.quantile(q) - exact),
                  exact / LogHistogram::kSubBuckets)
            << "q=" << q;
      }
      EXPECT_LE(h.min(), h.quantile(0.5));
      EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
      EXPECT_LE(h.quantile(0.99), h.max());
    }
  }
}

TEST(LogHistogram, MergeEqualsRecordingEverythingIntoOne) {
  for (const auto& [name, samples] : random_sample_sets(9)) {
    SCOPED_TRACE(name);
    LogHistogram whole;
    std::vector<LogHistogram> parts(3);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      whole.record(samples[i]);
      parts[(i * 7) % parts.size()].record(samples[i]);
    }
    LogHistogram merged;
    merged.merge(LogHistogram{});  // an empty operand changes nothing
    for (const LogHistogram& part : parts) merged.merge(part);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.sum(), whole.sum(), std::abs(whole.sum()) * 1e-12);
    for (double q = 0; q <= 1.0; q += 0.01) {
      EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
    }
  }
}

TEST(LogHistogram, EmptyAndOutOfRangeValuesStayInsideMinMax) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);

  h.record(-5.0);  // counts as 0
  h.record(1e-15);  // below the smallest bucket
  h.record(1e12);   // above the largest
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e12);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 1e12);
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), 1e-14);
}

}  // namespace
}  // namespace depchaos::support
