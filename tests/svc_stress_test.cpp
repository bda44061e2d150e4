// Thread-sanitizer stress for the multi-core session service. These tests
// exist to give TSan (and the hardened CI legs) real contention to chew
// on: many raw threads stamping fork_sealed() children off one sealed
// base while the siblings resolve concurrently, and a SessionPool fed
// from competing submitter threads so the worker pool's shared queue,
// sharded memo, and sharded PathTable index all run hot. Assertions are
// byte-identity checks — any synchronization bug shows up either as a
// TSan report or as a divergent report digest.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/support/thread_pool.hpp"
#include "depchaos/svc/session_pool.hpp"

namespace depchaos::svc {
namespace {

using core::Session;
using core::WorldBuilder;
using elf::make_executable;
using elf::make_library;

/// `count` apps over one shared libcommon. A non-empty `site_dir` goes
/// first in every app's RUNPATH and holds nothing, so each load also
/// fails probes there.
std::vector<std::string> install_fleet(WorldBuilder& builder,
                                       std::size_t count,
                                       const std::string& site_dir = "") {
  builder.install("/usr/lib/libcommon.so", make_library("libcommon.so"));
  std::vector<std::string> exes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    builder.install("/apps/a" + n + "/lib/libpriv" + n + ".so",
                    make_library("libpriv" + n + ".so", {"libcommon.so"}));
    std::vector<std::string> runpath{"/apps/a" + n + "/lib"};
    if (!site_dir.empty()) runpath.insert(runpath.begin(), site_dir);
    builder.install("/apps/a" + n + "/bin/app",
                    make_executable({"libpriv" + n + ".so"}, runpath));
    exes.push_back("/apps/a" + n + "/bin/app");
  }
  return exes;
}

std::string digest(const loader::LoadReport& r) {
  std::ostringstream out;
  out << "ok=" << r.success << '\n';
  for (const auto& o : r.load_order) {
    out << o.name << '|' << o.path << '|' << o.real_path << '|' << o.depth
        << '\n';
  }
  out << "stat=" << r.stats.stat_calls << " open=" << r.stats.open_calls
      << " failed=" << r.stats.failed_probes << '\n';
  return out.str();
}

/// Raw-thread admission storm: each of `threads` threads stamps `rounds`
/// fork_sealed() children off the one sealed `base` — no locks anywhere
/// on the fork path — and loads every exe on each, rotated so threads
/// collide on different closures at different times. Returns how many
/// reports differ from `want` (or threw).
int concurrent_fork_mismatches(const Session& base,
                               const std::vector<std::string>& exes,
                               const std::vector<std::string>& want,
                               std::size_t threads, int rounds) {
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (int round = 0; round < rounds; ++round) {
          Session child = base.fork_sealed();
          for (std::size_t i = 0; i < exes.size(); ++i) {
            const std::size_t pick = (t + i + round) % exes.size();
            if (digest(child.load(exes[pick])) != want[pick]) {
              failures.fetch_add(1);
            }
          }
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return failures.load();
}

// Siblings resolve while others stamp: the interleaved resolutions intern
// paths into the family-shared PathTable concurrently, which is exactly
// the sharded-index write path.
TEST(SvcStress, ConcurrentSealedForksResolveByteIdentically) {
  constexpr std::size_t kThreads = 8;

  WorldBuilder builder;
  const auto exes = install_fleet(builder, kThreads);
  Session base = builder.build();
  base.seal();
  ASSERT_TRUE(base.sealed());

  // Reference digests from a single sequential child.
  std::vector<std::string> want;
  {
    Session reference = base.fork_sealed();
    for (const auto& exe : exes) want.push_back(digest(reference.load(exe)));
  }

  EXPECT_EQ(concurrent_fork_mismatches(base, exes, want, kThreads, 4), 0);
  EXPECT_TRUE(base.sealed());  // const stamps never cleared the seal
}

// Forks of a WARM sealed base: the base loaded every exe before sealing,
// so the fork-shared dentry snapshot holds the whole candidate storm,
// positive and negative entries alike. Every child answers its walks from
// the one immutable snapshot concurrently and must reproduce the base's
// sequential reports.
TEST(SvcStress, ConcurrentForksOfAWarmSealedBaseResolveByteIdentically) {
  constexpr std::size_t kThreads = 8;

  WorldBuilder builder;
  const auto exes = install_fleet(builder, kThreads, "/opt/site/lib");
  Session base = builder.build();
  std::vector<std::string> want;
  std::uint64_t failed_probes = 0;
  for (const auto& exe : exes) {
    const auto report = base.load(exe);
    failed_probes += report.stats.failed_probes;
    want.push_back(digest(report));
  }
  ASSERT_GT(failed_probes, 0u);  // the snapshot holds negative entries
  base.seal();

  EXPECT_EQ(concurrent_fork_mismatches(base, exes, want, kThreads, 4), 0);
  EXPECT_TRUE(base.sealed());
}

// The fork family's one parsed-object cache under disagreement: forks of
// one sealed base load concurrently, and every other thread first
// rewrites libcommon.so in its fork to need libextra.so, so the family's
// libcommon entry flips between two versions while siblings read it.
// Each report must equal a standalone Loader's (private cache) over the
// same fork: a stale parse would drop or add libextra.so.
TEST(SvcStress, ForksRewritingASharedLibraryLoadTheirOwnBytes) {
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 4;

  WorldBuilder builder;
  const auto exes = install_fleet(builder, kThreads);
  builder.install("/usr/lib/libextra.so", make_library("libextra.so"));
  Session base = builder.build();
  base.seal();

  std::atomic<int> failures{0};
  std::atomic<int> extra_loads{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (int round = 0; round < kRounds; ++round) {
          Session child = base.fork_sealed();
          if (t % 2 == 1) {
            elf::install_object(child.fs(), "/usr/lib/libcommon.so",
                                make_library("libcommon.so", {"libextra.so"}));
          }
          loader::Loader standalone(child.fs(), child.loader().config(),
                                    child.loader().dialect());
          for (std::size_t i = 0; i < exes.size(); ++i) {
            const std::string& exe = exes[(t + i + round) % exes.size()];
            const auto report = child.load(exe);
            if (digest(report) != digest(standalone.load(exe))) {
              failures.fetch_add(1);
            }
            if (report.find_loaded("libextra.so") != nullptr) {
              extra_loads.fetch_add(1);
            }
          }
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  // Exactly the rewriting half loaded libextra.so, every time.
  EXPECT_EQ(extra_loads.load(),
            static_cast<int>(kThreads / 2 * kRounds * exes.size()));
  EXPECT_TRUE(base.sealed());
}

// The pool under competing submitters: several threads blast loads for
// overlapping clients/exes at a multi-worker pool. The worker queue, the
// sharded memo (hit and miss paths racing on cold keys), and strand
// batching all interleave; every single report must still match the
// sequential reference.
TEST(SvcStress, PoolUnderCompetingSubmittersStaysByteIdentical) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kClientsPer = 8;
  constexpr int kLoadsPerClient = 3;

  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 6);
  WorldBuilder twin_b;
  install_fleet(twin_b, 6);

  Session reference = twin_a.build();
  reference.seal();
  std::vector<std::string> want;
  {
    Session child = reference.fork_sealed();
    for (const auto& exe : exes) want.push_back(digest(child.load(exe)));
  }

  PoolConfig config;
  config.shards = 4;
  config.threads = 4;
  SessionPool pool(twin_b.build(), config);

  std::atomic<int> failures{0};
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        std::vector<std::pair<std::size_t, std::future<loader::LoadReport>>>
            inflight;
        for (std::size_t c = 0; c < kClientsPer; ++c) {
          const ClientId client =
              static_cast<ClientId>(s * kClientsPer + c + 1);
          for (int i = 0; i < kLoadsPerClient; ++i) {
            const std::size_t pick = (s + c + static_cast<std::size_t>(i)) %
                                     exes.size();
            inflight.emplace_back(pick,
                                  pool.submit_load(client, exes[pick]));
          }
        }
        for (auto& [pick, future] : inflight) {
          try {
            if (digest(future.get()) != want[pick]) failures.fetch_add(1);
          } catch (...) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& submitter : submitters) submitter.join();
  }
  pool.drain();
  EXPECT_EQ(failures.load(), 0);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, kSubmitters * kClientsPer * kLoadsPerClient);
  EXPECT_EQ(stats.worker_errors, 0u);
  EXPECT_EQ(stats.forks_locked, 0u);  // sealed stamps only, never the mutex
  EXPECT_GT(stats.memo_hits, 0u);
}

// Worker pool in isolation: imbalanced task sizes from several submitter
// threads, some of them throwing. TSan checks the queue handoffs; the
// assertions check that every task ran and every error was captured.
TEST(SvcStress, ThreadPoolCompetingSubmittersKeepErrorBookkeeping) {
  support::ThreadPool pool(4);
  constexpr int kTasks = 400;
  std::atomic<int> ran{0};
  {
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kTasks; ++i) {
          pool.submit([&, i] {
            // Some heavy tasks, so workers finish out of submission order.
            volatile std::uint64_t sink = 0;
            const int spin = (i % 16 == 0) ? 20000 : 50;
            for (int k = 0; k < spin; ++k) {
              sink = sink + static_cast<std::uint64_t>(k);
            }
            ran.fetch_add(1);
            if (i % 97 == 0) throw std::runtime_error("expected");
          });
        }
      });
    }
    for (auto& submitter : submitters) submitter.join();
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3 * kTasks);
  const auto errors = pool.take_errors();
  EXPECT_EQ(errors.size(), 3u * ((kTasks + 96) / 97));
}

}  // namespace
}  // namespace depchaos::svc
