// svc::SessionPool — the multi-tenant session service over one shared world.
//
// The load-bearing property is at the bottom: a randomized mix of
// load/whatif/shrinkwrap requests from many concurrent clients produces
// results BYTE-IDENTICAL to the same per-client request sequences run
// sequentially on private forks. Everything the pool does for throughput —
// strand batching, Load memoization across pristine forks, idle eviction —
// must be invisible in the reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"
#include "depchaos/workload/pynamic.hpp"

namespace depchaos::svc {
namespace {

using core::Session;
using core::WorldBuilder;
using elf::make_executable;
using elf::make_library;

// Install `count` independent apps (private lib + one shared system lib).
// Deterministic: two calls build byte-identical worlds, which is what lets
// the property test run the pool and the sequential reference on twins.
std::vector<std::string> install_fleet(WorldBuilder& builder,
                                       std::size_t count) {
  builder.install("/usr/lib/libcommon.so", make_library("libcommon.so"));
  std::vector<std::string> exes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    builder.install("/apps/a" + n + "/lib/libpriv" + n + ".so",
                    make_library("libpriv" + n + ".so", {"libcommon.so"}));
    builder.install(
        "/apps/a" + n + "/bin/app",
        make_executable({"libpriv" + n + ".so"}, {"/apps/a" + n + "/lib"}));
    exes.push_back("/apps/a" + n + "/bin/app");
  }
  return exes;
}

Session make_world(std::size_t apps = 6) {
  WorldBuilder builder;
  install_fleet(builder, apps);
  return builder.build();
}

// Flatten every consumer-observable report field into a comparable string.
std::string digest(const loader::LoadReport& r) {
  std::ostringstream out;
  out << "ok=" << r.success << '\n';
  for (const auto& o : r.load_order) {
    out << o.name << '|' << o.path << '|' << o.real_path << '|'
        << o.requested_by << '|' << static_cast<int>(o.how) << '|' << o.depth
        << '|' << o.parent_index << '\n';
  }
  out << "req=" << r.requests.size() << " miss=" << r.missing.size()
      << " stat=" << r.stats.stat_calls << " open=" << r.stats.open_calls
      << " read=" << r.stats.read_calls
      << " readlink=" << r.stats.readlink_calls
      << " failed=" << r.stats.failed_probes << " t=" << r.stats.sim_time_s
      << '\n';
  return out.str();
}

std::string digest(const shrinkwrap::WrapReport& r) {
  std::ostringstream out;
  out << "changed=" << r.changed << " ok=" << r.ok() << '\n';
  for (const auto& n : r.old_needed) out << "old " << n << '\n';
  for (const auto& n : r.new_needed) out << "new " << n << '\n';
  for (const auto& [name, path] : r.resolved) {
    out << name << " -> " << path << '\n';
  }
  out << "stat=" << r.wrap_cost.stat_calls << " open=" << r.wrap_cost.open_calls
      << '\n';
  return out.str();
}

std::string digest(const Session::WhatIfReport& r) {
  return digest(r.wrap) + digest(r.before) + digest(r.after) + r.before_tree +
         r.after_tree + r.tree_diff;
}

// ----------------------------------------------------------- basic service

TEST(SessionPool, LoadMatchesDirectSession) {
  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 3);
  WorldBuilder twin_b;
  install_fleet(twin_b, 3);

  Session direct = twin_a.build();
  SessionPool pool(twin_b.build());
  for (const auto& exe : exes) {
    EXPECT_EQ(digest(pool.submit_load(1, exe).get()), digest(direct.load(exe)));
  }
  // Promises are fulfilled before the strand updates counters; quiesce so
  // the final finish() is visible before reading stats.
  pool.drain();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, exes.size());
  EXPECT_EQ(stats.clients_live, 1u);
  EXPECT_EQ(stats.latency[static_cast<std::size_t>(RequestKind::Load)].count,
            exes.size());
}

TEST(SessionPool, MemoizationServesIdenticalReportsAcrossClients) {
  SessionPool pool(make_world());
  const std::string exe = "/apps/a0/bin/app";
  const std::string first = digest(pool.submit_load(1, exe).get());
  for (ClientId client = 2; client <= 32; ++client) {
    EXPECT_EQ(digest(pool.submit_load(client, exe).get()), first);
  }
  pool.drain();  // counters update after promises are fulfilled
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, 32u);
  EXPECT_EQ(stats.memoized, 31u);  // every repeat was a memo hit
}

TEST(SessionPool, SharedLoadsAliasOneReportAndMatchCopyingApi) {
  SessionPool pool(make_world());
  const std::string exe = "/apps/a0/bin/app";
  const std::string copied = digest(pool.submit_load(1, exe).get());
  auto a = pool.submit_load_shared(2, exe).get();
  auto b = pool.submit_load_shared(3, exe).get();
  // Fleet dedup: identical responses are ONE immutable payload…
  EXPECT_EQ(a.get(), b.get());
  // …and byte-identical to what the copying API returns.
  EXPECT_EQ(digest(*a), copied);
}

// Everything in a LoadReport except sim_time_s is warmth-transparent;
// sim_time_s is compared separately, exactly: a memo hit charges the miss
// run's op trace to the client's fork op by op, as executing would.
std::string digest_sans_time(loader::LoadReport r) {
  r.stats.sim_time_s = 0;
  return digest(r);
}

TEST(SessionPool, MemoizationStaysOnUnderLatencyModelWithRepricing) {
  WorldBuilder twin_a;
  install_fleet(twin_a, 3);
  WorldBuilder twin_b;
  install_fleet(twin_b, 3);

  Session base = twin_b.build();
  base.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  SessionPool pool(std::move(base));
  // A stateful model does not disable the memo: hits replay the miss
  // run's op trace through the hitting client's OWN cloned models.
  EXPECT_TRUE(pool.repricing_active());

  const std::string exe = "/apps/a0/bin/app";
  // Client 1 loads twice (cold attr cache, then warm); client 2 loads
  // once on its own cold fork. Loads 2 and 3 are memo hits, yet each must
  // be priced for ITS client's warmth, not the miss run's.
  const auto cold = pool.submit_load(1, exe).get();
  const auto warm = pool.submit_load(1, exe).get();
  const auto other = pool.submit_load(2, exe).get();
  pool.drain();  // counters update after promises are fulfilled

  Session reference = twin_a.build();
  reference.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  reference.seal();  // mirror the pool's ctor seal
  Session ref1 = reference.fork_sealed();
  const auto ref_cold = ref1.load(exe);
  const auto ref_warm = ref1.load(exe);
  Session ref2 = reference.fork_sealed();
  const auto ref_other = ref2.load(exe);

  EXPECT_EQ(digest_sans_time(cold), digest_sans_time(ref_cold));
  EXPECT_EQ(digest_sans_time(warm), digest_sans_time(ref_warm));
  EXPECT_EQ(digest_sans_time(other), digest_sans_time(ref_other));
  EXPECT_EQ(cold.stats.sim_time_s, ref_cold.stats.sim_time_s);
  EXPECT_EQ(warm.stats.sim_time_s, ref_warm.stats.sim_time_s);
  EXPECT_EQ(other.stats.sim_time_s, ref_other.stats.sim_time_s);
  // The re-pricing is doing real work: warm NFS caches are cheaper than
  // cold ones, so the two hits of the same memo entry price differently.
  EXPECT_LT(warm.stats.sim_time_s, cold.stats.sim_time_s);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.memoized, 2u);  // warm + other were memo-served
  EXPECT_EQ(stats.memo_hits, 2u);
  EXPECT_GE(stats.memo_misses, 1u);
}

// The memo keeps the report a miss returns for the pool's lifetime, so that
// report carries none of the push_back slack a direct load leaves behind,
// on a model-free pool and on a re-pricing one alike.
TEST(SessionPool, MemoKeepsReportsWithoutVectorSlack) {
  const auto build = [] {
    loader::SearchConfig search;
    search.record_probes = true;
    WorldBuilder builder;
    builder.search(search);
    for (const char* lib : {"liba.so", "libb.so", "libc.so", "libd.so"}) {
      builder.install(std::string("/app/lib/") + lib, make_library(lib));
    }
    builder.install("/bin/app",
                    make_executable({"liba.so", "libb.so", "libc.so",
                                     "libd.so", "libmissing.so"},
                                    {"/app/lib"}));
    return builder.build();
  };
  const std::string exe = "/bin/app";

  // Not vacuous: the loader's own report (five objects, five requests,
  // one of them missing) has slack in its vectors.
  Session direct = build();
  const loader::LoadReport loaded = direct.load(exe);
  ASSERT_EQ(loaded.missing.size(), 1u);
  ASSERT_FALSE(loaded.probe_log.empty());
  EXPECT_GT(loaded.load_order.capacity(), loaded.load_order.size());

  for (const bool reprice : {false, true}) {
    SCOPED_TRACE(reprice ? "re-pricing pool" : "model-free pool");
    Session base = build();
    if (reprice) base.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
    SessionPool pool(std::move(base));
    ASSERT_EQ(pool.repricing_active(), reprice);
    const auto kept = pool.submit_load_shared(1, exe).get();  // the miss
    EXPECT_EQ(digest_sans_time(*kept), digest_sans_time(loaded));
    EXPECT_EQ(kept->probe_log, loaded.probe_log);
    EXPECT_EQ(kept->load_order.capacity(), kept->load_order.size());
    EXPECT_EQ(kept->requests.capacity(), kept->requests.size());
    EXPECT_EQ(kept->missing.capacity(), kept->missing.size());
    EXPECT_EQ(kept->probe_log.capacity(), kept->probe_log.size());
    if (!reprice) {
      // A model-free hit hands out the very object the memo keeps.
      EXPECT_EQ(pool.submit_load_shared(2, exe).get().get(), kept.get());
    }
    pool.drain();
    EXPECT_EQ(pool.stats().memo_misses, 1u);
  }
}

TEST(SessionPool, RepricedHitOverPrestagedMountPricesLikeExecution) {
  // A sandbox of the samba host under NFS with a 20-module Pynamic image
  // at "/". Marked NodeLocal (pre-staged), the image's ops price through
  // the node-local model, and a re-priced memo hit must route them the
  // same way executing the load does.
  workload::PynamicConfig app;
  app.num_modules = 20;
  const auto make_base = [&](bool prestaged) {
    WorldBuilder image;
    image.pynamic(app);
    core::SandboxSpec spec;
    spec.exe = image.pynamic_info()->exe_path;
    spec.image = image.build_image();
    spec.image_mount = "/";
    WorldBuilder host;
    Session host_session = host.samba().nfs().build();
    Session sandbox = host_session.sandbox(spec);
    if (prestaged) {
      sandbox.fs().set_mount_latency("/", vfs::MountLatency::NodeLocal);
    }
    return sandbox;
  };

  Session reference = make_base(true);
  reference.seal();  // mirror the pool's ctor seal
  const double direct = reference.fork_sealed().load().stats.sim_time_s;

  SessionPool pool(make_base(true));
  const auto miss = pool.submit_load(1, "").get();
  const auto hit = pool.submit_load(2, "").get();
  pool.drain();
  ASSERT_TRUE(miss.success);
  EXPECT_EQ(pool.stats().memo_hits, 1u);
  EXPECT_EQ(miss.stats.sim_time_s, direct);
  EXPECT_EQ(hit.stats.sim_time_s, direct);

  SessionPool shared(make_base(false));
  const auto shared_miss = shared.submit_load(1, "").get();
  const auto shared_hit = shared.submit_load(2, "").get();
  EXPECT_LT(miss.stats.sim_time_s, shared_miss.stats.sim_time_s);
  EXPECT_LT(hit.stats.sim_time_s, shared_hit.stats.sim_time_s);
}

TEST(SessionPool, ShrinkwrapIsolatedPerClientAndFifoOrdered) {
  WorldBuilder twin_a;
  install_fleet(twin_a, 2);
  WorldBuilder twin_b;
  install_fleet(twin_b, 2);
  Session direct = twin_a.build();
  SessionPool pool(twin_b.build());
  const std::string exe = "/apps/a0/bin/app";

  // Client 1: wrap then load, submitted back-to-back — FIFO on the strand
  // means the load MUST observe the wrap.
  auto wrap = pool.submit_shrinkwrap(1, exe);
  auto wrapped_load = pool.submit_load(1, exe);
  // Client 2 stays pristine; its load must match the untouched base.
  auto pristine_load = pool.submit_load(2, exe);

  EXPECT_TRUE(wrap.get().changed);
  const auto after = wrapped_load.get();
  ASSERT_TRUE(after.success);
  EXPECT_EQ(digest(pristine_load.get()), digest(direct.load(exe)));

  Session direct_wrapped = make_world(2);
  direct_wrapped.shrinkwrap(exe);
  EXPECT_EQ(digest(after), digest(direct_wrapped.load(exe)));

  // Client 1's divergence is private: a third client still sees the base.
  EXPECT_EQ(digest(pool.submit_load(3, exe).get()), digest(direct.load(exe)));
}

TEST(SessionPool, MemoPrimedTurnEncodesLikeDirectExecution) {
  // The Table II emacs turn under NFS: Load, Shrinkwrap, 4 x Load, Reset.
  // Client 1's Load fills the memo; client 2's Load is a memo hit. Both
  // Shrinkwraps run on pristine forks and resolve from the memo entry. Every
  // reply must encode byte for byte like the same verbs on a plain fork.
  Session world = WorldBuilder().nfs().emacs({}).build();
  world.seal();
  SessionPool pool(world.fork_sealed());
  ASSERT_TRUE(pool.repricing_active());
  const auto turn = [&](ClientId client) {
    std::vector<std::string> replies;
    replies.push_back(encode_load_report(pool.submit_load(client).get()));
    replies.push_back(encode_wrap_report(pool.submit_shrinkwrap(client).get()));
    for (int i = 0; i < 4; ++i) {
      replies.push_back(encode_load_report(pool.submit_load(client).get()));
    }
    pool.reset(client).get();
    return replies;
  };
  const std::vector<std::string> miss_turn = turn(1);
  const std::vector<std::string> primed_turn = turn(2);

  Session fork = world.fork_sealed();
  std::vector<std::string> direct;
  direct.push_back(encode_load_report(fork.load()));
  const shrinkwrap::WrapReport wrap = fork.shrinkwrap();
  ASSERT_TRUE(wrap.ok());
  direct.push_back(encode_wrap_report(wrap));
  for (int i = 0; i < 4; ++i) direct.push_back(encode_load_report(fork.load()));
  ASSERT_EQ(miss_turn.size(), direct.size());
  ASSERT_EQ(primed_turn.size(), direct.size());
  for (std::size_t k = 0; k < direct.size(); ++k) {
    EXPECT_EQ(miss_turn[k], direct[k]) << "miss turn, reply " << k;
    EXPECT_EQ(primed_turn[k], direct[k]) << "primed turn, reply " << k;
  }

  // The Shrinkwraps' memo lookups count nowhere: one hit, client 2's Load.
  pool.drain();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memoized, 1u);
}

TEST(SessionPool, RefusedShrinkwrapKeepsTheForkPristine) {
  // The exe's library is nowhere: the wrap refuses and writes nothing, so
  // the fork stays pristine, memo-served like any other. Model-free, the
  // wrap runs the loader; under NFS it resolves from client 1's memo entry.
  for (const bool nfs : {false, true}) {
    SCOPED_TRACE(nfs ? "nfs" : "model-free");
    WorldBuilder builder;
    builder.install("/apps/broken/bin/app",
                    make_executable({"libgone.so"}, {"/apps/broken/lib"}));
    if (nfs) builder.nfs();
    SessionPool pool(builder.build());
    const std::string exe = "/apps/broken/bin/app";
    EXPECT_FALSE(pool.submit_load(1, exe).get().success);

    const shrinkwrap::WrapReport wrap = pool.submit_shrinkwrap(2, exe).get();
    EXPECT_FALSE(wrap.ok());
    EXPECT_FALSE(wrap.changed);
    const QueryResult query = pool.submit_query(2).get();
    EXPECT_TRUE(query.pristine);
    EXPECT_EQ(query.owned_bytes, 0u);
    EXPECT_FALSE(pool.submit_load(2, exe).get().success);
    pool.drain();
    EXPECT_EQ(pool.stats().memo_hits, 1u);
  }
}

TEST(SessionPool, QueryAndLoadManyAndReset) {
  SessionPool pool(make_world(4));
  const QueryResult fresh = pool.submit_query(7).get();
  EXPECT_TRUE(fresh.pristine);
  EXPECT_GT(fresh.inode_count, 0u);
  EXPECT_GT(fresh.interned_paths, 0u);

  auto many = pool.submit_load_many(
      7, {"/apps/a0/bin/app", "/apps/a1/bin/app", "/apps/a2/bin/app"});
  const auto reports = many.get();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) EXPECT_TRUE(report.success);

  pool.submit_shrinkwrap(7, "/apps/a0/bin/app").get();
  EXPECT_FALSE(pool.submit_query(7).get().pristine);
  // reset drops the fork like release; the next request re-forks lazily.
  pool.reset(7).get();
  pool.drain();
  EXPECT_EQ(pool.stats().clients_live, 0u);
  EXPECT_TRUE(pool.submit_query(7).get().pristine);

  pool.release(7).get();
  pool.drain();
  EXPECT_EQ(pool.stats().clients_live, 0u);
}

// --------------------------------------------------- errors stay contained

TEST(SessionPool, RequestErrorsLandInFuturesNotWorkers) {
  SessionPool pool(make_world(2));
  auto bad = pool.submit_load(1, "/no/such/exe");
  EXPECT_THROW(bad.get(), Error);
  // The strand survived: the same client's next request works.
  EXPECT_TRUE(pool.submit_load(1, "/apps/a0/bin/app").get().success);
  // get() can return before the strand's bookkeeping lands; quiesce first.
  pool.drain();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.worker_errors, 1u);
  EXPECT_EQ(stats.executed, 2u);
}

// ----------------------------------------------------- backpressure bounds

TEST(SessionPool, BackpressureRejectsPastHighWaterWithRetryHint) {
  PoolConfig config;
  config.shards = 1;
  config.queue_high_water = 4;
  config.manual_drain = true;  // nothing drains until we pump()
  SessionPool pool(make_world(2), config);

  std::vector<std::future<loader::LoadReport>> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(pool.submit_load(1, "/apps/a0/bin/app"));
  }
  try {
    pool.submit_load(1, "/apps/a0/bin/app");
    FAIL() << "expected Overloaded";
  } catch (const Overloaded& overloaded) {
    EXPECT_EQ(overloaded.shard(), 0u);
    EXPECT_EQ(overloaded.queue_depth(), 4u);
    EXPECT_GT(overloaded.retry_after_s(), 0.0);
  }
  EXPECT_EQ(pool.stats().rejected, 1u);
  EXPECT_EQ(pool.stats().queue_depths.at(0), 4u);

  // release() bypasses the bound — an overloaded pool can still shed state.
  auto released = pool.release(1);

  EXPECT_GT(pool.pump(), 0u);
  pool.drain();
  released.get();
  for (auto& future : accepted) EXPECT_TRUE(future.get().success);
  // The backlog drained; admission is open again (manual drain: pump the
  // new command through by hand before reading its future).
  auto reopened = pool.submit_load(1, "/apps/a0/bin/app");
  pool.drain();
  EXPECT_TRUE(reopened.get().success);
}

// ------------------------------------------------------ drain-cycle FIFO

TEST(SessionPool, OneDrainCycleRunsTheWholeFifoBacklog) {
  PoolConfig config;
  config.shards = 1;
  config.manual_drain = true;
  SessionPool pool(make_world(2), config);
  for (int i = 0; i < 3; ++i) pool.submit_load(1, "/apps/a0/bin/app");
  auto quiet = pool.submit_load(2, "/apps/a1/bin/app");
  // One cycle swallows the whole backlog.
  EXPECT_EQ(pool.pump(), 4u);
  EXPECT_TRUE(quiet.get().success);
}

// --------------------------------------------- heterogeneous fleet verbs

TEST(SessionPool, LaunchFleetConfigRidesAlongWithClustering) {
  workload::PynamicConfig app;
  app.num_modules = 48;
  app.exe_extra_bytes = 1u << 20;
  WorldBuilder twin_a;
  Session direct = twin_a.pynamic(app).nfs().build();
  WorldBuilder twin_b;
  SessionPool pool(twin_b.pynamic(app).nfs().build());

  core::SandboxSpec spec;
  spec.image = std::make_shared<vfs::FileSystem>(direct.fs());
  spec.image_mount = "/";
  spec.writable_image_overlay = true;
  launch::FleetConfig fleet;
  fleet.cluster = direct.config().cluster;
  fleet.rank_setup = [](Session& sandbox, int rank) {
    if (rank % 2 == 1) {
      sandbox.env().ld_library_path.insert(
          sandbox.env().ld_library_path.begin(), "/opt/mixed/lib");
    }
  };

  const auto want = direct.launch_fleet(spec, "", 8, fleet);
  const auto got = pool.submit_launch_fleet(5, spec, "", 8, fleet).get();
  ASSERT_TRUE(got.load_succeeded);
  // The config rode along: two environment classes, each measured once,
  // byte-identical to the direct-session path.
  EXPECT_EQ(got.classes_measured, 2);
  EXPECT_EQ(got.ranks_measured, want.ranks_measured);
  EXPECT_EQ(got.class_sizes, want.class_sizes);
  EXPECT_EQ(got.meta_ops_per_rank, want.meta_ops_per_rank);
  EXPECT_EQ(got.fleet_meta_ops, want.fleet_meta_ops);
  EXPECT_EQ(got.fleet_overlay_meta_ops, want.fleet_overlay_meta_ops);
  EXPECT_EQ(got.total_time_s, want.total_time_s);

  // A hook-free config carrying the base's cluster is one class.
  launch::FleetConfig plain;
  plain.cluster = pool.base().config().cluster;
  const auto homogeneous =
      pool.submit_launch_fleet(6, spec, "", 4, plain).get();
  EXPECT_TRUE(homogeneous.load_succeeded);
  EXPECT_EQ(homogeneous.classes_measured, 1);
}

// ------------------------------------------------- idle fork housekeeping

TEST(SessionPool, IdleSweepEvictsPristineForksAndKeepsMutatedOnesAsTheyAre) {
  PoolConfig config;
  config.shards = 1;
  config.idle_evict_cycles = 2;
  config.manual_drain = true;
  SessionPool pool(make_world(3), config);
  const std::string wrapped_exe = "/apps/a1/bin/app";

  pool.submit_load(1, "/apps/a0/bin/app");  // pristine fork (a memo miss)
  pool.submit_shrinkwrap(2, wrapped_exe);    // mutated fork
  auto before = pool.submit_query(2);
  pool.pump();
  const QueryResult q_before = before.get();
  ASSERT_FALSE(q_before.pristine);
  ASSERT_EQ(pool.stats().clients_live, 2u);

  // Keep a third client active to advance drain cycles past the idle bar.
  for (int cycle = 0; cycle < 4; ++cycle) {
    pool.submit_query(3);
    pool.pump();
  }

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.evicted, 1u);       // client 1's pristine fork dropped
  EXPECT_EQ(stats.clients_live, 2u);  // client 2's and client 3's forks
  // Client 2's idle fork is exactly as it was: same private bytes, same
  // layer chain, same wrap. Client 1 re-forks O(1).
  auto mutated = pool.submit_query(2);
  auto wrapped_load = pool.submit_load(2, wrapped_exe);
  auto refreshed = pool.submit_query(1);
  pool.drain();
  const QueryResult q_after = mutated.get();
  EXPECT_FALSE(q_after.pristine);
  EXPECT_EQ(q_after.owned_bytes, q_before.owned_bytes);
  EXPECT_EQ(q_after.layer_depth, q_before.layer_depth);
  Session reference = make_world(3);
  reference.shrinkwrap(wrapped_exe);
  EXPECT_EQ(digest(wrapped_load.get()), digest(reference.load(wrapped_exe)));
  EXPECT_TRUE(refreshed.get().pristine);
}

/// Best-of-20 wall time of a manual-drain cycle that runs one memo-hit
/// Load for client 0.
double one_request_cycle_us(SessionPool& pool, const std::string& exe) {
  double best_us = 1e12;
  for (int round = 0; round < 20; ++round) {
    pool.submit_load_shared(0, exe);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(pool.pump(), 1u);
    best_us = std::min(best_us, std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
  }
  return best_us;
}

// A client served only by model-free memo hits never forks, so it leaves
// no state behind: 100k such ids neither hold memory nor slow the idle
// sweep that every drain cycle runs.
TEST(SessionPool, MemoHitOnlyClientsLeaveNoStateForTheSweep) {
  PoolConfig config;
  config.shards = 1;
  config.manual_drain = true;
  SessionPool pool(make_world(1), config);
  const std::string exe = "/apps/a0/bin/app";
  pool.submit_load_shared(0, exe);  // the miss: client 0 forks
  pool.drain();

  const double before_us = one_request_cycle_us(pool, exe);

  constexpr ClientId kIds = 100'000;
  for (ClientId id = 1; id <= kIds; ++id) {
    pool.submit_load_shared(id, exe);
    if (id % 512 == 0) pool.pump();
  }
  pool.drain();
  const double after_us = one_request_cycle_us(pool, exe);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.memo_hits, kIds + 40);
  EXPECT_EQ(stats.clients_live, 1u);  // only client 0 ever forked
  EXPECT_LE(after_us, 10 * before_us + 50)
      << "before " << before_us << " us, after " << after_us << " us";
}

// Forks that are not yet due cost the idle sweep nothing: 20k clients
// holding pristine forks leave the one-request drain cycle as it was.
TEST(SessionPool, IdleSweepPaysOnlyForTheForksItEvicts) {
  PoolConfig config;
  config.shards = 1;
  config.manual_drain = true;
  SessionPool pool(make_world(1), config);
  const std::string exe = "/apps/a0/bin/app";
  pool.submit_load_shared(0, exe);  // the miss: client 0 forks
  pool.drain();

  const double before_us = one_request_cycle_us(pool, exe);

  constexpr ClientId kIds = 20'000;
  for (ClientId id = 1; id <= kIds; ++id) {
    pool.submit_query(id);  // forks the client
    if (id % 512 == 0) pool.pump();
  }
  pool.drain();
  const double after_us = one_request_cycle_us(pool, exe);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.clients_live, kIds + 1);  // every fork is still held
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_LE(after_us, 10 * before_us + 50)
      << "before " << before_us << " us, after " << after_us << " us";
}

// ------------------------------- the property: concurrent == sequential

struct ScriptStep {
  int op = 0;  // 0 load(own), 1 load(other), 2 whatif(own), 3 shrinkwrap(own)
  std::string exe;
};

TEST(SessionPoolProperty, RandomConcurrentClientsMatchSequentialRuns) {
  constexpr std::size_t kApps = 6;
  constexpr std::size_t kClients = 12;
  constexpr std::size_t kSteps = 5;

  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, kApps);
  WorldBuilder twin_b;
  install_fleet(twin_b, kApps);

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> op_dist(0, 3);
  std::uniform_int_distribution<std::size_t> exe_dist(0, kApps - 1);
  std::vector<std::vector<ScriptStep>> scripts(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::string& own = exes[c % kApps];
    for (std::size_t s = 0; s < kSteps; ++s) {
      ScriptStep step;
      step.op = op_dist(rng);
      step.exe = step.op == 1 ? exes[exe_dist(rng)] : own;
      scripts[c].push_back(step);
    }
  }

  // Concurrent: all clients interleaved through the pool. Submission
  // round-robins by step so shard queues genuinely mix clients.
  PoolConfig config;
  config.shards = 4;
  config.threads = 4;
  SessionPool pool(twin_b.build(), config);
  std::vector<std::vector<std::string>> concurrent(kClients);
  std::vector<std::vector<std::future<loader::LoadReport>>> loads(kClients);
  std::vector<std::vector<std::future<Session::WhatIfReport>>> whatifs(
      kClients);
  std::vector<std::vector<std::future<shrinkwrap::WrapReport>>> wraps(
      kClients);
  for (std::size_t s = 0; s < kSteps; ++s) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const ScriptStep& step = scripts[c][s];
      const ClientId client = static_cast<ClientId>(c + 1);
      switch (step.op) {
        case 0:
        case 1:
          loads[c].push_back(pool.submit_load(client, step.exe));
          break;
        case 2:
          whatifs[c].push_back(pool.submit_whatif(client, step.exe));
          break;
        case 3:
          wraps[c].push_back(pool.submit_shrinkwrap(client, step.exe));
          break;
      }
    }
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    std::size_t load_i = 0;
    std::size_t whatif_i = 0;
    std::size_t wrap_i = 0;
    for (const ScriptStep& step : scripts[c]) {
      switch (step.op) {
        case 0:
        case 1:
          concurrent[c].push_back(digest(loads[c][load_i++].get()));
          break;
        case 2:
          concurrent[c].push_back(digest(whatifs[c][whatif_i++].get()));
          break;
        case 3:
          concurrent[c].push_back(digest(wraps[c][wrap_i++].get()));
          break;
      }
    }
  }

  // Sequential reference: each client's script on a private fork of a
  // byte-identical twin world, one after another on this thread.
  Session base = twin_a.build();
  base.seal();  // mirror the pool's ctor seal (what the priming fork did)
  for (std::size_t c = 0; c < kClients; ++c) {
    Session session = base.fork();
    std::size_t step_index = 0;
    for (const ScriptStep& step : scripts[c]) {
      std::string expected;
      switch (step.op) {
        case 0:
        case 1:
          expected = digest(session.load(step.exe));
          break;
        case 2:
          expected = digest(session.whatif(step.exe));
          break;
        case 3:
          expected = digest(session.shrinkwrap(step.exe));
          break;
      }
      EXPECT_EQ(concurrent[c][step_index], expected)
          << "client " << c << " step " << step_index << " op "
          << scripts[c][step_index].op << " exe " << scripts[c][step_index].exe;
      ++step_index;
    }
  }

  pool.drain();  // counters update after promises are fulfilled
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, kClients * kSteps);
  EXPECT_EQ(stats.worker_errors, 0u);
}

// Same property under a STATEFUL latency model: random load scripts from
// concurrent clients, memoization active, every report (sim_time_s
// included) exactly the sequential per-client fork reference's.
TEST(SessionPoolProperty, RandomizedMemoRepricingMatchesSequentialForks) {
  constexpr std::size_t kApps = 4;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kSteps = 4;

  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, kApps);
  WorldBuilder twin_b;
  install_fleet(twin_b, kApps);

  std::mt19937 rng(20260808);
  std::uniform_int_distribution<std::size_t> exe_dist(0, kApps - 1);
  std::vector<std::vector<std::string>> scripts(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t s = 0; s < kSteps; ++s) {
      scripts[c].push_back(exes[exe_dist(rng)]);
    }
  }

  Session base = twin_b.build();
  base.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  PoolConfig config;
  config.shards = 4;
  config.threads = 4;
  SessionPool pool(std::move(base), config);
  ASSERT_TRUE(pool.repricing_active());
  std::vector<std::vector<std::future<loader::LoadReport>>> futures(kClients);
  for (std::size_t s = 0; s < kSteps; ++s) {
    for (std::size_t c = 0; c < kClients; ++c) {
      futures[c].push_back(
          pool.submit_load(static_cast<ClientId>(c + 1), scripts[c][s]));
    }
  }

  Session reference = twin_a.build();
  reference.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  reference.seal();  // mirror the pool's ctor seal
  for (std::size_t c = 0; c < kClients; ++c) {
    Session session = reference.fork_sealed();
    for (std::size_t s = 0; s < kSteps; ++s) {
      const loader::LoadReport got = futures[c][s].get();
      const loader::LoadReport want = session.load(scripts[c][s]);
      EXPECT_EQ(digest_sans_time(got), digest_sans_time(want))
          << "client " << c << " step " << s << " exe " << scripts[c][s];
      EXPECT_EQ(got.stats.sim_time_s, want.stats.sim_time_s)
          << "client " << c << " step " << s << " exe " << scripts[c][s];
    }
  }

  pool.drain();  // counters update after promises are fulfilled
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, kClients * kSteps);
  EXPECT_EQ(stats.worker_errors, 0u);
  // 32 loads over 4 distinct closures: the memo carried most of them.
  // (>= kApps misses, not ==: two strands may race the same cold key.)
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GE(stats.memo_misses, kApps);
  EXPECT_EQ(stats.forks_locked, 0u);  // every admission was the sealed stamp
}

// Loads, Shrinkwraps and Resets from concurrent clients under a STATEFUL
// latency model: every reply encodes byte for byte like the client's script
// run sequentially on its own fork. A Shrinkwrap on a pristine fork
// resolves from the memo when another strand's Load already filled the
// entry and runs the loader when not; the reply must not show which.
TEST(SessionPoolProperty, RandomRepricedShrinkwrapTurnsMatchSequentialForks) {
  constexpr std::size_t kApps = 3;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kSteps = 8;
  enum Op { kLoadOwn, kLoadOther, kWrap, kReset };

  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, kApps);
  WorldBuilder twin_b;
  install_fleet(twin_b, kApps);

  std::mt19937 rng(20261019);
  std::uniform_int_distribution<int> op_dist(kLoadOwn, kReset);
  std::uniform_int_distribution<std::size_t> exe_dist(0, kApps - 1);
  std::vector<std::vector<ScriptStep>> scripts(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t s = 0; s < kSteps; ++s) {
      ScriptStep step;
      step.op = op_dist(rng);
      step.exe = step.op == kLoadOther ? exes[exe_dist(rng)] : exes[c % kApps];
      scripts[c].push_back(step);
    }
  }

  Session base = twin_b.build();
  base.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  PoolConfig config;
  config.shards = 4;
  config.threads = 4;
  SessionPool pool(std::move(base), config);
  std::vector<std::vector<std::future<loader::LoadReport>>> loads(kClients);
  std::vector<std::vector<std::future<shrinkwrap::WrapReport>>> wraps(
      kClients);
  for (std::size_t s = 0; s < kSteps; ++s) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const ScriptStep& step = scripts[c][s];
      const ClientId client = static_cast<ClientId>(c + 1);
      if (step.op == kWrap) {
        wraps[c].push_back(pool.submit_shrinkwrap(client, step.exe));
      } else if (step.op == kReset) {
        pool.reset(client);
      } else {
        loads[c].push_back(pool.submit_load(client, step.exe));
      }
    }
  }

  Session reference = twin_a.build();
  reference.fs().set_latency_model(std::make_shared<vfs::NfsModel>());
  reference.seal();  // mirror the pool's ctor seal
  for (std::size_t c = 0; c < kClients; ++c) {
    Session session = reference.fork_sealed();
    std::size_t load_i = 0;
    std::size_t wrap_i = 0;
    for (std::size_t s = 0; s < kSteps; ++s) {
      const ScriptStep& step = scripts[c][s];
      std::string got;
      std::string want;
      if (step.op == kWrap) {
        got = encode_wrap_report(wraps[c][wrap_i++].get());
        want = encode_wrap_report(session.shrinkwrap(step.exe));
      } else if (step.op == kReset) {
        session = reference.fork_sealed();
        continue;
      } else {
        got = encode_load_report(loads[c][load_i++].get());
        want = encode_load_report(session.load(step.exe));
      }
      EXPECT_EQ(got, want) << "client " << c << " step " << s << " op "
                           << step.op << " exe " << step.exe;
    }
  }

  pool.drain();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.worker_errors, 0u);
  EXPECT_GT(stats.memo_hits, 0u);
}

// ------------------------------------------------------- admission safety

// Regression: enqueue incremented pending_ before scheduling the drain
// task; when the worker-pool submit threw (pool shutting down), the
// counter was never given back, drain() blocked forever, and the shard's
// `draining` flag stayed set — wedging the strand for every later submit.
// The fault hook forces exactly that failure.
TEST(SessionPool, FailedDrainSchedulingDoesNotLeakPendingOrWedgeTheShard) {
  std::atomic<int> faults{1};
  PoolConfig config;
  config.drain_submit_fault = [&faults] {
    if (faults.fetch_sub(1) > 0) {
      throw std::runtime_error("worker pool rejected the drain task");
    }
  };
  SessionPool pool(make_world(), config);
  const std::string exe = "/apps/a0/bin/app";

  // The submit surfaces the failure instead of returning a future that
  // can never complete.
  EXPECT_THROW(pool.submit_load(1, exe), std::runtime_error);

  // Before the fix this hung forever on the leaked pending_ count.
  pool.drain();

  // And the shard is not wedged: the next submit schedules a fresh drain
  // task and completes normally.
  EXPECT_TRUE(pool.submit_load(1, exe).get().success);
  pool.drain();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.rejected, 1u);  // the failed admission was counted
}

// Telemetry is bounded: latencies and batch sizes live in fixed-size
// histograms, so stats() merges buckets and its cost does not grow with
// the number of requests served.
TEST(SessionPool, StatsStaysUnderAMillisecondAfterAMillionRequests) {
  PoolConfig config;
  config.manual_drain = true;  // the test thread runs every drain cycle
  SessionPool pool(make_world(1), config);
  constexpr std::size_t kRequests = 1'000'000;
  constexpr std::size_t kChunk = 1000;  // under the high-water mark
  for (std::size_t done = 0; done < kRequests; done += kChunk) {
    for (std::size_t i = 0; i < kChunk; ++i) {
      pool.release(static_cast<ClientId>(i % 64));
    }
    while (pool.pump() != 0) {
    }
  }
  double best_ms = 1e9;
  PoolStats stats;
  for (int round = 0; round < 5; ++round) {
    const auto start = std::chrono::steady_clock::now();
    stats = pool.stats();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  EXPECT_LE(best_ms, 1.0);
  const OpLatency& control =
      stats.latency[static_cast<std::size_t>(RequestKind::Control)];
  EXPECT_EQ(control.count, kRequests);
  EXPECT_LE(control.p50_us, control.p99_us);
  EXPECT_LE(control.p99_us, control.max_us);
  EXPECT_EQ(stats.drain_batch.cycles, stats.drain_cycles);
}

// Batched admission: commands submitted inside one Admission wait for the
// scope to end, each touched shard then runs them as ONE drain cycle, and
// every command's completion fires with its tag after its result is set.
TEST(SessionPool, AdmissionWakesEachShardOnceAndCompletesEveryTag) {
  SessionPool pool(make_world());
  const std::string exe = "/apps/a0/bin/app";
  ASSERT_TRUE(pool.submit_load(1, exe).get().success);  // memo warm
  pool.drain();
  const PoolStats before = pool.stats();

  constexpr std::uint64_t kCommands = 64;
  std::vector<std::future<std::shared_ptr<const loader::LoadReport>>> futures(
      kCommands);
  std::mutex done_mutex;
  std::vector<std::uint64_t> done_tags;
  std::atomic<int> ready_before_completion{0};
  {
    SessionPool::Admission admission(pool, [&](std::uint64_t tag) {
      if (futures[tag].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ready_before_completion.fetch_add(1);
      }
      std::lock_guard lock(done_mutex);
      done_tags.push_back(tag);
    });
    std::vector<bool> shard_used(pool.stats().shards, false);
    for (std::uint64_t tag = 0; tag < kCommands; ++tag) {
      admission.tag(tag);
      futures[tag] = pool.submit_load_shared(100 + tag, exe);
      shard_used[pool.shard_of(100 + tag)] = true;
    }
    // Nothing runs while the scope is open: no strand was woken.
    for (auto& future : futures) {
      EXPECT_EQ(future.wait_for(std::chrono::milliseconds(0)),
                std::future_status::timeout);
    }
  }
  pool.drain();
  for (auto& future : futures) EXPECT_TRUE(future.get()->success);
  std::sort(done_tags.begin(), done_tags.end());
  ASSERT_EQ(done_tags.size(), kCommands);
  for (std::uint64_t tag = 0; tag < kCommands; ++tag) {
    EXPECT_EQ(done_tags[tag], tag);
  }
  EXPECT_EQ(ready_before_completion.load(), static_cast<int>(kCommands));
  const PoolStats after = pool.stats();
  // One cycle per shard the scope touched (every client lands somewhere).
  EXPECT_LE(after.drain_cycles - before.drain_cycles, after.shards);
  EXPECT_EQ(after.executed - before.executed, kCommands);
}

// Scheduling fails after an Admission queued commands: they are failed
// through their futures and completions instead of wedging drain().
TEST(SessionPool, AdmissionFailsQueuedCommandsWhenTheDrainCannotBeScheduled) {
  PoolConfig config;
  config.drain_submit_fault = [] {
    throw std::runtime_error("worker pool rejected the drain task");
  };
  SessionPool pool(make_world(), config);
  std::atomic<int> completions{0};
  std::future<loader::LoadReport> load;
  std::future<void> reset;
  {
    SessionPool::Admission admission(
        pool, [&](std::uint64_t) { completions.fetch_add(1); });
    load = pool.submit_load(1, "/apps/a0/bin/app");
    reset = pool.reset(2);
  }
  pool.drain();  // must not hang
  EXPECT_THROW(load.get(), std::runtime_error);
  EXPECT_THROW(reset.get(), std::runtime_error);
  EXPECT_EQ(completions.load(), 2);
  EXPECT_EQ(pool.stats().rejected, 2u);
}

// pump() beside worker drains: while a pump() cycle owns the shard, a
// submit sees it draining and schedules nothing, so pump() must hand what
// is still queued to a worker strand when its cycle ends. Otherwise B is
// never run and drain() (so ~SessionPool) hangs.
TEST(SessionPool, PumpBesideWorkerDrainsHandsLateSubmitsToAStrand) {
  std::promise<void> a_completing;
  std::future<void> a_in_completion = a_completing.get_future();
  std::promise<void> release_a;
  std::future<void> a_released = release_a.get_future();
  PoolConfig config;
  config.shards = 1;
  config.threads = 1;
  SessionPool pool(make_world(), config);
  const std::string exe = "/apps/a0/bin/app";

  std::future<std::shared_ptr<const loader::LoadReport>> a;
  std::thread pumper;
  {
    SessionPool::Admission admission(pool, [&](std::uint64_t tag) {
      if (tag != 1) return;
      a_completing.set_value();
      a_released.wait();
    });
    admission.tag(1);
    a = pool.submit_load_shared(1, exe);  // queued, no strand woken
    pumper = std::thread([&pool] { pool.pump(); });
    a_in_completion.wait();  // pump() ran A and blocks in its completion
  }
  auto b = pool.submit_load_shared(2, exe);  // the shard is draining
  release_a.set_value();
  pumper.join();

  const bool b_ran =
      b.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!b_ran) pool.pump();  // run B here so the destructor cannot hang
  EXPECT_TRUE(b_ran);
  EXPECT_TRUE(a.get()->success);
  EXPECT_TRUE(b.get()->success);
  pool.drain();
  EXPECT_EQ(pool.stats().executed, 2u);
}

}  // namespace
}  // namespace depchaos::svc
