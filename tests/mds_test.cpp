// The metadata-server contention simulator core (depchaos::mds):
// event-ordering determinism, hand-computed cache accounting, analytic
// equivalence on the regime the formula covers, and the scenarios the
// formula cannot express (stragglers, warm second waves, topologies).
#include <gtest/gtest.h>

#include <cmath>

#include "depchaos/launch/launch.hpp"
#include "depchaos/mds/sim.hpp"
#include "depchaos/support/rng.hpp"

namespace depchaos::mds {
namespace {

vfs::OpRecord op(vfs::OpKind kind, bool hit, std::uint32_t key,
                 bool shared = true, bool node_local = false) {
  return vfs::OpRecord{kind, hit, shared, node_local, key};
}

/// A homogeneous all-shared stream of `n` metadata ops on distinct paths.
std::vector<vfs::OpRecord> shared_stream(std::uint32_t n) {
  std::vector<vfs::OpRecord> ops;
  ops.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ops.push_back(op(i % 2 ? vfs::OpKind::Open : vfs::OpKind::Stat,
                     /*hit=*/true, i));
  }
  return ops;
}

TEST(MdsValidate, RejectsNonPhysicalParameters) {
  const MdsConfig good;
  EXPECT_NO_THROW(validate(good));

  MdsConfig c = good;
  c.service.mean_s = 0;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.service.mean_s = -1e-6;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.service.uniform_spread = 1.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.service.uniform_spread = -0.1;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.service.pareto_alpha = 1.0;  // infinite mean
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.cache.hit_cost_s = -1;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.topology.fanout = 1;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.topology.relay_hop_factor = -0.1;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.topology.local_op_cost_s = -1e-9;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.contention_exponent = -0.5;
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.contention_exponent = std::nan("");
  EXPECT_THROW(validate(c), std::invalid_argument);
  c = good;
  c.start_delays = {0.0, -1.0};
  EXPECT_THROW(validate(c), std::invalid_argument);
  EXPECT_THROW(MdsSimulator{c}, std::invalid_argument);
}

TEST(MdsSim, LockstepDirectFleetMatchesStormFormulaExactly) {
  // Homogeneous clients, fixed service, no cache, DirectMds: every wave is
  // one batch of P costing mean*P^gamma, so the makespan is EXACTLY the
  // analytic storm_meta_seconds — the construction that pins the two
  // engines together.
  const auto stream = shared_stream(20);
  MdsConfig config;  // Fixed, mean 11us, gamma 0.55
  for (const int nprocs : {1, 7, 64, 1024}) {
    MdsSimulator sim(config);
    const SimResult result = sim.run_homogeneous(stream, nprocs);
    const double expected = 20 * config.service.mean_s *
                            std::pow(nprocs, config.contention_exponent);
    EXPECT_NEAR(result.makespan_s, expected, expected * 1e-9) << nprocs;
    EXPECT_EQ(result.server_requests, 20ull * nprocs);
    EXPECT_EQ(result.batches, 20ull);
    EXPECT_EQ(result.max_queue_depth, static_cast<std::uint64_t>(nprocs));
    EXPECT_DOUBLE_EQ(result.mean_batch, static_cast<double>(nprocs));
    EXPECT_EQ(result.cache_hits, 0ull);
    EXPECT_EQ(result.cache_misses, 0ull);
  }
}

TEST(MdsSim, PropertyDirectFixedNoCacheMatchesAnalyticExtrapolate) {
  // Randomized sweep: op count and rank count vary, the invariant holds
  // within 2% (it is exact up to floating-point accumulation).
  support::Rng rng(0xD15C0);
  for (int iter = 0; iter < 25; ++iter) {
    const auto ops = static_cast<std::uint32_t>(rng.between(3, 300));
    const int nprocs = static_cast<int>(rng.between(1, 600));
    launch::ClusterConfig cluster;
    const double analytic =
        launch::storm_meta_seconds(static_cast<double>(ops), nprocs, cluster);

    MdsSimulator sim(launch::mds_config_for(cluster, /*prestaged=*/false));
    const SimResult sim_result = sim.run_homogeneous(shared_stream(ops),
                                                     nprocs);
    EXPECT_NEAR(sim_result.makespan_s, analytic, analytic * 0.02)
        << "ops=" << ops << " nprocs=" << nprocs;
  }
}

TEST(MdsSim, DeterministicUnderFixedSeedAcrossDistributions) {
  // Heterogeneous streams + a straggler + heavy-tailed service: two fresh
  // simulators with the same seed must agree bit-for-bit; a different
  // seed must not.
  std::vector<std::vector<vfs::OpRecord>> streams;
  for (std::uint32_t r = 0; r < 9; ++r) {
    auto s = shared_stream(30 + 7 * r);
    s.push_back(op(vfs::OpKind::Stat, /*hit=*/false, 1000 + r,
                   /*shared=*/true));
    streams.push_back(std::move(s));
  }
  for (const Dist dist : {Dist::Fixed, Dist::Uniform, Dist::Pareto}) {
    MdsConfig config;
    config.service.dist = dist;
    config.service.seed = 1234;
    config.start_delays = {0, 0, 0.5};
    const SimResult a = MdsSimulator(config).run(streams);
    const SimResult b = MdsSimulator(config).run(streams);
    EXPECT_EQ(a.makespan_s, b.makespan_s);  // bitwise
    EXPECT_EQ(a.server_requests, b.server_requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
      EXPECT_EQ(a.ranks[r].finish_s, b.ranks[r].finish_s);
    }
    if (dist != Dist::Fixed) {
      MdsConfig other = config;
      other.service.seed = 99;
      const SimResult c = MdsSimulator(other).run(streams);
      EXPECT_NE(a.makespan_s, c.makespan_s);
    }
  }
}

TEST(MdsSim, CacheAccountingExactOnHandComputedThreeRankTrace) {
  // gamma = 1 makes a batch cost the plain sum of its service times, so
  // every number below is hand-computable. Stream per rank:
  //   stat A (hit), open A (hit), stat B (miss)
  // mean 1s, cache hit 0.25s, no negative caching, 3 ranks.
  //
  // Wave 1: all ranks miss the cache on A at t=0 -> batch of 3, 3s.
  //   Resume at 3: open A hits the cache (3.25), stat B misses (not
  //   cacheable) -> batch of 3 arriving 3.25, done 6.25.
  const std::vector<vfs::OpRecord> stream = {
      op(vfs::OpKind::Stat, true, 0),
      op(vfs::OpKind::Open, true, 0),
      op(vfs::OpKind::Stat, false, 1),
  };
  MdsConfig config;
  config.service.mean_s = 1.0;
  config.contention_exponent = 1.0;
  config.cache.enabled = true;
  config.cache.hit_cost_s = 0.25;
  MdsSimulator sim(config);

  const SimResult wave1 = sim.run_homogeneous(stream, 3);
  EXPECT_DOUBLE_EQ(wave1.makespan_s, 6.25);
  EXPECT_EQ(wave1.cache_hits, 3ull);
  EXPECT_EQ(wave1.cache_misses, 6ull);
  EXPECT_EQ(wave1.server_requests, 6ull);
  EXPECT_EQ(wave1.batches, 2ull);
  EXPECT_DOUBLE_EQ(wave1.mean_batch, 3.0);
  EXPECT_DOUBLE_EQ(wave1.latency_max_s, 3.0);
  for (const RankOutcome& r : wave1.ranks) {
    EXPECT_DOUBLE_EQ(r.finish_s, 6.25);
    EXPECT_EQ(r.cache_hits, 1ull);
    EXPECT_EQ(r.server_ops, 2ull);
  }

  // Wave 2 on warm caches: A hits twice (0.5s), B still misses (negative
  // answers are not cached) -> one batch of 3 arriving 0.5, done 3.5.
  const SimResult wave2 = sim.run_homogeneous(stream, 3);
  EXPECT_DOUBLE_EQ(wave2.makespan_s, 3.5);
  EXPECT_EQ(wave2.cache_hits, 6ull);
  EXPECT_EQ(wave2.cache_misses, 3ull);
  EXPECT_EQ(wave2.server_requests, 3ull);

  // With negative caching the second wave never touches the server.
  config.cache.negative_caching = true;
  MdsSimulator neg(config);
  neg.run_homogeneous(stream, 3);
  const SimResult warm = neg.run_homogeneous(stream, 3);
  EXPECT_EQ(warm.server_requests, 0ull);
  EXPECT_DOUBLE_EQ(warm.makespan_s, 0.75);

  // reset_caches() makes the fleet cold again.
  neg.reset_caches();
  const SimResult cold = neg.run_homogeneous(stream, 3);
  EXPECT_EQ(cold.server_requests, 6ull);
}

TEST(MdsSim, SpindleTreeFlattensSharedScaling) {
  const auto stream = shared_stream(40);
  MdsConfig direct;
  MdsConfig spindle;
  spindle.topology = Topology::spindle();
  const SimResult d1024 = MdsSimulator(direct).run_homogeneous(stream, 1024);
  const SimResult s256 = MdsSimulator(spindle).run_homogeneous(stream, 256);
  const SimResult s1024 = MdsSimulator(spindle).run_homogeneous(stream, 1024);
  // One resolver + relay: only rank 0's ops hit the server...
  EXPECT_EQ(s1024.server_requests, 40ull);
  EXPECT_EQ(s1024.relayed_ops, 40ull * 1023);
  // ...so the metadata phase stops scaling with P (relay depth only)...
  EXPECT_LT(s1024.makespan_s, s256.makespan_s * 1.1);
  // ...and beats the direct storm at scale.
  EXPECT_LT(s1024.makespan_s, d1024.makespan_s);
}

TEST(MdsSim, PrestagedServesSharedOpsLocally) {
  // Shared ops never touch the MDS; a rank-private op still does.
  auto stream = shared_stream(10);
  stream.push_back(op(vfs::OpKind::Open, true, 500, /*shared=*/false));
  MdsConfig config;
  config.topology = Topology::prestaged();
  const SimResult result = MdsSimulator(config).run_homogeneous(stream, 64);
  EXPECT_EQ(result.local_ops, 10ull * 64);
  EXPECT_EQ(result.server_requests, 64ull);
  // An op already flagged node-local in the trace is local even under
  // DirectMds — the measured latency class travels with the stream.
  auto flagged = shared_stream(4);
  for (auto& o : flagged) o.node_local = true;
  const SimResult direct = MdsSimulator(MdsConfig{}).run_homogeneous(
      flagged, 8);
  EXPECT_EQ(direct.server_requests, 0ull);
  EXPECT_EQ(direct.local_ops, 4ull * 8);
}

TEST(MdsSim, StragglerDominatesMakespanAndTail) {
  const auto stream = shared_stream(25);
  MdsConfig config;
  const SimResult tight = MdsSimulator(config).run_homogeneous(stream, 32);

  MdsConfig late = config;
  late.start_delays.assign(32, 0.0);
  late.start_delays[7] = 0.5;
  const SimResult straggled =
      MdsSimulator(late).run_homogeneous(stream, 32);
  // The fleet is held hostage by one late rank — a mechanism the analytic
  // formula (uniform ranks by construction) cannot express.
  EXPECT_GT(straggled.makespan_s, 0.5);
  EXPECT_GT(straggled.makespan_s, tight.makespan_s * 2);
  double worst = 0;
  std::size_t worst_rank = 0;
  for (std::size_t r = 0; r < straggled.ranks.size(); ++r) {
    if (straggled.ranks[r].finish_s > worst) {
      worst = straggled.ranks[r].finish_s;
      worst_rank = r;
    }
  }
  EXPECT_EQ(worst_rank, 7u);
}

TEST(MdsSim, ServiceDistributionsPreserveTheConfiguredMean) {
  // One client, many ops, batch size 1: the makespan is the plain sum of
  // service samples, so makespan / ops estimates the distribution mean.
  const auto stream = shared_stream(4000);
  for (const Dist dist : {Dist::Uniform, Dist::Pareto}) {
    MdsConfig config;
    config.service.dist = dist;
    const SimResult result = MdsSimulator(config).run_homogeneous(stream, 1);
    const double mean_estimate = result.makespan_s / 4000.0;
    EXPECT_NEAR(mean_estimate, config.service.mean_s,
                config.service.mean_s * 0.15)
        << static_cast<int>(dist);
  }
  // Heavy tail shows up in the percentile spread.
  MdsConfig pareto;
  pareto.service.dist = Dist::Pareto;
  pareto.service.pareto_alpha = 1.5;
  const SimResult tail = MdsSimulator(pareto).run_homogeneous(stream, 1);
  EXPECT_LE(tail.latency_p50_s, tail.latency_p99_s);
  EXPECT_LE(tail.latency_p99_s, tail.latency_max_s);
  EXPECT_GT(tail.latency_max_s, tail.latency_p50_s * 5);
}

TEST(MdsSim, RunOverloadsAgree) {
  const auto stream = shared_stream(15);
  std::vector<std::vector<vfs::OpRecord>> copies(6, stream);
  MdsConfig config;
  const SimResult a = MdsSimulator(config).run_homogeneous(stream, 6);
  const SimResult b = MdsSimulator(config).run(copies);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.batches, b.batches);
}

TEST(MdsTest, ReadRecordsAreNotServerTraffic) {
  // Measured traces carry the data-phase reads after each open; the
  // simulator must replay only the metadata stream. Interleave reads (on
  // opened keys, on unseen keys, shared and node-local) into heterogeneous
  // streams and compare every SimResult field across topologies, caching,
  // stragglers and a warm second wave.
  std::vector<std::vector<vfs::OpRecord>> meta;
  for (std::uint32_t r = 0; r < 5; ++r) {
    auto s = shared_stream(12 + 3 * r);
    s.push_back(op(vfs::OpKind::Stat, /*hit=*/false, 500 + r));
    s.push_back(op(vfs::OpKind::Open, /*hit=*/true, 600 + r,
                   /*shared=*/false));
    meta.push_back(std::move(s));
  }
  std::vector<std::vector<vfs::OpRecord>> with_reads;
  for (const auto& stream : meta) {
    std::vector<vfs::OpRecord> s = {
        op(vfs::OpKind::Read, /*hit=*/true, 900, /*shared=*/false)};
    for (const vfs::OpRecord& o : stream) {
      s.push_back(o);
      if (o.kind == vfs::OpKind::Open && o.hit) {
        s.push_back(op(vfs::OpKind::Read, true, o.path, /*shared=*/false,
                       /*node_local=*/o.path % 3 == 0));
      }
    }
    s.push_back(op(vfs::OpKind::Read, true, 901, /*shared=*/true));
    with_reads.push_back(std::move(s));
  }

  const auto expect_same = [](const SimResult& a, const SimResult& b) {
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.server_requests, b.server_requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
    EXPECT_EQ(a.mean_batch, b.mean_batch);
    EXPECT_EQ(a.latency_mean_s, b.latency_mean_s);
    EXPECT_EQ(a.latency_p50_s, b.latency_p50_s);
    EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
    EXPECT_EQ(a.latency_max_s, b.latency_max_s);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.local_ops, b.local_ops);
    EXPECT_EQ(a.relayed_ops, b.relayed_ops);
    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
      EXPECT_EQ(a.ranks[r].finish_s, b.ranks[r].finish_s);
      EXPECT_EQ(a.ranks[r].server_ops, b.ranks[r].server_ops);
      EXPECT_EQ(a.ranks[r].cache_hits, b.ranks[r].cache_hits);
      EXPECT_EQ(a.ranks[r].local_ops, b.ranks[r].local_ops);
      EXPECT_EQ(a.ranks[r].relayed_ops, b.ranks[r].relayed_ops);
    }
  };

  std::vector<MdsConfig> configs(4);
  configs[1].cache.enabled = true;
  configs[1].cache.negative_caching = true;
  configs[1].service.dist = Dist::Uniform;
  configs[1].start_delays = {0, 2e-5};
  configs[2].topology = Topology::spindle();
  configs[2].cache.enabled = true;
  configs[3].topology = Topology::prestaged();
  configs[3].service.dist = Dist::Pareto;
  for (const MdsConfig& config : configs) {
    MdsSimulator plain(config);
    MdsSimulator traced(config);
    for (int wave = 0; wave < 2; ++wave) {
      expect_same(plain.run(meta), traced.run(with_reads));
    }
    expect_same(MdsSimulator(config).run_homogeneous(meta[1], 7),
                MdsSimulator(config).run_homogeneous(with_reads[1], 7));
  }
}

}  // namespace
}  // namespace depchaos::mds
