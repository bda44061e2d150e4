// svc::SessionPool — a multi-tenant session service over one shared world.
//
// The paper's storm problem is many clients hammering one shared metadata
// world at once; the CoW-fork + shared-PathTable + shared dentry-snapshot
// architecture (PRs 2-5) already gives every client an O(1) private view of
// that world. SessionPool finishes the server: it owns one immutable base
// core::Session and admits thousands of concurrent clients, each lazily
// acquiring a copy-on-write fork of the base on first request. Requests are
// typed commands (Load, LoadMany, Whatif, Shrinkwrap, LaunchFleet, Query)
// pushed into a sharded admission queue — N shards hashed by client id —
// and each shard is drained as a strand on one shared support::ThreadPool:
// at most one drain task per shard is ever in flight, so every client's
// commands execute in submission order on its own fork, with no lock held
// during execution (the nebula threaded-command-buffer idiom: worker
// threads draining typed command queues, batched per drain cycle).
//
// Concurrency contract (see the vfs.hpp "Thread safety" audit):
//  * Every client executes exclusively on ITS fork — a vfs view is never
//    shared between threads. Shard strand-exclusivity enforces this.
//  * Fork acquisition from the base is WAIT-FREE: the constructor seal()s
//    the base (freeze the overlay, rotate the dentry snapshot, seal
//    writable mount backings — exactly the old priming fork's side
//    effects, done once), after which Session::fork_sealed() is a const
//    stamp any number of strands may run concurrently with no lock. A
//    pool-wide fork mutex survives only as the fallback for the
//    never-expected case of an unsealed base; PoolStats counts how many
//    admissions took each path.
//  * The shared substrate read concurrently by every client — frozen CoW
//    layers, read-only mount backings, the fork-family PathTable, the
//    shared dentry snapshot — is immutable or internally synchronized.
//
// Shared-world request dedup: on a PRISTINE fork (no mutating request
// executed yet) a Load's report is a pure function of (exe, environment) —
// the PR-3 dentry cache and the parsed-object caches are counter-
// transparent, so warmth never shows in a report. The pool therefore
// memoizes Load reports across pristine clients (the Spindle insight:
// identical metadata requests from a fleet are served once). The memo is
// bucket-sharded by key hash and its hit path is a shared-mutex read, so
// under fleet traffic (hits are the common case) thousands of concurrent
// Loads no longer serialize on one mutex.
//
// Memoization under a latency model: per-view cache warmth (nfs()'s
// attribute cache) shows up in sim_time_s, so a memoized report cannot be
// handed out verbatim when the base carries a LatencyModel. Instead, the
// miss run records its vfs::OpTrace — every counted operation with its
// hit and node-local attribution — alongside the warmth-INDEPENDENT
// report fields. A memo hit charges that trace to the hitting client's
// own fork (vfs::FileSystem::replay, the accounting charging uses) and
// reports the fork's counter delta: the report, and the fork's counters
// and cache warmth afterwards, are bit-identical to the client executing
// the load, while the resolution work is still done once fleet-wide. A
// fork as fresh as the miss's charges exactly what the miss charged (a
// charge is a sum of non-negative costs, so equal stats encode alike,
// sim_time_s bit for bit); such a hit receives the
// memo's own report, as every hit does on a model-free pool, so the wire
// serves its cached encoding. A fork an earlier load warmed is charged
// less and receives its own copy carrying its own charge.
//
// A Shrinkwrap on a pristine fork resolves the closure its load would
// resolve, which is exactly a memo entry's load: with a re-pricing entry
// it wraps from the entry's report and charges its trace where the loader
// would have run (shrinkwrap::RecordedLoad), so the wrap report and the
// fork are the same as with the loader run. That lookup only reads the
// memo: it inserts nothing and counts in no memo statistic. Without an
// entry, or on a model-free pool, the wrap runs the loader. Only a wrap
// that wrote the binary (one that resolved everything) ends the fork's
// pristine state.
//
// Backpressure: each shard's queue is bounded; past the high-water mark
// submits fail fast with svc::Overloaded carrying a retry-after hint
// derived from the shard's recent per-command service time. Reset
// commands bypass the bound so an overloaded pool can still shed state.
//
// Fork lifecycle: a client's pool state is exactly its fork. A client
// without one is pristine: model-free memo hits and reset() serve it
// without forking, and every other request forks the base O(1) on first
// need. reset() drops the fork; the next request re-forks lazily. An idle
// sweep runs every drain cycle and evicts pristine forks idle for 1024 of
// their shard's drain cycles (re-forked O(1) on the next request); mutated
// forks keep their divergence as it is (a shrinkwrapped world must survive
// its owner's coffee break).
//
//   svc::SessionPool pool(core::WorldBuilder().debian().build());
//   auto f = pool.submit_load(client_id, "/usr/bin/bin7");
//   loader::LoadReport r = f.get();          // throws what the verb threw
//   svc::PoolStats s = pool.stats();         // depths, p50/p99, evictions
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "depchaos/core/session.hpp"
#include "depchaos/support/error.hpp"
#include "depchaos/support/thread_pool.hpp"

namespace depchaos::svc {

/// Caller-chosen client identity; requests with one id execute in
/// submission order on that client's private fork.
using ClientId = std::uint64_t;

/// The typed command set a pool serves (indexes PoolStats::latency).
enum class RequestKind : std::uint8_t {
  Load,
  LoadMany,
  Whatif,
  Shrinkwrap,
  LaunchFleet,
  Query,
  Control,  // reset
};
inline constexpr std::size_t kRequestKinds = 7;
std::string_view request_kind_name(RequestKind kind);

/// Thrown synchronously by submit_* when the client's shard queue is past
/// the high-water mark. `retry_after_s` estimates when the backlog will
/// have drained (queue depth x recent per-command service time).
class Overloaded : public Error {
 public:
  Overloaded(std::size_t shard, std::size_t queue_depth, double retry_after_s);
  std::size_t shard() const { return shard_; }
  std::size_t queue_depth() const { return queue_depth_; }
  double retry_after_s() const { return retry_after_s_; }

 private:
  std::size_t shard_;
  std::size_t queue_depth_;
  double retry_after_s_;
};

struct PoolConfig {
  /// Admission shards (hashed by client id). More shards = finer-grained
  /// drains and less head-of-line blocking between client groups.
  std::size_t shards = 4;
  /// Shared worker pool size (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Per-shard pending-command bound; submits past it throw Overloaded.
  std::size_t queue_high_water = 1024;
  /// Test-only fault injection: invoked right before each worker-pool
  /// drain submission; throwing simulates a submit failure (pool shutting
  /// down). No strand will run what the shard has queued, so those
  /// commands fail through their futures, count as rejected, and drain()
  /// still returns.
  std::function<void()> drain_submit_fault;
};

/// Answer to a Query request: facts about the client's view of the world.
struct QueryResult {
  std::size_t inode_count = 0;     // composed namespace size
  std::size_t layer_depth = 0;     // CoW chain under the client's fork
  std::uint64_t owned_bytes = 0;   // the fork's private divergence
  std::size_t interned_paths = 0;  // fork-family shared PathTable size
  std::size_t mount_count = 0;
  std::string default_exe;
  bool pristine = true;  // no request has written this fork's world
};

/// count and max are exact; the quantiles come from a log-bucket histogram
/// (support::LogHistogram) and are within 1/16 of the exact value.
struct OpLatency {
  std::uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

/// One consistent snapshot of the pool's health (the service dashboard).
struct PoolStats {
  std::size_t shards = 0;
  std::vector<std::size_t> queue_depths;  // pending commands, per shard
  std::size_t clients_live = 0;           // clients holding a fork
  std::uint64_t admitted = 0;             // commands accepted
  std::uint64_t executed = 0;             // commands completed
  std::uint64_t memoized = 0;             // Loads served from the dedup memo
  std::uint64_t rejected = 0;             // Overloaded submits
  std::uint64_t evicted = 0;              // idle pristine forks dropped
  std::uint64_t drain_cycles = 0;
  std::uint64_t worker_errors = 0;  // exceptions forwarded to futures
  std::uint64_t fork_owned_bytes = 0;  // Σ owned_bytes over live forks
  /// End-to-end (enqueue -> result ready) latency per request kind.
  std::array<OpLatency, kRequestKinds> latency{};

  // ---- contention observability -------------------------------------------
  /// Fork admission paths: wait-free = Session::fork_sealed with no lock
  /// (the expected path — the base is sealed at construction); locked =
  /// the fork-mutex fallback. locked > 0 means the base lost its seal.
  std::uint64_t forks_wait_free = 0;
  std::uint64_t forks_locked = 0;
  /// Load-memo traffic per memo shard (hit path is a shared-lock read).
  /// memo_hits == `memoized`'s memo-served count; misses ran a resolution.
  std::vector<std::uint64_t> memo_shard_hits;
  std::vector<std::uint64_t> memo_shard_misses;
  std::uint64_t memo_hits = 0;    // Σ memo_shard_hits
  std::uint64_t memo_misses = 0;  // Σ memo_shard_misses
  /// Commands per drain-cycle batch (how much batching the strands get).
  struct BatchStats {
    std::uint64_t cycles = 0;  // batches recorded
    double p50 = 0;
    double p99 = 0;
    std::uint64_t max = 0;
  };
  BatchStats drain_batch;
  /// Worker threads (support::ThreadPool) that run the shard strands.
  std::size_t pool_threads = 0;
};

class SessionPool {
 public:
  /// Take ownership of the base world. The base is seal()ed up front
  /// (observably identical to the old priming fork) so every admission is
  /// an O(1) LOCK-FREE fork_sealed() stamp and the base session is never
  /// structurally mutated again.
  explicit SessionPool(core::Session base, PoolConfig config = {});
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  // ---- typed submission (thread-safe; throws Overloaded on backpressure) --
  /// Load `exe` on the client's fork. When the Load memo serves N clients
  /// the same (exe, env) resolution, they all receive ONE shared immutable
  /// report instead of N deep copies (the pull-based broadcast idea:
  /// identical responses to a fleet are one payload).
  std::future<std::shared_ptr<const loader::LoadReport>> submit_load_shared(
      ClientId client, std::string exe = {});
  /// submit_load_shared, copied out. The returned future is DEFERRED: the
  /// command is queued (or Overloaded thrown) now, and get() waits for it
  /// and copies the shared report; wait_for() returns
  /// std::future_status::deferred.
  std::future<loader::LoadReport> submit_load(ClientId client,
                                              std::string exe = {});
  std::future<std::vector<loader::LoadReport>> submit_load_many(
      ClientId client, std::vector<std::string> exes);
  std::future<core::Session::WhatIfReport> submit_whatif(ClientId client,
                                                         std::string exe = {});
  std::future<shrinkwrap::WrapReport> submit_shrinkwrap(ClientId client,
                                                        std::string exe = {});
  /// Containerized fleet launch: the FleetConfig (cluster model,
  /// rank_setup hook, engine/prestage knobs) rides along with the command,
  /// so pooled tenants get the same O(#classes) class-clustered
  /// measurement as direct Session::launch_fleet callers. The hook runs on
  /// the client's strand inside per-rank sandbox forks of the client's own
  /// view — never on a shared structure.
  std::future<launch::LaunchResult> submit_launch_fleet(
      ClientId client, core::SandboxSpec spec, std::string exe, int ranks,
      launch::FleetConfig fleet);
  std::future<QueryResult> submit_query(ClientId client);

  // ---- fork lifecycle (bypasses the high-water mark: it sheds state) -------
  /// Drop the client's fork: it is pristine again, and its next request
  /// re-forks the base lazily.
  std::future<void> reset(ClientId client);

  // ---- batched admission (front ends) -------------------------------------
  /// Scoped admission for a front end that submits many commands at once
  /// (WireServer, one socket read at a time). While it is alive, commands
  /// submitted on THIS thread are queued without waking their shard's
  /// strand; the destructor wakes each touched shard once, so a burst of N
  /// commands costs one wake per shard instead of N. Each such command also
  /// calls `on_done(tag)` on the executing worker right after its future's
  /// result (or exception) is set, with the value last passed to tag(): how
  /// a front end learns which future is ready without polling any. The
  /// submit_* calls keep their signatures and still throw Overloaded
  /// synchronously. `on_done` must stay callable until drain() returns.
  class Admission {
   public:
    Admission(SessionPool& pool, std::function<void(std::uint64_t)> on_done);
    ~Admission();

    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;

    /// The tag carried by the commands submitted next.
    void tag(std::uint64_t tag) { tag_ = tag; }

   private:
    friend class SessionPool;
    SessionPool& pool_;
    std::function<void(std::uint64_t)> on_done_;
    std::uint64_t tag_ = 0;
    std::vector<bool> touched_;   // by shard index
    Admission* outer_ = nullptr;  // this thread's enclosing scope, if any
  };

  // ---- control ------------------------------------------------------------
  /// Block until every admitted command has completed (quiescence).
  void drain();

  PoolStats stats() const;
  const PoolConfig& config() const { return config_; }
  /// Which shard serves this client (submission-order domain).
  std::size_t shard_of(ClientId client) const;
  /// True when memo hits charge the miss run's op trace to the client's
  /// fork, priced by its own latency model (base carries a LatencyModel).
  bool repricing_active() const { return reprice_; }
  /// The shared base. Const access is safe while the pool is quiescent
  /// (ctor, or after drain() with no concurrent submits): admissions
  /// serialize on an internal mutex but are not readers-safe against it.
  const core::Session& base() const { return base_; }

 private:
  struct Shard;
  struct ClientState;
  struct Command;
  struct MemoShard;

  Shard& shard_for(ClientId client);
  MemoShard& memo_shard_for(const std::string& key);
  std::size_t drain_cycle(Shard& shard);  // strand body; returns commands run
  /// Build the command around `cmd`, enqueue it, return its future.
  template <typename Cmd>
  auto submit_command(ClientId client, Cmd cmd);
  void enqueue(ClientId client, Command command);
  void execute(Shard& shard, Command& command);
  void notify(Shard& shard, Command& command);  // the Admission completion
  // `n` admitted commands are done: count them off pending_.
  void retire(std::size_t n = 1);
  /// Start a strand for what the shard has queued, unless one is in
  /// flight; if none can be scheduled, fail the queued commands.
  void wake(Shard& shard);
  std::size_t sweep_idle(Shard& shard);  // returns forks evicted
  void finish(Shard& shard, RequestKind kind, bool error, bool memo_hit,
              double wait_s, double service_s);

  PoolConfig config_;
  core::Session base_;
  bool reprice_ = false;  // base carries a latency model: re-price hits

  /// Fallback only: admissions are lock-free via fork_sealed() while the
  /// base stays sealed (always, absent outside mutation of base()).
  std::mutex fork_mutex_;
  std::atomic<std::uint64_t> forks_wait_free_{0};
  std::atomic<std::uint64_t> forks_locked_{0};

  /// Load memo, bucket-sharded by key hash; hit path takes the shard's
  /// shared lock only.
  static constexpr std::size_t kMemoShards = 16;
  std::vector<std::unique_ptr<MemoShard>> memo_shards_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::size_t> pending_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;

  // Last member: destroyed (joined) first, so no drain task can touch the
  // shards or the base during teardown.
  std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace depchaos::svc
