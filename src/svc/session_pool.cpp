#include "depchaos/svc/session_pool.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <list>
#include <shared_mutex>
#include <type_traits>
#include <utility>
#include <variant>

#include "depchaos/support/log_histogram.hpp"

namespace depchaos::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// The idle sweep evicts a pristine fork untouched for this many of its
/// shard's drain cycles.
constexpr std::uint64_t kIdleEvictCycles = 1024;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// splitmix64 finalizer: client ids are often small consecutive integers,
/// whose identity hash would land every client in shard 0.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A report for the load memo, which keeps it for the pool's lifetime:
/// without the push_back slack the loader leaves in its vectors.
std::shared_ptr<const loader::LoadReport> memo_report(
    loader::LoadReport report) {
  report.load_order.shrink_to_fit();
  report.requests.shrink_to_fit();
  report.missing.shrink_to_fit();
  report.probe_log.shrink_to_fit();
  return std::make_shared<const loader::LoadReport>(std::move(report));
}

}  // namespace

std::string_view request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::Load:
      return "load";
    case RequestKind::LoadMany:
      return "load_many";
    case RequestKind::Whatif:
      return "whatif";
    case RequestKind::Shrinkwrap:
      return "shrinkwrap";
    case RequestKind::LaunchFleet:
      return "launch_fleet";
    case RequestKind::Query:
      return "query";
    case RequestKind::Control:
      return "control";
  }
  return "?";
}

Overloaded::Overloaded(std::size_t shard, std::size_t queue_depth,
                       double retry_after_s)
    : Error("svc: shard " + std::to_string(shard) + " over high-water mark (" +
            std::to_string(queue_depth) + " pending); retry in " +
            std::to_string(retry_after_s) + "s"),
      shard_(shard),
      queue_depth_(queue_depth),
      retry_after_s_(retry_after_s) {}

// ---- internal command/state types -----------------------------------------

struct LoadCmd {
  std::string exe;
  std::promise<std::shared_ptr<const loader::LoadReport>> done;
};
struct LoadManyCmd {
  std::vector<std::string> exes;
  std::promise<std::vector<loader::LoadReport>> done;
};
struct WhatifCmd {
  std::string exe;
  std::promise<core::Session::WhatIfReport> done;
};
struct WrapCmd {
  std::string exe;
  std::promise<shrinkwrap::WrapReport> done;
};
struct FleetCmd {
  core::SandboxSpec spec;
  std::string exe;
  int ranks = 0;
  launch::FleetConfig fleet;
  std::promise<launch::LaunchResult> done;
};
struct QueryCmd {
  std::promise<QueryResult> done;
};
struct ControlCmd {  // reset: drop the client's fork
  std::promise<void> done;
};

struct SessionPool::Command {
  /// One alternative per RequestKind, in its order.
  using Op = std::variant<LoadCmd, LoadManyCmd, WhatifCmd, WrapCmd, FleetCmd,
                          QueryCmd, ControlCmd>;
  static_assert(std::variant_size_v<Op> == kRequestKinds);

  ClientId client = 0;
  Clock::time_point enqueued;
  Op op;
  /// Set when submitted inside an Admission: called with `tag` once the
  /// result is set.
  std::function<void(std::uint64_t)> on_done;
  std::uint64_t tag = 0;

  RequestKind kind() const { return static_cast<RequestKind>(op.index()); }
};

/// A client's whole pool state: the fork it holds. A client without an
/// entry is pristine and holds nothing.
struct SessionPool::ClientState {
  core::Session session;
  bool pristine = true;  // no mutating request executed on this fork
  std::uint64_t last_active = 0;  // shard drain-cycle stamp
  std::list<ClientId>::iterator idle_slot{};  // in Shard::idle, if pristine
};

struct SessionPool::Shard {
  std::size_t index = 0;

  /// Queue + counters + histograms. Never held while a command executes.
  mutable std::mutex mutex;
  std::deque<Command> queue;
  bool draining = false;  // a strand task is queued or running
  double service_ema_s = 100e-6;  // feeds the Overloaded retry-after hint
  std::uint64_t executed = 0;
  std::uint64_t memoized = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evicted = 0;
  std::uint64_t errors = 0;
  std::uint64_t cycles = 0;
  std::array<support::LogHistogram, kRequestKinds> latency;  // microseconds

  /// Client forks, one entry per client holding one. The strand holds it
  /// for the duration of each command so stats() can read live-fork
  /// aggregates without racing execution; submits never touch it.
  mutable std::mutex client_mutex;
  std::unordered_map<ClientId, ClientState> clients;
  /// The pristine forks of `clients`, least recently active first: the
  /// idle sweep pops due forks off the front and stops at the first that
  /// is not due, so a cycle pays only for what it evicts.
  std::list<ClientId> idle;

  /// Commands executed per drain-cycle batch (PoolStats::drain_batch).
  support::LogHistogram batch_sizes;
};

/// One bucket of the load memo. The hit path — the common case under
/// fleet traffic — takes only the shared lock; a miss inserts under the
/// exclusive lock after resolving OUTSIDE any memo lock.
struct SessionPool::MemoShard {
  struct Entry {
    /// The resolved report. Model-free pools hand this exact object to
    /// every hit (zero copies); re-pricing pools hand it to a hit whose
    /// replay charged the client's fork what the miss charged, and to any
    /// other hit a copy whose stats are that replay's charge.
    std::shared_ptr<const loader::LoadReport> report;
    /// The miss run's op trace (null on model-free pools); with the report
    /// it is also a pristine fork's Shrinkwrap's resolving load.
    std::shared_ptr<const vfs::OpTrace> trace;
  };
  mutable std::shared_mutex mutex;
  std::unordered_map<std::string, Entry> map;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

// ---- construction ---------------------------------------------------------

SessionPool::SessionPool(core::Session base, PoolConfig config)
    : config_(config), base_(std::move(base)) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  // A latency model's per-view state (nfs()'s attribute cache) shows up
  // in sim_time_s, so memo hits cannot reuse the stored report verbatim:
  // misses record their op trace and hits replay it through the client's
  // own model. (Counters and load orders are warmth-transparent by the
  // PR-3 dentry-cache contract, so everything else memoizes as-is. Ops
  // are priced only when a model is installed, which is why reprice_
  // keys on latency_model() alone.)
  reprice_ = base_.fs().latency_model() != nullptr;
  // Seal the fork family: freeze the base's overlay and dentry snapshot
  // once (observably what the old priming fork did) so every admission is
  // a lock-free O(1) fork_sealed() stamp and the base session is never
  // structurally mutated again.
  base_.seal();
  memo_shards_.reserve(kMemoShards);
  for (std::size_t i = 0; i < kMemoShards; ++i) {
    memo_shards_.push_back(std::make_unique<MemoShard>());
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
  }
  pool_ = std::make_unique<support::ThreadPool>(config_.threads);
}

SessionPool::~SessionPool() {
  drain();
  // pool_ (last member) is destroyed first, joining every strand before
  // the shards and base go away.
}

std::size_t SessionPool::shard_of(ClientId client) const {
  return static_cast<std::size_t>(mix64(client) % shards_.size());
}

SessionPool::Shard& SessionPool::shard_for(ClientId client) {
  return *shards_[shard_of(client)];
}

SessionPool::MemoShard& SessionPool::memo_shard_for(const std::string& key) {
  return *memo_shards_[std::hash<std::string>{}(key) % memo_shards_.size()];
}

// ---- admission ------------------------------------------------------------

namespace {
// The Admission scope open on this thread (innermost), if any.
thread_local SessionPool::Admission* t_admission = nullptr;
}  // namespace

SessionPool::Admission::Admission(SessionPool& pool,
                                  std::function<void(std::uint64_t)> on_done)
    : pool_(pool),
      on_done_(std::move(on_done)),
      touched_(pool.shards_.size(), false),
      outer_(t_admission) {
  t_admission = this;
}

SessionPool::Admission::~Admission() {
  t_admission = outer_;
  for (std::size_t i = 0; i < touched_.size(); ++i) {
    if (touched_[i]) pool_.wake(*pool_.shards_[i]);
  }
}

template <typename Cmd>
auto SessionPool::submit_command(ClientId client, Cmd cmd) {
  auto future = cmd.done.get_future();
  Command command;
  command.op = std::move(cmd);
  enqueue(client, std::move(command));
  return future;
}

void SessionPool::enqueue(ClientId client, Command command) {
  Shard& shard = shard_for(client);
  Admission* admission =
      t_admission != nullptr && &t_admission->pool_ == this ? t_admission
                                                            : nullptr;
  command.client = client;
  command.enqueued = Clock::now();
  if (admission) {
    command.on_done = admission->on_done_;
    command.tag = admission->tag_;
  }
  {
    std::lock_guard lock(shard.mutex);
    // Control commands (reset) shed state and bypass the bound — an
    // overloaded pool must stay able to shrink itself.
    if (command.kind() != RequestKind::Control &&
        shard.queue.size() >= config_.queue_high_water) {
      ++shard.rejected;
      throw Overloaded(shard.index, shard.queue.size(),
                       shard.service_ema_s *
                           static_cast<double>(shard.queue.size() + 1));
    }
    pending_.fetch_add(1, std::memory_order_acq_rel);
    shard.queue.push_back(std::move(command));
  }
  if (admission) {
    admission->touched_[shard.index] = true;  // woken when the scope ends
  } else {
    wake(shard);
  }
}

void SessionPool::wake(Shard& shard) {
  std::deque<Command> orphans;
  std::exception_ptr error;
  {
    std::lock_guard lock(shard.mutex);
    // Strand invariant: at most one drain task per shard in flight, so
    // commands for one client never execute concurrently or out of order.
    if (shard.queue.empty() || shard.draining) return;
    try {
      if (config_.drain_submit_fault) config_.drain_submit_fault();
      pool_->submit([this, &shard] {
        while (drain_cycle(shard) != 0) {
        }
      });
      shard.draining = true;  // the task waits for this lock to run
    } catch (...) {
      // The worker-pool submit failed (e.g. pool shutting down) and no
      // strand is in flight: fail what is queued through its futures
      // instead of leaving drain() waiting on it.
      error = std::current_exception();
      orphans.swap(shard.queue);
      shard.rejected += orphans.size();
    }
  }
  for (Command& command : orphans) {
    std::visit([&](auto& cmd) { cmd.done.set_exception(error); },
               command.op);
    notify(shard, command);
    retire();
  }
}

void SessionPool::retire(std::size_t n) {
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lock(quiesce_mutex_);
    quiesce_cv_.notify_all();
  }
}

void SessionPool::notify(Shard& shard, Command& command) {
  if (!command.on_done) return;
  try {
    command.on_done(command.tag);
  } catch (...) {
    // The front end could not take the completion (out of memory); the
    // strand must still retire the command, so count it and move on.
    std::lock_guard lock(shard.mutex);
    ++shard.errors;
  }
}

std::size_t SessionPool::drain_cycle(Shard& shard) {
  std::deque<Command> batch;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.queue.empty()) {
      shard.draining = false;
      return 0;
    }
    batch.swap(shard.queue);
    ++shard.cycles;
  }
  // Execute the whole batch outside the queue lock — submissions keep
  // landing while the strand works, and they will be picked up by the
  // next cycle of the same task (the while-loop in wake).
  for (Command& command : batch) {
    execute(shard, command);
    notify(shard, command);
  }
  std::size_t evicted = 0;
  {
    std::lock_guard lock(shard.client_mutex);
    evicted = sweep_idle(shard);
  }
  {
    std::lock_guard lock(shard.mutex);
    shard.evicted += evicted;
    shard.batch_sizes.record(static_cast<double>(batch.size()));
  }
  // Retired after the bookkeeping, so stats() after drain() reads it whole.
  retire(batch.size());
  return batch.size();
}

void SessionPool::drain() {
  std::unique_lock lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

// ---- execution ------------------------------------------------------------

void SessionPool::finish(Shard& shard, RequestKind kind, bool error,
                         bool memo_hit, double wait_s, double service_s) {
  const double total_us = (wait_s + service_s) * 1e6;
  std::lock_guard lock(shard.mutex);
  ++shard.executed;
  if (error) ++shard.errors;
  if (memo_hit) ++shard.memoized;
  shard.latency[static_cast<std::size_t>(kind)].record(total_us);
  shard.service_ema_s = 0.9 * shard.service_ema_s + 0.1 * service_s;
}

void SessionPool::execute(Shard& shard, Command& command) {
  const Clock::time_point started = Clock::now();
  const double wait_s = seconds_between(command.enqueued, started);
  bool error = false;
  bool memo_hit = false;

  std::lock_guard clients_lock(shard.client_mutex);
  const auto found = shard.clients.find(command.client);
  ClientState* state =
      found != shard.clients.end() ? &found->second : nullptr;
  if (state) {
    state->last_active = shard.cycles;
    if (state->pristine) {
      shard.idle.splice(shard.idle.end(), shard.idle, state->idle_slot);
    }
  }

  // Lazily acquire the client's fork (Control and model-free memo hits
  // need none; everything else does). The base is sealed at pool
  // construction, so the expected path is a lock-free fork_sealed stamp;
  // the fork mutex survives only as the unsealed-base fallback.
  auto fork_base = [&]() -> core::Session {
    if (base_.sealed()) {
      forks_wait_free_.fetch_add(1, std::memory_order_relaxed);
      return base_.fork_sealed();
    }
    std::lock_guard fork_lock(fork_mutex_);
    forks_locked_.fetch_add(1, std::memory_order_relaxed);
    return base_.sealed() ? base_.fork_sealed() : base_.fork();
  };
  auto ensure_session = [&]() -> core::Session& {
    if (!state) {
      state = &shard.clients
                   .emplace(command.client,
                            ClientState{.session = fork_base(),
                                        .last_active = shard.cycles})
                   .first->second;
      state->idle_slot = shard.idle.insert(shard.idle.end(), command.client);
    }
    return state->session;
  };

  // The memo's key for `exe`, and the entry under a key (copied under the
  // shared lock; a null report when absent).
  auto memo_key = [&](const std::string& exe) {
    return exe.empty() ? base_.default_exe() : exe;
  };
  auto find_memo = [](MemoShard& memo, const std::string& key) {
    std::shared_lock memo_lock(memo.mutex);
    const auto it = memo.map.find(key);
    return it != memo.map.end() ? it->second : MemoShard::Entry{};
  };

  // One Load, through the shared-world memo when sound: on a pristine fork
  // the report is a pure function of the exe (see header), so thousands of
  // clients loading the same closure cost one resolution fleet-wide. On a
  // model-free pool every hit receives the same immutable report object
  // (no copies); under a latency model a hit charges the stored op trace
  // to the client's fork (vfs::FileSystem::replay), so the report's stats
  // and the fork's counters and cache warmth afterwards are bit-identical
  // to executing the load, and the hit shares the memo's report whenever
  // those stats are the miss's own.
  auto run_load =
      [&](const std::string& exe) -> std::shared_ptr<const loader::LoadReport> {
    const std::string key = memo_key(exe);
    if (!state || state->pristine) {
      MemoShard& memo = memo_shard_for(key);
      if (MemoShard::Entry entry = find_memo(memo, key); entry.report) {
        memo_hit = true;
        memo.hits.fetch_add(1, std::memory_order_relaxed);
        if (!entry.trace) return entry.report;
        vfs::FileSystem& fs = ensure_session().fs();
        const vfs::SyscallStats before = fs.stats();
        fs.replay(*entry.trace);
        const vfs::SyscallStats charge = fs.stats() - before;
        // A fork as fresh as the miss's charges what the miss charged:
        // it gets the memo's own report, whose encoding the wire caches.
        if (charge == entry.report->stats) return entry.report;
        auto charged = std::make_shared<loader::LoadReport>(*entry.report);
        charged->stats = charge;
        return charged;
      }
      memo.misses.fetch_add(1, std::memory_order_relaxed);
      core::Session& session = ensure_session();
      MemoShard::Entry entry;
      if (reprice_) {
        auto trace = std::make_shared<vfs::OpTrace>();
        vfs::FileSystem::TraceScope scope(session.fs(), *trace);
        entry.report = memo_report(session.load(exe));
        entry.trace = std::move(trace);
      } else {
        entry.report = memo_report(session.load(exe));
      }
      {
        std::unique_lock memo_lock(memo.mutex);
        memo.map.try_emplace(key, entry);
      }
      // This client's own run is returned even if a racing strand
      // inserted first — both are correct for their clients.
      return entry.report;
    }
    return std::make_shared<const loader::LoadReport>(ensure_session().load(exe));
  };

  // Every verb's exception lands in the FUTURE, never in the worker: a bad
  // request (missing exe, malformed image) is the client's problem, and
  // the strand moves on to the next command.
  auto deliver = [&](auto& cmd, auto&& produce) {
    try {
      if constexpr (std::is_void_v<decltype(produce())>) {
        produce();
        cmd.done.set_value();
      } else {
        cmd.done.set_value(produce());
      }
    } catch (...) {
      error = true;
      cmd.done.set_exception(std::current_exception());
    }
  };

  switch (command.kind()) {
    case RequestKind::Load: {
      auto& cmd = std::get<LoadCmd>(command.op);
      deliver(cmd, [&] { return run_load(cmd.exe); });
      break;
    }
    case RequestKind::LoadMany: {
      // Executed as a serial loop in the strand (not Session::load_many,
      // which would nest a private thread pool per request): reports are
      // byte-identical either way, and each entry still rides the memo.
      auto& cmd = std::get<LoadManyCmd>(command.op);
      deliver(cmd, [&] {
        std::vector<loader::LoadReport> reports;
        reports.reserve(cmd.exes.size());
        for (const std::string& exe : cmd.exes) {
          reports.push_back(loader::LoadReport(*run_load(exe)));
        }
        return reports;
      });
      break;
    }
    case RequestKind::Whatif: {
      // whatif works inside a throwaway sub-fork: the client's world is
      // observably unchanged, so the fork stays pristine.
      auto& cmd = std::get<WhatifCmd>(command.op);
      deliver(cmd, [&] { return ensure_session().whatif(cmd.exe); });
      break;
    }
    case RequestKind::Shrinkwrap: {
      // On a pristine fork a re-pricing memo entry is the wrap's resolving
      // load (see header); the lookup inserts nothing and counts nowhere.
      auto& cmd = std::get<WrapCmd>(command.op);
      deliver(cmd, [&] {
        const std::string key = memo_key(cmd.exe);
        const MemoShard::Entry entry = !state || state->pristine
                                           ? find_memo(memo_shard_for(key), key)
                                           : MemoShard::Entry{};
        core::Session& session = ensure_session();
        shrinkwrap::WrapReport report;
        if (entry.trace) {
          const shrinkwrap::RecordedLoad recorded{*entry.report, *entry.trace};
          report = session.shrinkwrap(cmd.exe, {}, &recorded);
        } else {
          report = session.shrinkwrap(cmd.exe);
        }
        // With the pool's options a wrap writes the binary exactly when it
        // resolved everything; a refused wrap leaves the fork pristine.
        if (report.ok() && state->pristine) {
          state->pristine = false;
          shard.idle.erase(state->idle_slot);
        }
        return report;
      });
      break;
    }
    case RequestKind::LaunchFleet: {
      auto& cmd = std::get<FleetCmd>(command.op);
      // The caller's config (rank_setup, engine) rides along: pooled
      // tenants get the same class-clustered O(#classes) measurement as
      // direct launch_fleet callers.
      deliver(cmd, [&] {
        return ensure_session().launch_fleet(cmd.spec, cmd.exe, cmd.ranks,
                                             cmd.fleet);
      });
      break;
    }
    case RequestKind::Query: {
      auto& cmd = std::get<QueryCmd>(command.op);
      deliver(cmd, [&] {
        core::Session& session = ensure_session();
        QueryResult result;
        result.inode_count = session.fs().inode_count();
        result.layer_depth = session.fs().layer_depth();
        result.owned_bytes = session.fs().owned_bytes();
        result.interned_paths = session.fs().paths().size();
        result.mount_count = session.fs().mounts().size();
        result.default_exe = session.default_exe();
        result.pristine = state->pristine;
        return result;
      });
      break;
    }
    case RequestKind::Control: {
      // Drop the fork; the next request re-forks lazily.
      auto& cmd = std::get<ControlCmd>(command.op);
      deliver(cmd, [&] {
        if (!state) return;
        if (state->pristine) shard.idle.erase(state->idle_slot);
        shard.clients.erase(command.client);
      });
      break;
    }
  }

  const double service_s = seconds_between(started, Clock::now());
  finish(shard, command.kind(), error, memo_hit, wait_s, service_s);
}

std::size_t SessionPool::sweep_idle(Shard& shard) {
  // Caller holds shard.client_mutex. A pristine fork carries no
  // divergence: drop it, re-fork O(1) on the next request. A mutated fork
  // stays as it is.
  std::size_t evicted = 0;
  while (!shard.idle.empty()) {
    const auto it = shard.clients.find(shard.idle.front());
    if (shard.cycles - it->second.last_active < kIdleEvictCycles) {
      break;
    }
    shard.clients.erase(it);
    shard.idle.pop_front();
    ++evicted;
  }
  return evicted;
}

// ---- typed submits --------------------------------------------------------

std::future<loader::LoadReport> SessionPool::submit_load(ClientId client,
                                                         std::string exe) {
  return std::async(
      std::launch::deferred,
      [shared = submit_load_shared(client, std::move(exe))]() mutable {
        return loader::LoadReport(*shared.get());
      });
}

std::future<std::shared_ptr<const loader::LoadReport>>
SessionPool::submit_load_shared(ClientId client, std::string exe) {
  return submit_command(client, LoadCmd{std::move(exe), {}});
}

std::future<std::vector<loader::LoadReport>> SessionPool::submit_load_many(
    ClientId client, std::vector<std::string> exes) {
  return submit_command(client, LoadManyCmd{std::move(exes), {}});
}

std::future<core::Session::WhatIfReport> SessionPool::submit_whatif(
    ClientId client, std::string exe) {
  return submit_command(client, WhatifCmd{std::move(exe), {}});
}

std::future<shrinkwrap::WrapReport> SessionPool::submit_shrinkwrap(
    ClientId client, std::string exe) {
  return submit_command(client, WrapCmd{std::move(exe), {}});
}

std::future<launch::LaunchResult> SessionPool::submit_launch_fleet(
    ClientId client, core::SandboxSpec spec, std::string exe, int ranks,
    launch::FleetConfig fleet) {
  return submit_command(client, FleetCmd{std::move(spec), std::move(exe),
                                         ranks, std::move(fleet), {}});
}

std::future<QueryResult> SessionPool::submit_query(ClientId client) {
  return submit_command(client, QueryCmd{});
}

std::future<void> SessionPool::reset(ClientId client) {
  return submit_command(client, ControlCmd{});
}

// ---- observability --------------------------------------------------------

PoolStats SessionPool::stats() const {
  PoolStats stats;
  stats.shards = shards_.size();
  stats.queue_depths.reserve(shards_.size());
  std::array<support::LogHistogram, kRequestKinds> merged;
  support::LogHistogram batches;
  for (const auto& shard : shards_) {
    {
      std::lock_guard lock(shard->mutex);
      stats.queue_depths.push_back(shard->queue.size());
      stats.executed += shard->executed;
      stats.memoized += shard->memoized;
      stats.rejected += shard->rejected;
      stats.evicted += shard->evicted;
      stats.worker_errors += shard->errors;
      stats.drain_cycles += shard->cycles;
      for (std::size_t k = 0; k < kRequestKinds; ++k) {
        merged[k].merge(shard->latency[k]);
      }
      batches.merge(shard->batch_sizes);
    }
    std::lock_guard lock(shard->client_mutex);
    stats.clients_live += shard->clients.size();
    for (const auto& [id, state] : shard->clients) {
      stats.fork_owned_bytes += state.session.fs().owned_bytes();
    }
  }
  stats.admitted = stats.executed + pending_.load(std::memory_order_acquire);
  stats.forks_wait_free = forks_wait_free_.load(std::memory_order_relaxed);
  stats.forks_locked = forks_locked_.load(std::memory_order_relaxed);
  stats.memo_shard_hits.reserve(memo_shards_.size());
  stats.memo_shard_misses.reserve(memo_shards_.size());
  for (const auto& memo : memo_shards_) {
    const std::uint64_t hits = memo->hits.load(std::memory_order_relaxed);
    const std::uint64_t misses = memo->misses.load(std::memory_order_relaxed);
    stats.memo_shard_hits.push_back(hits);
    stats.memo_shard_misses.push_back(misses);
    stats.memo_hits += hits;
    stats.memo_misses += misses;
  }
  if (!batches.empty()) {
    stats.drain_batch.cycles = batches.count();
    stats.drain_batch.p50 = batches.quantile(0.50);
    stats.drain_batch.p99 = batches.quantile(0.99);
    stats.drain_batch.max = static_cast<std::uint64_t>(batches.max());
  }
  stats.pool_threads = pool_->size();
  for (std::size_t k = 0; k < kRequestKinds; ++k) {
    const support::LogHistogram& h = merged[k];
    if (h.empty()) continue;
    OpLatency& lat = stats.latency[k];
    lat.count = h.count();
    lat.p50_us = h.quantile(0.50);
    lat.p99_us = h.quantile(0.99);
    lat.max_us = h.max();
  }
  return stats;
}

}  // namespace depchaos::svc
