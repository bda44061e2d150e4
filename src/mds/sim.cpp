// Event loop for the metadata-server contention simulator.
//
// Three event kinds on a (time, sequence) min-heap:
//
//   ClientResume — a rank continues replaying its op stream. Cache hits
//                  and node-local ops advance only its local clock; the
//                  first op needing the server issues ONE request (closed
//                  loop: each rank has at most one outstanding request).
//   ServerKick   — an idle server drains every pending request whose
//                  arrival has passed as one batch of size b; the batch
//                  takes (Σ sampled service times) · b^(γ−1).
//   ServerDone   — the batch completes: per-request latency accounting,
//                  cache fills, Spindle resolutions, and the batch's
//                  clients resume.
//
// The global sequence counter breaks time ties in schedule order, which is
// what makes simultaneous arrivals deterministic AND correct: the kick
// scheduled while rank 0 issues its t=0 request carries a higher sequence
// number than the other ranks' t=0 resume events, so all P requests are
// queued before the batch is taken.
//
// Spindle: rank 0 is the resolver. Whenever the resolver completes a
// shared op — via server, cache, or node-local storage — the answer for
// that path key becomes relayable; parked waiters wake at
// resolved_time + tree_depth(rank) · relay_hop_factor · mean. Ranks that
// park on a key the resolver will never resolve (heterogeneous streams)
// fall back to a direct MDS request when the resolver finishes.

#include "depchaos/mds/sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "depchaos/support/log_histogram.hpp"
#include "depchaos/support/rng.hpp"

namespace depchaos::mds {

namespace {

void reject(const char* what) { throw std::invalid_argument(what); }

double sample_service(const ServiceModel& service, support::Rng& rng) {
  switch (service.dist) {
    case Dist::Fixed:
      return service.mean_s;
    case Dist::Uniform:
      // mean * [1-spread, 1+spread]; mean-preserving.
      return service.mean_s *
             (1.0 - service.uniform_spread +
              rng.uniform() * 2.0 * service.uniform_spread);
    case Dist::Pareto: {
      // Scale xm so E[X] = xm * a/(a-1) equals the configured mean.
      const double a = service.pareto_alpha;
      const double xm = service.mean_s * (a - 1.0) / a;
      return xm * std::pow(1.0 - rng.uniform(), -1.0 / a);
    }
  }
  return service.mean_s;
}

/// Level of `rank` in the complete fanout-ary broadcast tree rooted at the
/// resolver (rank 0 = level 0).
int tree_depth(int rank, int fanout) {
  int level = 0;
  std::int64_t start = 0, width = 1;
  while (rank >= start + width) {
    start += width;
    width *= fanout;
    ++level;
  }
  return level;
}

struct Request {
  double arrival = 0;
  std::uint64_t seq = 0;
  int rank = 0;
  std::uint32_t key = 0;
  bool shared = false;
  bool hit = false;
};

struct RequestLater {
  bool operator()(const Request& a, const Request& b) const {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.seq > b.seq;
  }
};

enum class EventKind : std::uint8_t { ClientResume, ServerKick, ServerDone };

struct Event {
  double time = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::ClientResume;
  int rank = 0;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// One run's mutable state (the simulator object itself only carries the
/// config and the warm caches that persist across runs).
class Run {
 public:
  Run(const MdsConfig& config,
      const std::vector<const std::vector<vfs::OpRecord>*>& streams,
      std::vector<std::unordered_set<std::uint32_t>>& warm)
      : config_(config),
        streams_(streams),
        warm_(warm),
        rng_(config.service.seed),
        nranks_(static_cast<int>(streams.size())) {
    if (warm_.size() < streams_.size()) warm_.resize(streams_.size());
    clock_.resize(streams_.size());
    next_op_.assign(streams_.size(), 0);
    finished_.assign(streams_.size(), false);
    result_.ranks.resize(streams_.size());
    spindle_ = config_.topology.kind == Topology::Kind::SpindleTree;
    prestaged_ = config_.topology.kind == Topology::Kind::PrestagedNodeLocal;
  }

  SimResult go() {
    for (int r = 0; r < nranks_; ++r) {
      clock_[r] = r < static_cast<int>(config_.start_delays.size())
                      ? config_.start_delays[r]
                      : 0.0;
      push_event(clock_[r], EventKind::ClientResume, r);
    }
    while (!events_.empty()) {
      const Event ev = events_.top();
      events_.pop();
      switch (ev.kind) {
        case EventKind::ClientResume:
          clock_[ev.rank] = std::max(clock_[ev.rank], ev.time);
          advance(ev.rank);
          break;
        case EventKind::ServerKick:
          if (kick_at_ == ev.time) kick_at_ = kNoKick;
          serve(ev.time);
          break;
        case EventKind::ServerDone:
          complete(ev.time);
          break;
      }
    }
    finish();
    return std::move(result_);
  }

 private:
  static constexpr double kNoKick = std::numeric_limits<double>::infinity();

  void push_event(double time, EventKind kind, int rank = 0) {
    events_.push({time, event_seq_++, kind, rank});
  }

  /// Schedule a server kick at `at` unless the server is busy or an
  /// earlier-or-equal kick is already pending. Stale kicks are harmless:
  /// serve() re-checks the queue.
  void request_kick(double at) {
    if (busy_ || at >= kick_at_) return;
    kick_at_ = at;
    push_event(at, EventKind::ServerKick);
  }

  void fill_cache(int rank, const vfs::OpRecord& op) {
    if (!config_.cache.enabled) return;
    if (op.hit || config_.cache.negative_caching) {
      warm_[rank].insert(op.path);
    }
  }

  double relay_delay(int rank) const {
    return tree_depth(rank, config_.topology.fanout) *
           config_.topology.relay_hop_factor * config_.service.mean_s;
  }

  /// The resolver's answer for `key` is available as of `when`: wake every
  /// rank parked on it, one relay-tree descent later.
  void resolve_key(std::uint32_t key, double when) {
    resolved_at_[key] = when;
    const auto it = waiters_.find(key);
    if (it == waiters_.end()) return;
    for (const int w : it->second) {
      const vfs::OpRecord& op = (*streams_[w])[next_op_[w]];
      ++next_op_[w];
      ++result_.relayed_ops;
      ++result_.ranks[w].relayed_ops;
      fill_cache(w, op);
      push_event(when + relay_delay(w), EventKind::ClientResume, w);
    }
    waiters_.erase(it);
  }

  void issue(int rank, const vfs::OpRecord& op) {
    if (spindle_ && rank == 0 && op.shared) resolver_inflight_.insert(op.path);
    pending_.push({clock_[rank], request_seq_++, rank, op.path, op.shared,
                   op.hit});
    result_.max_queue_depth =
        std::max<std::uint64_t>(result_.max_queue_depth, pending_.size());
    ++next_op_[rank];
    request_kick(clock_[rank]);
  }

  /// Replay ops for `rank` until it blocks on the server (one outstanding
  /// request), parks on the Spindle tree, or finishes its stream.
  void advance(int rank) {
    const std::vector<vfs::OpRecord>& stream = *streams_[rank];
    while (next_op_[rank] < stream.size()) {
      const vfs::OpRecord& op = stream[next_op_[rank]];
      if (op.kind == vfs::OpKind::Read) {  // data phase: not server traffic
        ++next_op_[rank];
        continue;
      }
      if (config_.cache.enabled) {
        if (warm_[rank].count(op.path)) {
          clock_[rank] += config_.cache.hit_cost_s;
          ++result_.cache_hits;
          ++result_.ranks[rank].cache_hits;
          ++next_op_[rank];
          if (spindle_ && rank == 0 && op.shared) {
            resolve_key(op.path, clock_[rank]);
          }
          continue;
        }
        ++result_.cache_misses;
      }
      if (op.node_local || (prestaged_ && op.shared)) {
        clock_[rank] += config_.topology.local_op_cost_s;
        ++result_.local_ops;
        ++result_.ranks[rank].local_ops;
        fill_cache(rank, op);
        ++next_op_[rank];
        if (spindle_ && rank == 0 && op.shared) {
          resolve_key(op.path, clock_[rank]);
        }
        continue;
      }
      if (spindle_ && op.shared && rank != 0) {
        const auto it = resolved_at_.find(op.path);
        if (it != resolved_at_.end()) {
          clock_[rank] =
              std::max(clock_[rank], it->second + relay_delay(rank));
          ++result_.relayed_ops;
          ++result_.ranks[rank].relayed_ops;
          fill_cache(rank, op);
          ++next_op_[rank];
          continue;
        }
        if (!resolver_stream_done_ || resolver_inflight_.count(op.path)) {
          waiters_[op.path].push_back(rank);  // woken by resolve_key
          return;
        }
        // The resolver will never resolve this key — go direct.
      }
      issue(rank, op);
      return;
    }
    finished_[rank] = true;
    result_.ranks[rank].finish_s = clock_[rank];
    if (spindle_ && rank == 0) on_resolver_done();
  }

  /// The resolver's stream ended: any key it will never answer (not
  /// resolved, not in flight) must stop blocking its waiters — they fall
  /// back to direct MDS requests from their park time.
  void on_resolver_done() {
    resolver_stream_done_ = true;
    std::vector<std::uint32_t> orphaned;
    for (const auto& [key, ranks] : waiters_) {  // std::map: key order
      if (!resolved_at_.count(key) && !resolver_inflight_.count(key)) {
        orphaned.push_back(key);
      }
    }
    for (const std::uint32_t key : orphaned) {
      std::vector<int> parked = std::move(waiters_[key]);
      waiters_.erase(key);
      for (const int w : parked) {
        issue(w, (*streams_[w])[next_op_[w]]);
      }
    }
  }

  /// Idle server takes every request whose arrival has passed as a batch.
  void serve(double now) {
    if (busy_ || pending_.empty()) return;
    batch_.clear();
    while (!pending_.empty() && pending_.top().arrival <= now) {
      batch_.push_back(pending_.top());
      pending_.pop();
    }
    if (batch_.empty()) {
      request_kick(pending_.top().arrival);
      return;
    }
    double service_sum = 0;
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      service_sum += sample_service(config_.service, rng_);
    }
    const double b = static_cast<double>(batch_.size());
    const double duration =
        service_sum * std::pow(b, config_.contention_exponent - 1.0);
    busy_ = true;
    ++result_.batches;
    batch_size_sum_ += batch_.size();
    push_event(now + duration, EventKind::ServerDone);
  }

  void complete(double done) {
    busy_ = false;
    for (const Request& req : batch_) {
      latency_.record(done - req.arrival);
      ++result_.server_requests;
      ++result_.ranks[req.rank].server_ops;
      const vfs::OpRecord served{vfs::OpKind::Stat, req.hit, req.shared,
                                 false, req.key};
      fill_cache(req.rank, served);
      if (spindle_ && req.rank == 0 && req.shared) {
        resolver_inflight_.erase(req.key);
        resolve_key(req.key, done);
      }
      clock_[req.rank] = std::max(clock_[req.rank], done);
      push_event(done, EventKind::ClientResume, req.rank);
    }
    batch_.clear();
    if (!pending_.empty()) {
      request_kick(std::max(done, pending_.top().arrival));
    }
  }

  void finish() {
    for (int r = 0; r < nranks_; ++r) {
      if (!finished_[r]) result_.ranks[r].finish_s = clock_[r];
      result_.makespan_s = std::max(result_.makespan_s,
                                    result_.ranks[r].finish_s);
    }
    result_.mean_batch =
        result_.batches
            ? static_cast<double>(batch_size_sum_) /
                  static_cast<double>(result_.batches)
            : 0.0;
    result_.latency_mean_s = latency_.mean();
    result_.latency_p50_s = latency_.quantile(0.50);
    result_.latency_p99_s = latency_.quantile(0.99);
    result_.latency_max_s = latency_.max();
  }

  const MdsConfig& config_;
  const std::vector<const std::vector<vfs::OpRecord>*>& streams_;
  std::vector<std::unordered_set<std::uint32_t>>& warm_;
  support::Rng rng_;
  int nranks_;
  bool spindle_ = false;
  bool prestaged_ = false;

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t event_seq_ = 0;
  std::priority_queue<Request, std::vector<Request>, RequestLater> pending_;
  std::uint64_t request_seq_ = 0;
  std::vector<Request> batch_;
  bool busy_ = false;
  double kick_at_ = kNoKick;

  std::vector<double> clock_;
  std::vector<std::size_t> next_op_;
  std::vector<bool> finished_;

  // Spindle state. waiters_ is an ordered map so the resolver-done
  // fallback flushes parked ranks in a deterministic order.
  std::map<std::uint32_t, std::vector<int>> waiters_;
  std::unordered_map<std::uint32_t, double> resolved_at_;
  std::unordered_set<std::uint32_t> resolver_inflight_;
  bool resolver_stream_done_ = false;

  support::LogHistogram latency_;
  std::uint64_t batch_size_sum_ = 0;
  SimResult result_;
};

}  // namespace

void validate(const MdsConfig& config) {
  const ServiceModel& s = config.service;
  if (!(s.mean_s > 0)) reject("mds: service mean_s must be > 0");
  if (!(s.uniform_spread >= 0 && s.uniform_spread <= 1)) {
    reject("mds: uniform_spread must be in [0, 1]");
  }
  if (!(s.pareto_alpha > 1)) {
    reject("mds: pareto_alpha must be > 1 (finite mean)");
  }
  if (!(config.cache.hit_cost_s >= 0)) {
    reject("mds: cache hit_cost_s must be >= 0");
  }
  const Topology& t = config.topology;
  if (t.fanout < 2) reject("mds: topology fanout must be >= 2");
  if (!(t.relay_hop_factor >= 0)) {
    reject("mds: relay_hop_factor must be >= 0");
  }
  if (!(t.local_op_cost_s >= 0)) reject("mds: local_op_cost_s must be >= 0");
  if (!(config.contention_exponent >= 0 && config.contention_exponent <= 2)) {
    reject("mds: contention_exponent must be finite in [0, 2]");
  }
  for (const double d : config.start_delays) {
    if (!(d >= 0)) reject("mds: start_delays must be >= 0");
  }
}

MdsSimulator::MdsSimulator(MdsConfig config) : config_(std::move(config)) {
  validate(config_);
}

SimResult MdsSimulator::run(
    const std::vector<const std::vector<vfs::OpRecord>*>& streams) {
  if (streams.empty()) return {};
  return Run(config_, streams, warm_).go();
}

SimResult MdsSimulator::run(
    const std::vector<std::vector<vfs::OpRecord>>& streams) {
  std::vector<const std::vector<vfs::OpRecord>*> ptrs;
  ptrs.reserve(streams.size());
  for (const auto& s : streams) ptrs.push_back(&s);
  return run(ptrs);
}

SimResult MdsSimulator::run_homogeneous(
    const std::vector<vfs::OpRecord>& stream, int nprocs) {
  std::vector<const std::vector<vfs::OpRecord>*> ptrs(
      static_cast<std::size_t>(std::max(0, nprocs)), &stream);
  return run(ptrs);
}

}  // namespace depchaos::mds
