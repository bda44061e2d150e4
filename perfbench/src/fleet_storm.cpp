// fleet_storm — the paper's launch storm as service traffic.
//
// The full debian world, no latency model, served over loopback TCP. 1024
// client ids stand for the ranks of a job; each rank's requests travel on
// one of at most four connections, and every connection keeps a fixed
// window of 32 pipelined Load requests in flight (closed loop: a reply
// releases the next send). All requests draw from a 16-closure hot set, so
// after 16 memo misses every Load is a memo hit: the wire codec, the IO
// loop and pool admission/strands/memo do the work while the loader and
// the VFS sit idle.
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "depchaos/core/world.hpp"
#include "host.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRanks = 1024;
constexpr std::size_t kHotSet = 16;
// Requests in flight across all connections (32 per connection at four).
constexpr std::size_t kInFlight = 128;
constexpr std::uint64_t kStream = 0xf1ee7'5702'0000ull;

class FleetStorm final : public Workload {
 public:
  explicit FleetStorm(const Options& options) : options_(options) {
    support::Rng rng(options.seed ^ kStream);
    for (const std::size_t index : seeded_sample(rng, kDebianBinaries, kHotSet)) {
      hot_.push_back(debian_exe(index));
    }
    // Ranks are dealt to connections round-robin in a seeded order.
    const std::vector<svc::ClientId> ranks = seeded_clients(rng, kRanks);
    const std::vector<std::size_t> order = seeded_sample(rng, kRanks, kRanks);
    conn_ranks_.resize(options.connections);
    for (std::size_t i = 0; i < order.size(); ++i) {
      conn_ranks_[i % options.connections].push_back(ranks[order[i]]);
    }
  }

  void setup() override {
    server_.reset();
    pool_.reset();
    world_.reset();
    world_ = std::make_unique<core::Session>(core::WorldBuilder().debian().build());
    world_->seal();
    pool_ = std::make_unique<svc::SessionPool>(world_->fork_sealed(), pool_config());
    const std::vector<pid_t> before = thread_ids();
    server_ = std::make_unique<svc::WireServer>(*pool_);
    io_ = new_thread(before, thread_ids());
  }

  void prepare(Report& report) override {
    // Oracle: each hot closure resolved directly on a fork of the world.
    expected_.clear();
    for (const std::string& exe : hot_) {
      core::Session fork = world_->fork_sealed();
      const loader::LoadReport loaded = fork.load(exe);
      if (!loaded.success) report.fail("fleet_storm: oracle load failed: " + exe);
      expected_.push_back(svc::encode_load_report(loaded));
    }
    Window warm = run(0.3, nullptr);
    if (warm.failed != 0) report.fail("fleet_storm: warm-up requests failed");
  }

  Window run(double seconds, SpanLog* trace) override {
    const std::size_t connections = conn_ranks_.size();
    std::vector<Window> windows(connections, Window(kSliceS));
    std::vector<SpanLog> logs;
    for (std::size_t c = 0; c < connections; ++c) {
      logs.emplace_back(trace ? (1u << 17) / connections : 0,
                        (static_cast<std::uint64_t>(c) + 1) << 48);
    }
    const std::uint64_t round = rounds_++;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          drive(c, stream_rng(round, c), start, deadline, windows[c],
                trace ? &logs[c] : nullptr);
        } catch (const std::exception& e) {
          windows[c].fail(std::string("fleet_storm: connection: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    Window total(kSliceS);
    for (std::size_t c = 0; c < connections; ++c) {
      total.merge(std::move(windows[c]));
      if (trace) trace->append(logs[c]);
    }
    return total;
  }

  svc::SessionPool& pool() override { return *pool_; }
  std::optional<pid_t> io_thread() const override { return io_; }

  LayerInputs layer_inputs(std::size_t count) override {
    LayerInputs in;
    in.world = world_.get();
    std::vector<support::Rng> streams;
    for (std::size_t c = 0; c < conn_ranks_.size(); ++c) {
      streams.push_back(stream_rng(0, c));
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = i % streams.size();
      const auto [client, exe] = next_request(streams[c], c);
      in.requests.push_back({client, Verb::Load, hot_[exe]});
    }
    in.wrap_exe = hot_.front();
    in.launch_host = world_.get();
    in.launch_exe = hot_.front();
    in.launch_fleet.cluster = world_->config().cluster;
    return in;
  }

 private:
  support::Rng stream_rng(std::uint64_t round, std::size_t connection) const {
    return support::Rng(options_.seed ^ kStream ^ (round << 32) ^
                        (connection + 1));
  }

  std::pair<svc::ClientId, std::size_t> next_request(support::Rng& rng,
                                                     std::size_t c) const {
    const auto& ranks = conn_ranks_[c];
    const svc::ClientId client = ranks[rng.below(ranks.size())];
    return {client, static_cast<std::size_t>(rng.below(hot_.size()))};
  }

  // One connection: its share of kInFlight pipelined Loads until the deadline,
  // then drain what is in flight.
  void drive(std::size_t c, support::Rng rng, Clock::time_point start,
             Clock::time_point deadline, Window& window, SpanLog* trace) {
    svc::WireClient client("127.0.0.1", server_->port());
    struct InFlight {
      Clock::time_point sent;
      std::size_t exe;
    };
    std::unordered_map<std::uint64_t, InFlight> in_flight;
    auto send_one = [&] {
      const auto [id, exe] = next_request(rng, c);
      const auto sent = Clock::now();
      in_flight.emplace(client.send(svc::WireKind::Load, id, hot_[exe]),
                        InFlight{sent, exe});
    };
    const std::size_t depth = kInFlight / conn_ranks_.size();
    for (std::size_t i = 0; i < depth; ++i) send_one();
    Clock::time_point last = start;
    while (!in_flight.empty()) {
      svc::WireResponse response = client.recv_response();
      last = Clock::now();
      auto it = in_flight.find(response.seq);
      if (it == in_flight.end()) {
        window.fail("fleet_storm: reply for an unknown sequence number");
        continue;
      }
      ++window.attempted;
      if (response.status != svc::WireStatus::Ok) {
        window.fail("fleet_storm: status " +
                    std::to_string(static_cast<int>(response.status)));
      } else if (response.payload != expected_[it->second.exe]) {
        window.fail("fleet_storm: payload differs from the oracle for " +
                    hot_[it->second.exe]);
      } else {
        window.record(seconds_between(start, last),
                      seconds_between(it->second.sent, last) * 1e6);
      }
      if (trace) {
        trace->record("e2e.load", 0, response.seq, it->second.sent, last);
      }
      in_flight.erase(it);
      if (last < deadline) send_one();
    }
    window.elapsed_s = seconds_between(start, last);
  }

  Options options_;
  std::vector<std::string> hot_;
  std::vector<std::vector<svc::ClientId>> conn_ranks_;
  std::vector<std::string> expected_;
  std::uint64_t rounds_ = 0;
  std::unique_ptr<core::Session> world_;
  std::unique_ptr<svc::SessionPool> pool_;
  std::unique_ptr<svc::WireServer> server_;
  std::optional<pid_t> io_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_storm(const Options& options) {
  return std::make_unique<FleetStorm>(options);
}

}  // namespace perfbench
