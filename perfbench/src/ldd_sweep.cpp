// ldd_sweep — resolve every binary of the debian world, one at a time.
//
// One connection, one request in flight. A pass loads all 3287 binaries
// once, in a seeded order, as one seeded client. Every pass runs on a fresh
// pool (and server) over an O(1) fork of one prebuilt world, so every Load
// misses the memo and the loader search and VFS resolution carry the
// request. Building a pass's pool is not timed: the window counts only the
// time requests were in flight.
#include "common.hpp"
#include "depchaos/core/world.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kStream = 0x1dd5'feed'0000ull;

class LddSweep final : public Workload {
 public:
  explicit LddSweep(const Options& options) : options_(options) {}

  void setup() override {
    stack_.reset();
    world_.reset();
    world_ = std::make_unique<core::Session>(core::WorldBuilder().debian().build());
    world_->seal();
    new_pass_stack();
  }

  void prepare(Report& report) override {
    // Oracle: every binary resolved directly on one fork of the world.
    core::Session fork = world_->fork_sealed();
    expected_.clear();
    expected_.reserve(kDebianBinaries);
    for (std::size_t i = 0; i < kDebianBinaries; ++i) {
      const loader::LoadReport loaded = fork.load(debian_exe(i));
      if (!loaded.success) report.fail("ldd_sweep: oracle load failed: " + debian_exe(i));
      expected_.push_back(svc::encode_load_report(loaded));
    }
    Window warm = run(0.2, nullptr);
    if (warm.failed != 0) report.fail("ldd_sweep: warm-up requests failed");
  }

  Window run(double seconds, SpanLog* trace) override {
    Window window(1.0);  // slices of busy time
    support::Rng rng(options_.seed ^ kStream ^ (rounds_++ << 32));
    while (window.elapsed_s < seconds) {
      if (stack_->used) new_pass_stack();
      stack_->used = true;
      const svc::ClientId client = seeded_clients(rng, 1).front();
      const std::vector<std::size_t> order =
          seeded_sample(rng, kDebianBinaries, kDebianBinaries);
      const std::uint64_t pass = trace ? trace->reserve() : 0;
      const auto pass_start = Clock::now();
      for (const std::size_t index : order) {
        const auto sent = Clock::now();
        svc::WireResponse response =
            stack_->client.call(svc::WireKind::Load, client, debian_exe(index));
        const auto done = Clock::now();
        window.elapsed_s += seconds_between(sent, done);
        ++window.attempted;
        if (response.status != svc::WireStatus::Ok) {
          window.fail("ldd_sweep: status " +
                      std::to_string(static_cast<int>(response.status)));
        } else if (response.payload != expected_[index]) {
          window.fail("ldd_sweep: payload differs from the oracle for " +
                      debian_exe(index));
        } else {
          window.record(window.elapsed_s, seconds_between(sent, done) * 1e6);
        }
        if (trace) trace->record("e2e.load", pass, window.attempted, sent, done);
        if (window.elapsed_s >= seconds) break;
      }
      if (trace) trace->record_as(pass, "e2e.pass", 0, 0, pass_start, Clock::now());
    }
    return window;
  }

  svc::SessionPool& pool() override { return stack_->pool; }

  LayerInputs layer_inputs(std::size_t count) override {
    LayerInputs in;
    in.world = world_.get();
    support::Rng rng(options_.seed ^ kStream);
    const svc::ClientId client = seeded_clients(rng, 1).front();
    for (const std::size_t index : seeded_sample(rng, kDebianBinaries, count)) {
      in.requests.push_back({client, Verb::Load, debian_exe(index)});
    }
    in.wrap_exe = in.requests.front().exe;
    in.launch_host = world_.get();
    in.launch_exe = in.requests.front().exe;
    in.launch_fleet.cluster = world_->config().cluster;
    return in;
  }

 private:
  // A pass's service: pool over a fresh fork, its server, one connection.
  struct Stack {
    Stack(core::Session base, const svc::PoolConfig& config)
        : pool(std::move(base), config),
          server(pool),
          client("127.0.0.1", server.port()) {}
    svc::SessionPool pool;
    svc::WireServer server;
    svc::WireClient client;
    bool used = false;
  };

  void new_pass_stack() {
    stack_.reset();
    stack_ = std::make_unique<Stack>(world_->fork_sealed(), pool_config());
  }

  Options options_;
  std::vector<std::string> expected_;
  std::uint64_t rounds_ = 0;
  std::unique_ptr<core::Session> world_;
  std::unique_ptr<Stack> stack_;
};

}  // namespace

std::unique_ptr<Workload> make_ldd_sweep(const Options& options) {
  return std::make_unique<LddSweep>(options);
}

}  // namespace perfbench
