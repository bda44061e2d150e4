// emacs_wrap — the §IV shrinkwrap workflow, tenant after tenant.
//
// The Table II emacs world with an NFS latency model, served over one
// connection. 64 tenants take turns in seeded order; a turn is
//   Load         pristine fork: a memo hit re-priced from the charge log
//   Shrinkwrap   CoW writes, ELF patching, dentry invalidation
//   4 x Load     the wrapped binary (non-pristine: the memo is bypassed)
//   Reset        back to a pristine fork for the tenant's next turn
// one request in flight at a time. The unwrapped load makes 1861
// metadata operations and every wrapped load 104 (Table II).
#include "common.hpp"
#include "depchaos/core/world.hpp"
#include "host.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTenants = 64;
constexpr std::size_t kWrappedLoads = 4;
constexpr std::uint64_t kUnwrappedMetaOps = 1861;
constexpr std::uint64_t kWrappedMetaOps = 104;
constexpr std::uint64_t kStream = 0xe3ac5'0000ull;

std::vector<Verb> turn_verbs() {
  std::vector<Verb> verbs(2 + kWrappedLoads + 1, Verb::Load);
  verbs[1] = Verb::Shrinkwrap;
  verbs.back() = Verb::Reset;
  return verbs;
}

class EmacsWrap final : public Workload {
 public:
  explicit EmacsWrap(const Options& options)
      : options_(options), verbs_(turn_verbs()) {
    support::Rng rng(options.seed ^ kStream);
    tenants_ = seeded_clients(rng, kTenants);
  }

  // A 1 s slice holds 700-1200 requests: too few for a steady p99.
  double tail_percentile() const override { return 90; }

  void setup() override {
    client_.reset();
    server_.reset();
    pool_.reset();
    world_.reset();
    world_ = std::make_unique<core::Session>(
        core::WorldBuilder().nfs().emacs({}).build());
    world_->seal();
    pool_ = std::make_unique<svc::SessionPool>(world_->fork_sealed(), pool_config());
    const std::vector<pid_t> before = thread_ids();
    server_ = std::make_unique<svc::WireServer>(*pool_);
    io_ = new_thread(before, thread_ids());
  }

  void prepare(Report& report) override {
    // Oracle: a twin pool in-process. Its first turn misses the memo and
    // must equal the turn run directly on a fork; every later turn starts
    // on a pristine fork with the memo primed, so every tenant turn must
    // reply with the bytes of its second turn. (A primed turn differs from
    // direct execution in the last bits of sim_time_s once the fork has
    // been re-priced, so the direct run cannot be the oracle for it.)
    svc::SessionPool twin(world_->fork_sealed(), pool_config());
    first_ = run_turn(twin, kPrimer);
    expected_ = run_turn(twin, kPrimer + 1);
    core::Session fork = world_->fork_sealed();
    const std::string direct[] = {
        svc::encode_load_report(fork.load()),
        svc::encode_wrap_report(fork.shrinkwrap()),
        svc::encode_load_report(fork.load())};
    if (direct[0] != first_[0] || direct[1] != first_[1] || direct[2] != first_[2]) {
      report.fail("emacs_wrap: pool turn differs from the direct Session verbs");
    }
    // Table II on the oracle; byte identity carries it to every reply.
    const auto ops = [&](std::size_t k) {
      return svc::decode_load_report(expected_[k]).stats.metadata_calls();
    };
    if (ops(0) != kUnwrappedMetaOps) {
      report.fail("emacs_wrap: unwrapped load made " + std::to_string(ops(0)) +
                  " metadata ops, Table II says 1861");
    }
    for (std::size_t k = 2; k < 2 + kWrappedLoads; ++k) {
      if (ops(k) != kWrappedMetaOps) {
        report.fail("emacs_wrap: wrapped load made " + std::to_string(ops(k)) +
                    " metadata ops, Table II says 104");
      }
    }
    if (!svc::decode_wrap_report(expected_[1]).ok()) {
      report.fail("emacs_wrap: shrinkwrap left names unresolved");
    }
    client_ = std::make_unique<svc::WireClient>("127.0.0.1", server_->port());
    // Prime the served pool's memo with the same miss turn.
    for (std::size_t k = 0; k < verbs_.size(); ++k) {
      svc::WireResponse response = client_->call(wire_kind(verbs_[k]), kPrimer);
      if (response.status != svc::WireStatus::Ok || response.payload != first_[k]) {
        report.fail("emacs_wrap: priming turn differs from the oracle");
      }
    }
    Window warm = run(0.2, nullptr);
    if (warm.failed != 0) report.fail("emacs_wrap: warm-up requests failed");
  }

  Window run(double seconds, SpanLog* trace) override {
    Window window(kSliceS);
    support::Rng rng(options_.seed ^ kStream ^ (++rounds_ << 32));
    const auto start = Clock::now();
    Clock::time_point now = start;
    while (seconds_between(start, now) < seconds) {
      for (const std::size_t t : seeded_sample(rng, kTenants, kTenants)) {
        const std::uint64_t turn = trace ? trace->reserve() : 0;
        const auto turn_start = Clock::now();
        for (std::size_t k = 0; k < verbs_.size(); ++k) {
          const auto sent = Clock::now();
          svc::WireResponse response =
              client_->call(wire_kind(verbs_[k]), tenants_[t]);
          now = Clock::now();
          ++window.attempted;
          if (response.status != svc::WireStatus::Ok) {
            window.fail("emacs_wrap: status " +
                        std::to_string(static_cast<int>(response.status)));
          } else if (response.payload != expected_[k]) {
            window.fail(std::string("emacs_wrap: ") + verb_name(verbs_[k]) +
                        " reply differs from the oracle");
          } else {
            window.record(seconds_between(start, now),
                          seconds_between(sent, now) * 1e6);
          }
          if (trace) trace->record("e2e.request", turn, window.attempted, sent, now);
        }
        if (trace) trace->record_as(turn, "e2e.turn", 0, 0, turn_start, now);
        if (seconds_between(start, now) >= seconds) break;
      }
    }
    window.elapsed_s = seconds_between(start, now);
    return window;
  }

  svc::SessionPool& pool() override { return *pool_; }
  std::optional<pid_t> io_thread() const override { return io_; }

  LayerInputs layer_inputs(std::size_t count) override {
    LayerInputs in;
    in.world = world_.get();
    support::Rng rng(options_.seed ^ kStream);
    while (in.requests.size() < count) {
      for (const std::size_t t : seeded_sample(rng, kTenants, kTenants)) {
        for (const Verb verb : verbs_) in.requests.push_back({tenants_[t], verb, ""});
        if (in.requests.size() >= count) break;
      }
    }
    in.launch_host = world_.get();
    in.launch_fleet.cluster = world_->config().cluster;
    return in;
  }

 private:
  // Client id of the priming turns (seeded tenant ids are never 0).
  static constexpr svc::ClientId kPrimer = 0;

  // One turn in-process; the encoded replies in turn order.
  std::vector<std::string> run_turn(svc::SessionPool& pool, svc::ClientId c) const {
    std::vector<std::string> replies;
    for (const Verb verb : verbs_) {
      switch (verb) {
        case Verb::Load:
          replies.push_back(svc::encode_load_report(pool.submit_load(c).get()));
          break;
        case Verb::Shrinkwrap:
          replies.push_back(svc::encode_wrap_report(pool.submit_shrinkwrap(c).get()));
          break;
        case Verb::Reset:
          pool.reset(c).get();
          replies.emplace_back();
          break;
      }
    }
    return replies;
  }

  Options options_;
  std::vector<Verb> verbs_;
  std::vector<svc::ClientId> tenants_;
  std::vector<std::string> first_;     // the memo-miss turn
  std::vector<std::string> expected_;  // every memo-primed turn
  std::uint64_t rounds_ = 0;
  std::unique_ptr<core::Session> world_;
  std::unique_ptr<svc::SessionPool> pool_;
  std::unique_ptr<svc::WireServer> server_;
  std::unique_ptr<svc::WireClient> client_;
  std::optional<pid_t> io_;
};

}  // namespace

std::unique_ptr<Workload> make_emacs_wrap(const Options& options) {
  return std::make_unique<EmacsWrap>(options);
}

}  // namespace perfbench
