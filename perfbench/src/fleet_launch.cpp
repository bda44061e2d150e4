// fleet_launch — containerized MPMD launches through the pool.
//
// Each request is a 1024-rank, 4-class mixed-Pynamic launch (64 modules,
// the app image behind a writable per-rank overlay) on the queueing engine,
// submitted in-process with submit_launch_fleet (LaunchFleet does not cross
// the wire) and sent one at a time. The only workload that reaches the
// launch layer (a sandbox per rank, fingerprint clustering, one loader
// replay per class) and the mds event loop. Every launch must measure 4
// classes and equal the direct Session::launch_fleet oracle.
#include "common.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/workload/scenarios.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 1024;
constexpr int kClasses = 4;
constexpr std::size_t kTenants = 8;
constexpr std::uint64_t kStream = 0x1a0c4'0000ull;

workload::PynamicConfig app_config() {
  workload::PynamicConfig config;
  config.num_modules = 64;
  config.exe_extra_bytes = 4ull << 20;
  return config;
}

bool same_launch(const launch::LaunchResult& a, const launch::LaunchResult& b) {
  return a.nprocs == b.nprocs && a.load_succeeded == b.load_succeeded &&
         a.meta_ops_per_rank == b.meta_ops_per_rank &&
         a.bytes_per_rank == b.bytes_per_rank && a.data_time_s == b.data_time_s &&
         a.meta_time_s == b.meta_time_s && a.total_time_s == b.total_time_s &&
         a.shared_meta_ops_per_rank == b.shared_meta_ops_per_rank &&
         a.shared_bytes_per_rank == b.shared_bytes_per_rank &&
         a.overlay_meta_ops_per_rank == b.overlay_meta_ops_per_rank &&
         a.overlay_bytes_per_rank == b.overlay_bytes_per_rank &&
         a.fleet_meta_ops == b.fleet_meta_ops && a.fleet_bytes == b.fleet_bytes &&
         a.fleet_shared_meta_ops == b.fleet_shared_meta_ops &&
         a.fleet_overlay_meta_ops == b.fleet_overlay_meta_ops &&
         a.ranks_measured == b.ranks_measured &&
         a.classes_measured == b.classes_measured &&
         a.class_sizes == b.class_sizes && a.sandboxed == b.sandboxed;
}

class FleetLaunch final : public Workload {
 public:
  explicit FleetLaunch(const Options& options) : options_(options) {
    support::Rng rng(options.seed ^ kStream);
    tenants_ = seeded_clients(rng, kTenants);
  }

  double tail_percentile() const override { return 90; }

  void setup() override {
    pool_.reset();
    host_.reset();
    scenario_.reset();
    scenario_ = std::make_unique<workload::ContainerLaunchScenario>(
        workload::make_container_launch_scenario(app_config()));
    host_ = std::make_unique<core::Session>(core::WorldBuilder().nfs().build());
    host_->seal();
    spec_ = core::SandboxSpec{};
    spec_.image = scenario_->image;
    spec_.image_mount = scenario_->image_mount;
    spec_.writable_image_overlay = true;
    spec_.exe = scenario_->exe;
    fleet_ = launch::FleetConfig{};
    fleet_.cluster = host_->config().cluster;
    fleet_.engine = launch::Engine::Queueing;
    fleet_.service.dist = mds::Dist::Uniform;
    fleet_.service.seed = options_.seed;
    const workload::PynamicApp* app = &scenario_->app;
    fleet_.rank_setup = [app](core::Session& sandbox, int rank) {
      workload::apply_mpmd_rank(sandbox.fs(), sandbox.env(), *app, rank, kClasses);
    };
    pool_ = std::make_unique<svc::SessionPool>(host_->fork_sealed(), pool_config());
  }

  void prepare(Report& report) override {
    // Oracle: the same launch run directly on a fork of the host.
    core::Session fork = host_->fork_sealed();
    expected_ = fork.launch_fleet(spec_, "", kRanks, fleet_);
    if (!expected_.load_succeeded || expected_.classes_measured != kClasses) {
      report.fail("fleet_launch: oracle launch measured " +
                  std::to_string(expected_.classes_measured) + " classes, want 4");
    }
    Window warm = run(0, nullptr);  // one launch
    if (warm.failed != 0) report.fail("fleet_launch: warm-up launch failed");
  }

  Window run(double seconds, SpanLog* trace) override {
    Window window;  // one slice: a launch takes a good part of a second
    support::Rng rng(options_.seed ^ kStream ^ (++rounds_ << 32));
    const auto start = Clock::now();
    Clock::time_point now = start;
    do {
      const svc::ClientId tenant = tenants_[rng.below(kTenants)];
      const auto sent = Clock::now();
      ++window.attempted;
      try {
        const launch::LaunchResult result =
            pool_->submit_launch_fleet(tenant, spec_, "", kRanks, fleet_).get();
        now = Clock::now();
        if (result.classes_measured != kClasses || !same_launch(result, expected_)) {
          window.fail("fleet_launch: launch differs from the oracle");
        } else {
          window.record(seconds_between(start, now), seconds_between(sent, now) * 1e6);
        }
      } catch (const std::exception& e) {
        now = Clock::now();
        window.fail(std::string("fleet_launch: ") + e.what());
      }
      if (trace) trace->record("e2e.launch", 0, window.attempted, sent, now);
    } while (seconds_between(start, now) < seconds);
    window.elapsed_s = seconds_between(start, now);
    return window;
  }

  svc::SessionPool& pool() override { return *pool_; }

  LayerInputs layer_inputs(std::size_t count) override {
    // The wire/pool/core/vfs replay loads the app on a bare host world
    // (a launch has no wire form); launch and mds probes run the workload's
    // own fleet launch.
    if (!app_world_) {
      app_world_ = std::make_unique<core::Session>(
          core::WorldBuilder().nfs().pynamic(app_config()).build());
      app_world_->seal();
    }
    LayerInputs in;
    in.world = app_world_.get();
    support::Rng rng(options_.seed ^ kStream);
    for (std::size_t i = 0; i < count; ++i) {
      in.requests.push_back({tenants_[rng.below(kTenants)], Verb::Load, ""});
    }
    in.launch_host = host_.get();
    in.launch_spec = spec_;
    in.launch_fleet = fleet_;
    return in;
  }

 private:
  Options options_;
  std::vector<svc::ClientId> tenants_;
  std::uint64_t rounds_ = 0;
  std::unique_ptr<workload::ContainerLaunchScenario> scenario_;
  std::unique_ptr<core::Session> host_;
  core::SandboxSpec spec_;
  launch::FleetConfig fleet_;
  launch::LaunchResult expected_;
  std::unique_ptr<svc::SessionPool> pool_;
  std::unique_ptr<core::Session> app_world_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_launch(const Options& options) {
  return std::make_unique<FleetLaunch>(options);
}

}  // namespace perfbench
