// depchaos — command-line multi-tool over world snapshots.
//
// Mirrors the workflow of the real tools (shrinkwrap, libtree, ldd,
// patchelf) but against simulated worlds, so every paper scenario can be
// driven from a shell:
//
//   depchaos worldgen pynamic world.dcw --modules=200
//   depchaos libtree  world.dcw /apps/pynamic/bigexe
//   depchaos ldd      world.dcw /apps/pynamic/bigexe --debug
//   depchaos shrinkwrap world.dcw /apps/pynamic/bigexe   (rewrites world.dcw)
//   depchaos whatif   world.dcw /apps/pynamic/bigexe   (fork; no rewrite)
//   depchaos verify   world.dcw /apps/pynamic/bigexe
//   depchaos patchelf world.dcw /path --set-runpath=/a:/b
//   depchaos launch   world.dcw /apps/pynamic/bigexe --ranks=512
//   depchaos sandbox  host.dcw app.dcw /app/bin/tool --mask=/usr/lib \
//                     --overlay --save-fleet=fleet.dcw2
//   depchaos mount    fleet.dcw2                      (mount(8)-style list)
//
// Worldgen scenarios: pynamic, emacs, samba, rocm, paradox, debian.
//
// World files may be DCWORLD1 single-tree images or DCWORLD2 fleet images
// (base + per-view deltas + mount tables); fleet images open on their
// first view. `sandbox` assembles a container view — the app image
// mounted read-only (or behind a writable overlay with --overlay), host
// dirs masked by tmpfs — runs an ldd-style load inside it, and can
// persist host+sandbox as a v2 fleet without ever rewriting the inputs.
//
// Every subcommand is a thin shell over the core::Session façade: worldgen
// composes a world with core::WorldBuilder and saves the snapshot; the
// rest reopen it with Session::from_snapshot and call the matching verb
// (load / libtree / shrinkwrap / verify / launch). No subcommand wires a
// FileSystem or Loader by hand.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "depchaos/core/session.hpp"
#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/support/strings.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"
#include "depchaos/vfs/snapshot.hpp"
#include "depchaos/workload/scenarios.hpp"

using namespace depchaos;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  depchaos worldgen <scenario> <world-file> [--modules=N]\n"
      "      scenarios: pynamic emacs samba rocm paradox debian\n"
      "  depchaos libtree <world-file> <exe> [--paths]\n"
      "  depchaos ldd <world-file> <exe> [--debug] [--env=DIR:DIR...]\n"
      "  depchaos shrinkwrap <world-file> <exe> [--no-lift] [--audit-dlopen]\n"
      "  depchaos whatif <world-file> <exe> [--paths] [--audit-dlopen]\n"
      "      (shrinkwrap inside a CoW fork; prints the libtree diff;\n"
      "       never rewrites the world file)\n"
      "  depchaos verify <world-file> <exe> [--env=DIR:DIR...]\n"
      "  depchaos patchelf <world-file> <path>"
      " (--set-runpath=|--set-rpath=)A:B | --print\n"
      "  depchaos launch <world-file> <exe> [--ranks=N]\n"
      "      [--sandbox=<image-world>] [--mount=/] [--overlay]\n"
      "      [--mask=DIR:DIR...] [--spindle] [--prestaged]\n"
      "      [--engine=analytic|sim] [--dist=fixed|uniform|pareto]\n"
      "      [--seed=N] [--cache] [--negative-cache] [--waves=N]\n"
      "      [--straggler=RANK[:SECONDS]] [--ranks-mix=K]\n"
      "      (--sandbox measures the rank op stream inside a per-rank\n"
      "       container view — image mount + CoW overlay with --overlay,\n"
      "       host dirs masked — and splits the stream into shared-image\n"
      "       metadata ops [shared-image ops=], identical across ranks and\n"
      "       servable once fleet-wide, vs per-rank overlay metadata ops\n"
      "       [per-rank overlay ops=], CoW divergence only that rank can\n"
      "       resolve; --prestaged serves the shared part at node-local\n"
      "       rates. --engine=sim replays the stream through the\n"
      "       discrete-event metadata-server simulator instead of the\n"
      "       closed-form storm formula: --dist/--seed shape the service\n"
      "       time, --cache enables client metadata caching (--waves=N\n"
      "       relaunches the fleet N times against warm caches), and\n"
      "       --straggler delays one rank's start [default 1s].\n"
      "       --waves/--straggler/--cache need --engine=sim.\n"
      "       --ranks-mix=K runs a mixed-Pynamic MPMD fleet — rank r is\n"
      "       program class r%%K, each class shadowing modules into its\n"
      "       private overlay — and the launcher measures ONE loader\n"
      "       replay per class instead of per rank [rank classes=];\n"
      "       needs --sandbox over a pynamic image plus --overlay)\n"
      "  depchaos sandbox <host-world> <image-world> <exe> [--mount=/app]\n"
      "      [--mask=DIR:DIR...] [--overlay] [--conf=DIR:DIR...]\n"
      "      [--env=DIR:DIR...] [--save-fleet=FILE]\n"
      "      (container view over a CoW fork: image mounted read-only, or\n"
      "       behind a writable overlay with --overlay; host dirs masked;\n"
      "       never rewrites the inputs. Like mount(2), a mask needs its\n"
      "       mountpoint dir to exist or be creatable — masking a dir\n"
      "       absent from a read-only image root requires --overlay)\n"
      "  depchaos mount <world-file>\n"
      "      (mount table of a fleet image's first view)\n"
      "  depchaos serve <world-file> --exe=PATH [--clients=N]\n"
      "      [--requests=N] [--shards=N] [--threads=N] [--mix=load|mixed]\n"
      "      [--seed=N] [--high-water=N] [--listen=PORT]\n"
      "      (multi-tenant session service demo: a svc::SessionPool over\n"
      "       the world plus an in-process scripted driver — N client\n"
      "       threads each firing a request script at the pool's sharded\n"
      "       admission queues; every client works on its own O(1) CoW\n"
      "       fork. --mix=mixed adds whatif/query/shrinkwrap traffic to\n"
      "       the load storm; past --high-water pending requests per\n"
      "       shard, submits are rejected with a retry-after hint and the\n"
      "       driver backs off and retries. Prints the PoolStats\n"
      "       dashboard: per-shard depths, executed/memoized/rejected,\n"
      "       per-op p50/p99 latency.\n"
      "       --listen=PORT hosts the pool behind the length-prefixed\n"
      "       wire protocol instead of running the in-process driver\n"
      "       [0 = ephemeral; the bound port is printed], serving until a\n"
      "       remote `connect ... --shutdown`; the WireStats counters\n"
      "       join the dashboard)\n"
      "  depchaos connect HOST:PORT [--clients=N] [--requests=N]\n"
      "      [--mix=load|mixed] [--seed=N] [--exe=PATH] [--shutdown]\n"
      "      (remote driver for `serve --listen`: the same scripted\n"
      "       client mix over sockets, one connection per client thread;\n"
      "       Overloaded responses carry the pool's shard/depth/retry-\n"
      "       after and the driver backs off exactly like an in-process\n"
      "       submitter. --exe defaults to the server world's default\n"
      "       target; --shutdown asks the server to drain and exit after\n"
      "       the run)\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "depchaos: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "depchaos: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << contents;
}

bool has_flag(const std::vector<std::string>& args, std::string_view flag) {
  for (const auto& arg : args) {
    if (arg == flag) return true;
  }
  return false;
}

std::string flag_value(const std::vector<std::string>& args,
                       std::string_view prefix, std::string fallback) {
  for (const auto& arg : args) {
    if (arg.starts_with(prefix)) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

// Checked numeric parsing. The old pattern — `std::strtol(text, nullptr,
// 10)` — ignored endptr and errno, so `--clients=abc` silently ran 0
// clients, `--ranks=1e3` parsed as 1 (strtol stops at the 'e'), and
// `--clients=-1` wrapped to ~1.8e19 once cast to size_t. Every numeric
// flag now goes through these: garbage, trailing junk, overflow, and
// out-of-range values all fail loudly with a usage-style exit code.

long long parse_long_text(std::string_view flag, const std::string& text,
                          long long min, long long max) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "depchaos: %.*s wants an integer, got \"%s\"\n",
                 static_cast<int>(flag.size()), flag.data(), text.c_str());
    std::exit(2);
  }
  if (value < min || value > max) {
    std::fprintf(stderr,
                 "depchaos: %.*s%lld out of range [%lld, %lld]\n",
                 static_cast<int>(flag.size()), flag.data(), value, min, max);
    std::exit(2);
  }
  return value;
}

long long parse_long(const std::vector<std::string>& args,
                     std::string_view prefix, long long fallback,
                     long long min, long long max) {
  return parse_long_text(prefix, flag_value(args, prefix,
                                            std::to_string(fallback)),
                         min, max);
}

double parse_double_text(std::string_view flag, const std::string& text,
                         double min, double max) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "depchaos: %.*s wants a number, got \"%s\"\n",
                 static_cast<int>(flag.size()), flag.data(), text.c_str());
    std::exit(2);
  }
  if (!(value >= min && value <= max)) {  // NaN fails too
    std::fprintf(stderr, "depchaos: %.*s%g out of range [%g, %g]\n",
                 static_cast<int>(flag.size()), flag.data(), value, min, max);
    std::exit(2);
  }
  return value;
}

loader::Environment env_from_args(const std::vector<std::string>& args) {
  loader::Environment env;
  const std::string dirs = flag_value(args, "--env=", "");
  if (!dirs.empty()) {
    env.ld_library_path = support::split_nonempty(dirs, ':');
  }
  return env;
}

/// Reopen a saved world as a session, with per-subcommand config knobs.
core::Session open_session(const std::vector<std::string>& args,
                           core::SessionConfig config = {}) {
  config.env = env_from_args(args);
  return core::Session::from_snapshot(read_file(args[0]), std::move(config));
}

int cmd_worldgen(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  const std::string& scenario = args[0];
  const std::string& out_path = args[1];
  core::WorldBuilder builder;
  if (scenario == "pynamic") {
    workload::PynamicConfig config;
    config.num_modules = static_cast<std::size_t>(
        parse_long(args, "--modules=", 120, 1, 1'000'000));
    config.exe_extra_bytes = 4u << 20;
    builder.pynamic(config);
  } else {
    builder.scenario(scenario);  // throws (-> usage-level error) on unknown
  }
  write_file(out_path, builder.save());
  std::printf("wrote %s\n%s\n", out_path.c_str(), builder.note().c_str());
  return 0;
}

int cmd_libtree(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  core::SessionConfig config;
  config.search.classify_cache_hits = true;
  auto session = open_session(args, std::move(config));
  core::Session::TreeOptions options;
  options.show_paths = has_flag(args, "--paths");
  std::fputs(session.libtree(args[1], options).c_str(), stdout);
  return 0;
}

int cmd_ldd(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  core::SessionConfig config;
  config.search.record_probes = has_flag(args, "--debug");
  auto session = open_session(args, std::move(config));
  const auto report = session.load(args[1]);
  for (const auto& line : report.probe_log) {
    std::printf("    %s\n", line.c_str());
  }
  for (std::size_t i = 1; i < report.load_order.size(); ++i) {
    const auto& obj = report.load_order[i];
    std::printf("\t%s => %s (%s)\n", obj.name.c_str(), obj.path.c_str(),
                std::string(loader::how_found_name(obj.how)).c_str());
  }
  for (const auto& missing : report.missing) {
    std::printf("\t%s => not found\n", missing.name.c_str());
  }
  std::printf("%llu metadata syscalls, %llu failed probes\n",
              static_cast<unsigned long long>(report.stats.metadata_calls()),
              static_cast<unsigned long long>(report.stats.failed_probes));
  return report.success ? 0 : 1;
}

int cmd_shrinkwrap(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  auto session = open_session(args);
  core::Session::WrapOptions options;
  options.lift_transitive = !has_flag(args, "--no-lift");
  options.audit_dlopens = has_flag(args, "--audit-dlopen");
  const auto report = session.shrinkwrap(args[1], options);
  if (!report.ok()) {
    for (const auto& name : report.unresolved) {
      std::fprintf(stderr, "unresolved: %s\n", name.c_str());
    }
    return 1;
  }
  for (const auto& entry : report.new_needed) {
    std::printf("needed %s\n", entry.c_str());
  }
  for (const auto& name : report.dlopen_unresolved) {
    std::printf("warning: dlopen target not found: %s\n", name.c_str());
  }
  write_file(args[0], session.save());
  std::printf("rewrote %s in %s\n", args[1].c_str(), args[0].c_str());
  return 0;
}

int cmd_whatif(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  core::SessionConfig config;
  config.search.classify_cache_hits = true;  // libtree-grade annotations
  auto session = open_session(args, std::move(config));
  core::Session::WrapOptions options;
  options.audit_dlopens = has_flag(args, "--audit-dlopen");
  core::Session::TreeOptions tree;
  tree.show_paths = has_flag(args, "--paths");
  const auto report = session.whatif(args[1], options, tree);
  if (!report.wrap.ok()) {
    for (const auto& name : report.wrap.unresolved) {
      std::fprintf(stderr, "unresolved: %s\n", name.c_str());
    }
    return 1;
  }
  std::printf("--- %s (as is)\n+++ %s (shrinkwrapped, in a fork)\n",
              args[1].c_str(), args[1].c_str());
  std::fputs(report.tree_diff.c_str(), stdout);
  std::printf("\nwould freeze %zu needed entries\n",
              report.wrap.new_needed.size());
  std::printf("metadata syscalls: %llu -> %llu\n",
              static_cast<unsigned long long>(
                  report.before.stats.metadata_calls()),
              static_cast<unsigned long long>(
                  report.after.stats.metadata_calls()));
  std::printf("%s left untouched\n", args[0].c_str());
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  auto session = open_session(args);
  const auto report = session.verify(args[1]);
  for (const auto& name : report.non_absolute) {
    std::printf("not absolute: %s\n", name.c_str());
  }
  for (const auto& name : report.searched) {
    std::printf("found by search (not frozen): %s\n", name.c_str());
  }
  for (const auto& name : report.missing) {
    std::printf("missing: %s\n", name.c_str());
  }
  std::printf("%s: %s\n", args[1].c_str(),
              report.ok ? "fully shrinkwrapped" : "NOT shrinkwrapped");
  return report.ok ? 0 : 1;
}

int cmd_patchelf(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  auto session = open_session(args);
  elf::Patcher patcher(session.fs());
  if (has_flag(args, "--print")) {
    const auto object = patcher.read(args[1]);
    std::fputs(elf::serialize(object).c_str(), stdout);
    return 0;
  }
  const std::string runpath = flag_value(args, "--set-runpath=", "");
  const std::string rpath = flag_value(args, "--set-rpath=", "");
  if (runpath.empty() && rpath.empty()) usage();
  if (!runpath.empty()) {
    patcher.set_runpath(args[1], support::split_nonempty(runpath, ':'));
  }
  if (!rpath.empty()) {
    patcher.set_rpath(args[1], support::split_nonempty(rpath, ':'));
  }
  write_file(args[0], session.save());
  std::printf("patched %s\n", args[1].c_str());
  return 0;
}

std::vector<std::string> split_flag(const std::vector<std::string>& args,
                                    std::string_view prefix) {
  return support::split_nonempty(flag_value(args, prefix, ""), ':');
}

/// Open a world file (v1 or v2; fleets contribute their first view) as a
/// shared image for SandboxSpec::image.
std::shared_ptr<vfs::FileSystem> load_image_world(const std::string& path) {
  auto fleet = vfs::load_fleet(read_file(path));
  return std::make_shared<vfs::FileSystem>(
      fleet.views.empty() ? std::move(fleet.base)
                          : std::move(fleet.views.front()));
}

int cmd_sandbox(const std::vector<std::string>& args) {
  if (args.size() < 3) usage();
  // The host session carries the container's ld.so.conf (--conf) and env.
  core::SessionConfig config;
  config.search.ld_so_conf = split_flag(args, "--conf=");
  config.env = env_from_args(args);
  auto host = core::Session::from_snapshot(read_file(args[0]),
                                           std::move(config));

  core::Session::SandboxSpec spec;
  spec.image = load_image_world(args[1]);
  spec.image_mount = flag_value(args, "--mount=", "/app");
  spec.writable_image_overlay = has_flag(args, "--overlay");
  spec.mask = split_flag(args, "--mask=");
  spec.exe = args[2];
  auto job = host.sandbox(spec);

  for (const auto& info : job.fs().mounts()) {
    std::printf("%s on %s (%s)\n",
                std::string(vfs::mount_kind_name(info.kind)).c_str(),
                info.point.c_str(), info.read_only ? "ro" : "rw");
  }
  const auto report = job.load();
  for (std::size_t i = 1; i < report.load_order.size(); ++i) {
    const auto& obj = report.load_order[i];
    std::printf("\t%s => %s (%s)\n", obj.name.c_str(), obj.path.c_str(),
                std::string(loader::how_found_name(obj.how)).c_str());
  }
  for (const auto& missing : report.missing) {
    std::printf("\t%s => not found\n", missing.name.c_str());
  }
  std::printf("%llu metadata syscalls, %llu failed probes\n",
              static_cast<unsigned long long>(report.stats.metadata_calls()),
              static_cast<unsigned long long>(report.stats.failed_probes));

  const std::string fleet_out = flag_value(args, "--save-fleet=", "");
  if (!fleet_out.empty()) {
    const std::vector<const vfs::FileSystem*> views = {&job.fs()};
    write_file(fleet_out, vfs::save_fleet(host.fs(), views));
    std::printf("wrote fleet %s (host + 1 sandbox, v2 deltas)\n",
                fleet_out.c_str());
  }
  return report.success ? 0 : 1;
}

int cmd_mount(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  auto fleet = vfs::load_fleet(read_file(args[0]));
  if (fleet.views.empty()) {
    std::printf("no mounts (flat world)\n");
    return 0;
  }
  const auto mounts = fleet.views.front().mounts();
  if (mounts.empty()) {
    std::printf("no mounts\n");
    return 0;
  }
  for (const auto& info : mounts) {
    std::printf("%s on %s (%s)\n",
                std::string(vfs::mount_kind_name(info.kind)).c_str(),
                info.point.c_str(), info.read_only ? "ro" : "rw");
  }
  return 0;
}

/// The PoolStats dashboard, shared by both `serve` modes (in-process driver
/// and `--listen` wire host).
void print_pool_dashboard(const svc::PoolStats& stats) {
  std::printf("clients live        %zu (sum private divergence %llu bytes)\n",
              stats.clients_live,
              static_cast<unsigned long long>(stats.fork_owned_bytes));
  std::printf("executed / memoized %llu / %llu\n",
              static_cast<unsigned long long>(stats.executed - stats.memoized),
              static_cast<unsigned long long>(stats.memoized));
  std::printf("rejected / evicted / errors  %llu / %llu / %llu\n",
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.evicted),
              static_cast<unsigned long long>(stats.worker_errors));
  std::printf("drain cycles        %llu over %zu shards\n",
              static_cast<unsigned long long>(stats.drain_cycles),
              stats.shards);
  // Contention dashboard: whether the multi-core fast paths actually ran
  // hot — every admission a wait-free sealed stamp, memo probes spread
  // across shards, strands batching well.
  std::printf("forks wait-free / locked  %llu / %llu\n",
              static_cast<unsigned long long>(stats.forks_wait_free),
              static_cast<unsigned long long>(stats.forks_locked));
  std::uint64_t busiest_shard = 0;
  for (const std::uint64_t hits : stats.memo_shard_hits) {
    busiest_shard = std::max(busiest_shard, hits);
  }
  std::printf("memo hits / misses  %llu / %llu across %zu shards "
              "(busiest shard %llu hits)\n",
              static_cast<unsigned long long>(stats.memo_hits),
              static_cast<unsigned long long>(stats.memo_misses),
              stats.memo_shard_hits.size(),
              static_cast<unsigned long long>(busiest_shard));
  std::printf("drain batch size    p50=%.0f p99=%.0f max=%llu over %llu "
              "cycles\n",
              stats.drain_batch.p50, stats.drain_batch.p99,
              static_cast<unsigned long long>(stats.drain_batch.max),
              static_cast<unsigned long long>(stats.drain_batch.cycles));
  std::printf("pool workers        %zu\n", stats.pool_threads);
  for (std::size_t k = 0; k < svc::kRequestKinds; ++k) {
    const svc::OpLatency& lat = stats.latency[k];
    if (lat.count == 0) continue;
    std::printf("%-12s n=%-8llu p50=%.0fus p99=%.0fus max=%.0fus\n",
                std::string(svc::request_kind_name(
                    static_cast<svc::RequestKind>(k))).c_str(),
                static_cast<unsigned long long>(lat.count), lat.p50_us,
                lat.p99_us, lat.max_us);
  }
}

/// The WireStats counters, printed above the pool dashboard when `serve`
/// ran as a socket host.
void print_wire_stats(const svc::WireStats& wire) {
  std::printf("wire connections    %llu accepted, %llu still open\n",
              static_cast<unsigned long long>(wire.accepted),
              static_cast<unsigned long long>(wire.active));
  std::printf("wire frames in/out  %llu / %llu (%llu / %llu bytes)\n",
              static_cast<unsigned long long>(wire.frames_in),
              static_cast<unsigned long long>(wire.frames_out),
              static_cast<unsigned long long>(wire.bytes_in),
              static_cast<unsigned long long>(wire.bytes_out));
  std::printf("wire decode errors / timeouts / overloaded  %llu / %llu / "
              "%llu\n",
              static_cast<unsigned long long>(wire.decode_errors),
              static_cast<unsigned long long>(wire.timeouts),
              static_cast<unsigned long long>(wire.overloaded));
  std::printf("wire shared replies %llu (memo-shared loads, encoded once); "
              "%llu bytes unsent\n",
              static_cast<unsigned long long>(wire.shared_replies),
              static_cast<unsigned long long>(wire.buffered_out));
}

// `depchaos serve` — the session service. Two modes share one pool setup:
// the default in-process demo (the "clients" are driver threads; everything
// else is the production path — typed submits into the sharded admission
// queues, strand drains on the shared worker pool, Overloaded backpressure
// with driver-side retry, per-client CoW forks of the one loaded world),
// and `--listen=PORT`, which hosts the same pool behind the wire protocol
// until a remote client sends Shutdown (`depchaos connect ... --shutdown`).
int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const std::size_t clients =
      static_cast<std::size_t>(parse_long(args, "--clients=", 64, 0, 100'000));
  const std::size_t requests = static_cast<std::size_t>(
      parse_long(args, "--requests=", 32, 0, 1'000'000'000));
  const std::string mix = flag_value(args, "--mix=", "load");
  if (mix != "load" && mix != "mixed") usage();
  const std::uint64_t seed =
      static_cast<std::uint64_t>(parse_long(args, "--seed=", 1, 0, LLONG_MAX));

  svc::PoolConfig config;
  config.shards =
      static_cast<std::size_t>(parse_long(args, "--shards=", 8, 1, 4096));
  config.threads =
      static_cast<std::size_t>(parse_long(args, "--threads=", 0, 0, 4096));
  config.queue_high_water = static_cast<std::size_t>(
      parse_long(args, "--high-water=", 1024, 1, 1'000'000'000));

  core::Session base = open_session(args);
  // Saved snapshots carry no default target; `--exe=` names the app the
  // driver storms (falls back to a world-carried default when present).
  const std::string exe = flag_value(args, "--exe=", base.default_exe());
  if (exe.empty()) {
    std::fprintf(stderr,
                 "depchaos: serve needs --exe=PATH (world carries no default "
                 "target)\n");
    return 1;
  }
  // Remote clients may send empty Load payloads meaning "the default
  // target"; make `--exe=` that default so both modes storm the same app.
  base.set_default_exe(exe);
  svc::SessionPool pool(std::move(base), config);

  const std::string listen = flag_value(args, "--listen=", "");
  if (!listen.empty()) {
    svc::WireConfig wire_config;
    wire_config.port = static_cast<std::uint16_t>(
        parse_long_text("--listen=", listen, 0, 65535));
    svc::WireServer server(pool, wire_config);
    // The exact line the CI loopback smoke greps for the ephemeral port.
    std::printf("listening on %s:%u (%s, %zu shards)\n",
                wire_config.host.c_str(), server.port(), exe.c_str(),
                config.shards);
    std::fflush(stdout);
    server.wait();  // until a remote Shutdown frame
    print_wire_stats(server.stats());
    print_pool_dashboard(pool.stats());
    return 0;
  }

  std::printf("serving %s: %zu clients x %zu requests (%s mix, %zu shards)\n",
              exe.c_str(), clients, requests, mix.c_str(), config.shards);

  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> request_errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      const svc::ClientId id = static_cast<svc::ClientId>(c + 1);
      std::mt19937_64 rng(seed * 1000003 + c);
      std::uniform_int_distribution<int> op(0, 9);
      for (std::size_t r = 0; r < requests; ++r) {
        // 0-6 load, 7 query, 8 whatif, 9 shrinkwrap (mixed mode only).
        const int pick = mix == "mixed" ? op(rng) : 0;
        for (;;) {  // back off and retry on admission rejection
          try {
            if (pick >= 9) {
              pool.submit_shrinkwrap(id, exe).get();
            } else if (pick == 8) {
              pool.submit_whatif(id, exe).get();
            } else if (pick == 7) {
              pool.submit_query(id).get();
            } else {
              pool.submit_load_shared(id, exe).get();
            }
            break;
          } catch (const svc::Overloaded& overloaded) {
            retries.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                overloaded.retry_after_s()));
          } catch (const std::exception&) {
            // A failed request (bad exe, wrap error) came back through the
            // future; the pool already counted it. Keep driving.
            request_errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  pool.drain();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  const svc::PoolStats stats = pool.stats();
  std::printf("\n%llu requests in %.3fs (%.0f req/s), %llu driver retries, "
              "%llu request errors\n",
              static_cast<unsigned long long>(stats.executed), elapsed,
              static_cast<double>(stats.executed) / elapsed,
              static_cast<unsigned long long>(retries.load()),
              static_cast<unsigned long long>(request_errors.load()));
  print_pool_dashboard(stats);
  return 0;
}

// `depchaos connect` — the remote half of `serve --listen`: the same
// scripted client mix the in-process demo drives, but over sockets. Each
// driver thread owns one connection; Overloaded responses reconstruct the
// pool's backpressure (shard, depth, retry-after) and the driver backs off
// exactly like an in-process submitter.
int cmd_connect(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const std::string& target = args[0];
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "depchaos: connect wants HOST:PORT, got \"%s\"\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const std::uint16_t port = static_cast<std::uint16_t>(
      parse_long_text("connect port ", target.substr(colon + 1), 1, 65535));
  const std::size_t clients =
      static_cast<std::size_t>(parse_long(args, "--clients=", 8, 0, 10'000));
  const std::size_t requests = static_cast<std::size_t>(
      parse_long(args, "--requests=", 32, 0, 1'000'000'000));
  const std::string mix = flag_value(args, "--mix=", "load");
  if (mix != "load" && mix != "mixed") usage();
  const std::uint64_t seed =
      static_cast<std::uint64_t>(parse_long(args, "--seed=", 1, 0, LLONG_MAX));
  // Empty = the server world's default exe (an empty Load payload).
  const std::string exe = flag_value(args, "--exe=", "");

  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> request_errors{0};
  std::atomic<std::uint64_t> transport_errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      try {
        svc::WireClient client(host, port);
        const svc::ClientId id = static_cast<svc::ClientId>(c + 1);
        std::mt19937_64 rng(seed * 1000003 + c);
        std::uniform_int_distribution<int> op(0, 9);
        for (std::size_t r = 0; r < requests; ++r) {
          const int pick = mix == "mixed" ? op(rng) : 0;
          for (;;) {
            try {
              if (pick >= 9) {
                client.shrinkwrap(id, exe);
              } else if (pick == 8) {
                client.whatif(id, exe);
              } else if (pick == 7) {
                client.query(id);
              } else {
                client.load(id, exe);
              }
              completed.fetch_add(1);
              break;
            } catch (const svc::Overloaded& overloaded) {
              retries.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::duration<double>(
                  overloaded.retry_after_s()));
            } catch (const svc::WireError&) {
              // Server-reported request failure (bad exe, wrap error):
              // count it and keep driving, like the in-process demo.
              request_errors.fetch_add(1);
              break;
            }
          }
        }
      } catch (const std::exception& error) {
        // Connect failure or mid-run transport loss kills this driver
        // only; the run reports it rather than crashing.
        transport_errors.fetch_add(1);
        std::fprintf(stderr, "depchaos: client %zu: %s\n", c + 1,
                     error.what());
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf("%llu requests in %.3fs (%.0f req/s), %llu retries, "
              "%llu request errors, %llu transport errors\n",
              static_cast<unsigned long long>(completed.load()), elapsed,
              static_cast<double>(completed.load()) / elapsed,
              static_cast<unsigned long long>(retries.load()),
              static_cast<unsigned long long>(request_errors.load()),
              static_cast<unsigned long long>(transport_errors.load()));

  if (has_flag(args, "--shutdown")) {
    svc::WireClient admin(host, port);
    admin.shutdown();
    std::printf("server shutdown acknowledged\n");
  }
  return transport_errors.load() == 0 ? 0 : 1;
}

/// Rediscover the Pynamic app baked into an image world (worldgen writes it
/// under the default root): module i lives at
/// <root>/m<i>/lib/libpynamic_module_<i>.so, so probe upward until the
/// first miss. Returns false when the image carries no such app.
bool discover_pynamic_app(const vfs::FileSystem& fs,
                          workload::PynamicApp& app) {
  const std::string root = "/apps/pynamic";
  for (int i = 0;; ++i) {
    const std::string dir = root + "/m" + std::to_string(i) + "/lib";
    const std::string path =
        dir + "/libpynamic_module_" + std::to_string(i) + ".so";
    if (fs.peek(path) == nullptr) break;
    app.search_dirs.push_back(dir);
    app.module_paths.push_back(path);
  }
  app.exe_path = root + "/bigexe";
  return !app.module_paths.empty() && fs.peek(app.exe_path) != nullptr;
}

int cmd_launch(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  core::SessionConfig config;
  config.cluster.spindle_broadcast = has_flag(args, "--spindle");
  auto session = open_session(args, std::move(config));
  session.fs().set_latency_model(vfs::LatencyModel::nfs());
  const int ranks =
      static_cast<int>(parse_long(args, "--ranks=", 512, 1, 10'000'000));

  const std::string engine = flag_value(args, "--engine=", "analytic");
  if (engine != "analytic" && engine != "sim") {
    std::fprintf(stderr,
                 "depchaos: unknown --engine=%s (want analytic or sim)\n",
                 engine.c_str());
    return 2;
  }
  const bool sim_engine = engine == "sim";
  if (!sim_engine) {
    // The simulator knobs would silently do nothing under the analytic
    // engine; refuse, mirroring the sandbox-flag checks below.
    for (const char* flag : {"--cache", "--negative-cache"}) {
      if (has_flag(args, flag)) {
        std::fprintf(stderr, "depchaos: %s requires --engine=sim\n", flag);
        return 2;
      }
    }
    for (const char* prefix :
         {"--dist=", "--seed=", "--waves=", "--straggler="}) {
      if (!flag_value(args, prefix, "").empty()) {
        std::fprintf(stderr, "depchaos: %s requires --engine=sim\n", prefix);
        return 2;
      }
    }
  }

  mds::ServiceModel service;
  const std::string dist = flag_value(args, "--dist=", "fixed");
  if (dist == "fixed") {
    service.dist = mds::Dist::Fixed;
  } else if (dist == "uniform") {
    service.dist = mds::Dist::Uniform;
  } else if (dist == "pareto") {
    service.dist = mds::Dist::Pareto;
  } else {
    std::fprintf(
        stderr,
        "depchaos: unknown --dist=%s (want fixed, uniform, or pareto)\n",
        dist.c_str());
    return 2;
  }
  service.seed = static_cast<std::uint64_t>(
      parse_long(args, "--seed=", 42, 0, LLONG_MAX));
  mds::CachePolicy cache;
  cache.negative_caching = has_flag(args, "--negative-cache");
  cache.enabled = cache.negative_caching || has_flag(args, "--cache");
  const int waves =
      static_cast<int>(parse_long(args, "--waves=", 1, 1, 10'000));
  const std::string straggler = flag_value(args, "--straggler=", "");
  std::vector<double> start_delays;
  if (!straggler.empty()) {
    const std::size_t colon = straggler.find(':');
    const int rank = static_cast<int>(parse_long_text(
        "--straggler=", straggler.substr(0, colon), 0, INT_MAX));
    const double delay_s =
        colon == std::string::npos
            ? 1.0
            : parse_double_text("--straggler=", straggler.substr(colon + 1),
                                0.0, 1e9);
    if (rank < 0 || rank >= ranks) {
      std::fprintf(stderr, "depchaos: --straggler rank %d out of [0, %d)\n",
                   rank, ranks);
      return 2;
    }
    start_delays.assign(static_cast<std::size_t>(ranks), 0.0);
    start_delays[static_cast<std::size_t>(rank)] = delay_s;
  }

  launch::FleetConfig fleet;
  fleet.cluster = session.config().cluster;
  if (sim_engine) {
    fleet.engine = launch::Engine::Queueing;
    fleet.service = service;
    fleet.cache = cache;
    fleet.start_delays = std::move(start_delays);
    fleet.sim_waves = waves;
  }
  // A bare launch is the sandbox that mounts nothing: a plain fork of the
  // host world.
  core::SandboxSpec spec;
  workload::PynamicApp mix_app;
  const std::string image_path = flag_value(args, "--sandbox=", "");
  if (image_path.empty()) {
    // The sandbox-shaping flags would be silently meaningless on a bare
    // launch; refuse instead of printing storm numbers as if they applied
    // (--spindle is a cluster knob and works either way).
    for (const char* flag : {"--prestaged", "--overlay"}) {
      if (has_flag(args, flag)) {
        std::fprintf(stderr, "depchaos: %s requires --sandbox=<image>\n",
                     flag);
        return 2;
      }
    }
    for (const char* prefix : {"--mount=", "--mask=", "--ranks-mix="}) {
      if (!flag_value(args, prefix, "").empty()) {
        std::fprintf(stderr, "depchaos: %s requires --sandbox=<image>\n",
                     prefix);
        return 2;
      }
    }
  } else {
    // Containerized launch: measure the rank op stream inside a per-rank
    // sandbox assembled from the image world.
    spec.image = load_image_world(image_path);
    spec.image_mount = flag_value(args, "--mount=", "/");
    spec.writable_image_overlay = has_flag(args, "--overlay");
    spec.mask = split_flag(args, "--mask=");
    spec.exe = args[1];
    fleet.prestaged_image = has_flag(args, "--prestaged");
    const std::string ranks_mix = flag_value(args, "--ranks-mix=", "");
    if (!ranks_mix.empty()) {
      if (!spec.writable_image_overlay) {
        // The class divergence lives in each rank's private overlay; there
        // is nowhere to put it on a read-only sandbox.
        std::fprintf(stderr, "depchaos: --ranks-mix requires --overlay\n");
        return 2;
      }
      const int classes = static_cast<int>(
          parse_long_text("--ranks-mix=", ranks_mix, 1, INT_MAX));
      if (!discover_pynamic_app(*spec.image, mix_app)) {
        std::fprintf(stderr,
                     "depchaos: --ranks-mix needs a Pynamic app image "
                     "(no /apps/pynamic tree in %s)\n",
                     image_path.c_str());
        return 2;
      }
      fleet.rank_setup = [&mix_app, classes](core::Session& s, int r) {
        workload::apply_mpmd_rank(s.fs(), s.env(), mix_app, r, classes);
      };
    }
  }
  const launch::SimOutcome out =
      launch::sweep(session, spec, args[1], {ranks}, fleet).front();
  const launch::LaunchResult& result = out.launch;
  const mds::SimResult& sim = out.sim;
  std::printf("ranks=%d  meta_ops/rank=%llu  bytes/rank=%llu\n",
              result.nprocs,
              static_cast<unsigned long long>(result.meta_ops_per_rank),
              static_cast<unsigned long long>(result.bytes_per_rank));
  if (result.sandboxed) {
    std::printf(
        "sandboxed: shared-image ops=%llu  per-rank overlay ops=%llu\n",
        static_cast<unsigned long long>(result.shared_meta_ops_per_rank),
        static_cast<unsigned long long>(result.overlay_meta_ops_per_rank));
    std::printf("sandboxed: rank classes=%d  loader replays=%d\n",
                result.classes_measured, result.ranks_measured);
  }
  if (sim_engine) {
    std::printf("sim: server requests=%llu  batches=%llu  mean batch=%.1f  "
                "peak queue=%llu\n",
                static_cast<unsigned long long>(sim.server_requests),
                static_cast<unsigned long long>(sim.batches), sim.mean_batch,
                static_cast<unsigned long long>(sim.max_queue_depth));
    std::printf("sim: request latency p50=%.1fus p99=%.1fus max=%.0fus\n",
                sim.latency_p50_s * 1e6, sim.latency_p99_s * 1e6,
                sim.latency_max_s * 1e6);
    std::printf("sim: cache hits=%llu misses=%llu  node-local ops=%llu  "
                "relayed ops=%llu\n",
                static_cast<unsigned long long>(sim.cache_hits),
                static_cast<unsigned long long>(sim.cache_misses),
                static_cast<unsigned long long>(sim.local_ops),
                static_cast<unsigned long long>(sim.relayed_ops));
    if (out.wave_makespans.size() > 1) {
      // The stats above are the last (cache-warm) wave; the time-to-launch
      // line below is the cold first wave.
      for (std::size_t w = 0; w < out.wave_makespans.size(); ++w) {
        std::printf("sim: wave %zu metadata %.3f s%s\n", w + 1,
                    out.wave_makespans[w],
                    w == 0 ? " (cold)" : " (warm cache)");
      }
    }
  }
  std::printf("time-to-launch: %.1f s (data %.1f + metadata %.1f)\n",
              result.total_time_s, result.data_time_s, result.meta_time_s);
  return result.load_succeeded ? 0 : 1;
}

/// A subcommand and the flags its code reads: exact spellings, and
/// prefixes ending in '=' for flags that take a value.
struct Subcommand {
  std::string_view name;
  int (*run)(const std::vector<std::string>&);
  std::vector<std::string_view> flags;
};

const Subcommand kSubcommands[] = {
    {"worldgen", cmd_worldgen, {"--modules="}},
    {"libtree", cmd_libtree, {"--paths", "--env="}},
    {"ldd", cmd_ldd, {"--debug", "--env="}},
    {"shrinkwrap", cmd_shrinkwrap, {"--no-lift", "--audit-dlopen", "--env="}},
    {"whatif", cmd_whatif, {"--paths", "--audit-dlopen", "--env="}},
    {"verify", cmd_verify, {"--env="}},
    {"patchelf",
     cmd_patchelf,
     {"--print", "--set-runpath=", "--set-rpath=", "--env="}},
    {"launch",
     cmd_launch,
     {"--ranks=", "--sandbox=", "--mount=", "--overlay", "--mask=",
      "--spindle", "--prestaged", "--engine=", "--dist=", "--seed=",
      "--cache", "--negative-cache", "--waves=", "--straggler=",
      "--ranks-mix=", "--env="}},
    {"sandbox",
     cmd_sandbox,
     {"--mount=", "--mask=", "--overlay", "--conf=", "--env=",
      "--save-fleet="}},
    {"mount", cmd_mount, {}},
    {"serve",
     cmd_serve,
     {"--exe=", "--clients=", "--requests=", "--shards=", "--threads=",
      "--mix=", "--seed=", "--high-water=", "--listen=", "--env="}},
    {"connect",
     cmd_connect,
     {"--clients=", "--requests=", "--mix=", "--seed=", "--exe=",
      "--shutdown"}},
};

bool known_flag(const Subcommand& cmd, std::string_view arg) {
  for (const std::string_view flag : cmd.flags) {
    if (flag.ends_with('=') ? arg.starts_with(flag) : arg == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  // `depchaos --help` and `depchaos <cmd> --help` both print the full
  // usage (stdout, exit 0) — every subcommand's flags are documented there.
  if (command == "--help" || command == "-h" || command == "help" ||
      has_flag(args, "--help") || has_flag(args, "-h")) {
    print_usage(stdout);
    return 0;
  }
  for (const Subcommand& cmd : kSubcommands) {
    if (cmd.name != command) continue;
    // A flag the subcommand does not read (a typo such as --rank=64, or a
    // removed option) must not silently run with the default behaviour.
    for (const std::string& arg : args) {
      if (arg.starts_with('-') && !known_flag(cmd, arg)) {
        std::fprintf(stderr, "depchaos %s: unknown flag '%s'\n",
                     command.c_str(), arg.c_str());
        return 2;
      }
    }
    try {
      return cmd.run(args);
    } catch (const Error& error) {
      std::fprintf(stderr, "depchaos: %s\n", error.what());
      return 1;
    } catch (const std::exception& error) {
      // Config validation throws std::invalid_argument; print it like any
      // other user error instead of terminating.
      std::fprintf(stderr, "depchaos: %s\n", error.what());
      return 1;
    }
  }
  usage();
}
