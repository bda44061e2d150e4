// depchaos benchmark entry point.
//
//   depchaos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: fleet_storm, ldd_sweep, emacs_wrap, fleet_launch (see
// perfbench/README.md). Prints a host block, a human-readable report with
// every metric by name and unit, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// from a traced run, and writes the run's spans to
// .bench_build/perfbench/traces/<workload>.jsonl when it ends. Exit code 0 only when every
// correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "host.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 11;

int usage(const char* why) {
  std::fprintf(stderr,
               "depchaos_perfbench: %s\n"
               "usage: depchaos_perfbench --workload "
               "fleet_storm|ldd_sweep|emacs_wrap|fleet_launch --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && options.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "fleet_storm") return make_fleet_storm(options);
  if (options.workload == "ldd_sweep") return make_ldd_sweep(options);
  if (options.workload == "emacs_wrap") return make_emacs_wrap(options);
  if (options.workload == "fleet_launch") return make_fleet_launch(options);
  return nullptr;
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = {}) {
  std::printf("  %-28s %16.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void tally(const Window& window, Report& report) {
  report.attempted += window.attempted;
  report.failed += window.failed;
  for (const std::string& message : window.failures) report.fail(message);
}

// --trace 0: the six end-to-end metrics, tracing off.
void end_to_end(Workload& workload, const Options& options, const HostInfo& host,
                double setup_s, Report& report) {
  const bool rss_reset = reset_peak_rss();
  const Window window = [&] {
    const CpuRotation rotation(host.cpus, kSliceS, host.pinned_cpu);
    return workload.run(options.seconds, nullptr);
  }();
  const double rss_mb = peak_rss_mb();
  tally(window, report);
  const SlicedSummary latency = window.summary(workload.tail_percentile());
  const double error_ratio =
      window.attempted ? static_cast<double>(window.failed) /
                             static_cast<double>(window.attempted)
                       : 1.0;
  const std::string n = "n=" + std::to_string(latency.count) + " in " +
                        std::to_string(latency.slices) + " slices";
  print_metric("setup_s", setup_s, "s", "median of " + std::to_string(kSetups));
  print_metric("throughput_rps", latency.rate, "1/s",
               "better quarter of slices; " + std::to_string(window.completed) +
                   " requests in " + std::to_string(window.elapsed_s) + " s");
  print_metric("latency_p50_us", latency.p50, "us", n);
  print_metric("latency_" + latency.tail_label + "_us", latency.tail, "us",
               n + ", " + std::to_string(latency.tail_beyond) +
                   " beyond in the smallest");
  print_metric("error_ratio", error_ratio, "ratio",
               std::to_string(window.failed) + " of " +
                   std::to_string(window.attempted));
  print_metric("rss_peak_mb", rss_mb, "MiB",
               rss_reset ? "peak during the window" : "process peak (reset refused)");
  report.add("setup_s", setup_s, "s");
  report.add("throughput_rps", latency.rate, "1/s");
  report.add("latency_p50_us", latency.p50, "us");
  report.add("latency_tail_us", latency.tail, "us");
  report.add("rss_peak_mb", rss_mb, "MiB");
}

// --trace 1: untraced and traced windows of the workload, alternating
// (their throughput ratio is the tracing overhead), then the
// layer-at-a-time replay.
void traced(Workload& workload, const Options& options, Report& report) {
  const double window_s = 0.125 * options.seconds;
  SpanLog spans(std::size_t{1} << 20);
  const std::optional<pid_t> io = workload.io_thread();
  double plain_done = 0, plain_s = 0, traced_done = 0, traced_s = 0, io_cpu = 0;
  for (int round = 0; round < 2; ++round) {
    const Window plain = workload.run(window_s, nullptr);
    tally(plain, report);
    plain_done += static_cast<double>(plain.completed);
    plain_s += plain.elapsed_s;

    const double cpu_start = io ? thread_cpu_seconds(*io) : 0;
    const Window with_spans = workload.run(window_s, &spans);
    if (io) io_cpu += thread_cpu_seconds(*io) - cpu_start;
    tally(with_spans, report);
    traced_done += static_cast<double>(with_spans.completed);
    traced_s += with_spans.elapsed_s;
  }
  const double io_share = io ? io_cpu / traced_s : -1;
  const auto stats_start = Clock::now();
  const svc::PoolStats stats = workload.pool().stats();
  const double stats_ms = seconds_between(stats_start, Clock::now()) * 1e3;

  LayerInputs inputs = workload.layer_inputs(4096);
  replay_layers(inputs, 0.5 * options.seconds, io_share, spans, report);

  report.add("trace.throughput_ratio",
             plain_done > 0 ? (traced_done / traced_s) / (plain_done / plain_s) : 0,
             "ratio");
  report.add("trace.spans", static_cast<double>(spans.spans().size()), "count");
  report.add("pool.stats_ms", stats_ms, "ms");
  report.add("pool.executed", static_cast<double>(stats.executed), "count");

  const std::filesystem::path dir = ".bench_build/perfbench/traces";
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  const std::string path = (dir / (options.workload + ".jsonl")).string();
  std::printf("# spans: %zu kept, %llu dropped, written to %s%s\n",
              spans.spans().size(), static_cast<unsigned long long>(spans.dropped()),
              path.c_str(), spans.write_jsonl(path) ? "" : " (write failed)");
  for (const Metric& m : report.metrics) print_metric(m.name, m.value, m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return usage("bad arguments");
  HostInfo host = probe_host();
  pin_to_one_cpu(host);
  options.connections = std::min<std::size_t>(4, host.vcpus);
  std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) return usage("unknown workload");

  std::printf("%s\n", describe(host).c_str());
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d pool_workers=%zu "
              "connections=%zu\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, kPoolWorkers,
              options.connections);

  Report report;
  try {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      // Each set-up on the next CPU, like the timed window (see CpuRotation).
      if (host.pinned_cpu >= 0) move_process_to(host.cpus[i % host.cpus.size()]);
      const auto start = Clock::now();
      workload->setup();
      setups.push_back(seconds_between(start, Clock::now()));
    }
    if (host.pinned_cpu >= 0) move_process_to(host.pinned_cpu);
    workload->prepare(report);
    if (options.trace) {
      traced(*workload, options, report);
    } else {
      end_to_end(*workload, options, host, median(setups), report);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("aborted: ") + e.what());
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
  }
  if (report.attempted == 0) report.fail("no request was attempted");
  for (const std::string& message : report.failures) {
    std::printf("# FAILED: %s\n", message.c_str());
  }
  std::printf("%s\n", report.result_line().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
