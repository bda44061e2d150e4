#include "host.hpp"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string sanitizer_name() {
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

// A fixed amount of integer work the optimizer cannot drop.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double time_spinners(std::size_t threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] { sink.fetch_xor(spin(iterations)); });
  }
  for (auto& w : workers) w.join();
  return seconds_between(start, Clock::now()) * 1e3;
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.vcpus = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  } else {
    host.vcpus = std::max(1u, std::thread::hardware_concurrency());
  }
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.sanitizer = sanitizer_name();

  // Median of three rounds of 1 thread vs N threads on ~20 ms of work each.
  constexpr std::uint64_t kIterations = 20'000'000;
  std::vector<double> one;
  std::vector<double> all;
  for (int round = 0; round < 3; ++round) {
    one.push_back(time_spinners(1, kIterations));
    all.push_back(time_spinners(host.vcpus, kIterations));
  }
  host.one_thread_ms = median(one);
  host.all_threads_ms = median(all);
  host.effective_parallelism = static_cast<double>(host.vcpus) *
                               host.one_thread_ms / host.all_threads_ms;
  return host;
}

bool pin_to_one_cpu(HostInfo& host) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  host.cpus.clear();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) host.cpus.push_back(cpu);
  }
  if (host.cpus.empty()) return false;
  CPU_ZERO(&set);
  CPU_SET(host.cpus.back(), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) return false;
  host.pinned_cpu = host.cpus.back();
  return true;
}

bool move_process_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  bool moved = true;
  for (const pid_t tid : thread_ids()) {
    // A thread that exited since the listing is not a failure.
    if (sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) moved = false;
  }
  return moved;
}

CpuRotation::CpuRotation(std::vector<int> cpus, double period_s, int home_cpu)
    : cpus_(std::move(cpus)), period_s_(period_s), home_cpu_(home_cpu) {
  if (cpus_.size() < 2 || home_cpu_ < 0) return;
  move_process_to(cpus_.front());
  mover_ = std::thread([this] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(period_s_));
    auto next = Clock::now() + period;
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 1; !stop_cv_.wait_until(lock, next, [this] { return stop_; });
         ++k, next += period) {
      move_process_to(cpus_[k % cpus_.size()]);
    }
  });
}

CpuRotation::~CpuRotation() {
  if (!mover_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  stop_cv_.notify_one();
  mover_.join();
  move_process_to(home_cpu_);
}

std::string describe(const HostInfo& host) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "# host: vcpus=%zu compiler=\"%s\" build=%s sanitizer=%s "
                "calibration: 1 thread %.1f ms, %zu threads %.1f ms, "
                "effective parallelism %.2f; run pinned to cpu %d, set-ups and "
                "the timed window rotated over %zu cpus",
                host.vcpus, host.compiler.c_str(), host.build_type.c_str(),
                host.sanitizer.c_str(), host.one_thread_ms,
                host.vcpus, host.all_threads_ms,
                host.effective_parallelism, host.pinned_cpu, host.cpus.size());
  return buffer;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && written;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      ids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double thread_cpu_seconds(pid_t tid) {
  std::ifstream stat("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string text;
  if (!std::getline(stat, text)) return -1;
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
