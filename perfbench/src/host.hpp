// The host block every run prints (vCPUs, compiler, build type, sanitizer,
// measured parallelism) and the /proc readers the benchmark measures with:
// peak resident memory of this process and CPU time of one of its threads.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct HostInfo {
  std::size_t vcpus = 1;  // CPUs this process may run on
  std::string compiler;
  std::string build_type;
  std::string sanitizer;  // "none", "address", "thread"
  /// Spin calibration: N = vcpus threads each spin the same fixed work;
  /// effective parallelism = N * (1-thread time) / (N-thread wall time).
  /// ~N on an idle host, ~1 when the vCPUs share one core's worth of time.
  double one_thread_ms = 0;
  double all_threads_ms = 0;
  double effective_parallelism = 1;
  /// The CPUs this process may run on, in order.
  std::vector<int> cpus;
  /// The one CPU the run is confined to after calibration (-1: not pinned).
  int pinned_cpu = -1;
};

/// Collect the static facts and run the spin calibration (~0.2 s).
HostInfo probe_host();

/// Confine this process to the last CPU it may run on; threads started
/// afterwards inherit it. On a shared host, wake-ups between CPUs stall
/// for as long as the hypervisor keeps a vCPU off a core, which swamps
/// what the workloads measure; on one CPU a hand-off is a context switch.
/// Records the CPU in `host`; false when the kernel refuses.
bool pin_to_one_cpu(HostInfo& host);

/// Move every thread of this process to `cpu`; threads started afterwards
/// inherit it. False when the kernel refuses for any thread.
bool move_process_to(int cpu);

/// While alive, moves the whole process to the next of `cpus` every
/// `period_s` seconds (the first move happens at construction), so a timed
/// window spends equal shares of its time on every CPU, one CPU at a time.
/// On a shared host each vCPU runs fast or slow for seconds at a time,
/// independently of the others; rotating keeps one CPU's slow spell from
/// setting a whole run. The destructor stops and joins the mover and
/// returns the process to `home_cpu`.
class CpuRotation {
 public:
  CpuRotation(std::vector<int> cpus, double period_s, int home_cpu);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  std::vector<int> cpus_;
  double period_s_;
  int home_cpu_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread mover_;
};

/// One comment line describing the host, for the human-readable report.
std::string describe(const HostInfo& host);

/// Reset the kernel's peak-RSS mark to the current RSS (after returning
/// freed heap to the system), so the next peak_rss_mb() covers only what
/// runs from here on. False when the kernel refuses (/proc/self/clear_refs).
bool reset_peak_rss();

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Thread ids of this process (/proc/self/task).
std::vector<pid_t> thread_ids();

/// User + system CPU seconds consumed so far by thread `tid` of this
/// process; negative when the thread is gone.
double thread_cpu_seconds(pid_t tid);

}  // namespace perfbench
