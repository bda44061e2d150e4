// Measurement helpers for the depchaos benchmark: percentile summaries with
// a labelled tail, in-memory trace spans with self-time attribution, and
// the metric report whose last line is the machine-readable result.
//
// Nothing here knows about depchaos; the helpers are unit-tested on their
// own (tests/helpers_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least p% of the samples at or below it. `sorted` must be non-empty.
double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile's rank.
std::size_t samples_beyond(std::size_t count, double p);

/// The highest percentile, at most `want_tail`, among 99, 90 and 75 that
/// leaves at least ten of `count` samples beyond it; 50 when none does.
double tail_percentile_for(std::size_t count, double want_tail);

/// A timed window cut into equal time slices, each statistic reported as
/// the level of the window's better quarter of slices (`better_quarter`).
/// On a shared host a vCPU runs at one of a few speeds for seconds at a
/// time, up to 1.7x apart; how much of a run falls in slow spells varies
/// from run to run, so a median across slices jumps between the levels
/// while the better quarter keeps to the fast one as long as a quarter of
/// the run gets it (and the run spreads over every CPU, see CpuRotation).
/// `slices[k]` holds the latencies of the requests completed in slice k;
/// every slice lasted `slice_s` seconds. The tail is the highest
/// percentile, at most `want_tail`, that leaves ten samples beyond it in
/// the smallest slice (99 -> 90 -> 75 -> 50); `tail_label` names the one
/// used ("p99", "p90", ...), so a fallback is visible.
struct SlicedSummary {
  std::size_t slices = 0;
  std::size_t count = 0;            // samples over all slices
  std::size_t min_slice_count = 0;  // samples in the smallest slice
  double rate = 0;                  // better quarter of per-slice completions/s
  double min = 0;                   // over all samples
  double p50 = 0;                   // better quarter of per-slice medians
  double tail = 0;                  // better quarter of per-slice tails
  double max = 0;                   // over all samples
  double tail_percentile = 0;
  std::string tail_label;
  std::size_t tail_beyond = 0;  // samples beyond the tail, smallest slice
};

SlicedSummary summarize_slices(const std::vector<std::vector<float>>& slices,
                               double slice_s, double want_tail = 99);

/// The level a quarter of `values` reach or beat: the nearest-rank 75th
/// percentile when higher is better, else the 25th. 0 when empty.
double better_quarter(std::vector<double> values, bool higher_is_better);

/// Median of a small set (setup repetitions, probe repetitions).
double median(std::vector<double> values);

// ---- spans -----------------------------------------------------------------

/// One traced call into a layer. Spans of one request share `request`;
/// `parent` is the id of the span that caused this one (0 = root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;  // steady-clock nanoseconds
  std::int64_t end_ns = 0;
};

/// Spans kept in memory, bounded, written out once when the run ends.
/// Not thread-safe: each recording thread owns one log (ids stay unique
/// across logs through `id_base`), merged with append() afterwards.
class SpanLog {
 public:
  /// Storage for `capacity` spans is reserved up front, so recording never
  /// reallocates inside a timed window.
  explicit SpanLog(std::size_t capacity = 1u << 18, std::uint64_t id_base = 0)
      : capacity_(capacity), next_id_(id_base + 1) {
    spans_.reserve(capacity);
  }

  /// Reserve the id of a span that will be recorded later (an enclosing
  /// span whose children finish first).
  std::uint64_t reserve() { return next_id_++; }

  /// Record a finished span; returns its id (ids are assigned even when
  /// the log is full, so children can still name a dropped parent).
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t request, Clock::time_point start,
                       Clock::time_point end) {
    return record_as(reserve(), name, parent, request, start, end);
  }
  std::uint64_t record_as(std::uint64_t id, const char* name,
                          std::uint64_t parent, std::uint64_t request,
                          Clock::time_point start, Clock::time_point end);

  void append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::uint64_t next_id_;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Self time of every span, in seconds, in the order of `spans`: its
/// duration minus the time covered by the union of its children's
/// intervals. A child nested inside its parent subtracts the part it
/// covers; a child replayed separately (the layer-at-a-time replay, where
/// the layer below runs after the layer above) lies outside the parent's
/// interval and subtracts its whole duration — in both cases the stack's
/// time minus the stack below it. Grandchildren only reduce their parent.
std::vector<double> self_times(const std::vector<Span>& spans);

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark invocation prints: the metrics by name with their
/// units, and the correctness tally. `result_line()` is the last line of
/// standard output.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // first few failure messages

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string message);

  std::string result_line() const;
};

/// A JSON number with every significant digit of `value`.
std::string json_number(double value);
std::string json_string(const std::string& text);

}  // namespace perfbench
