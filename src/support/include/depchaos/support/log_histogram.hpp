// Fixed-size log-bucket histogram for long-lived telemetry: the session
// pool's per-kind latencies and drain-batch sizes, and the MDS simulator's
// request latencies.
//
// Buckets split every power of two in [2^-32, 2^32) into kSubBuckets equal
// slices (one more bucket holds everything below 2^-32, the top one
// everything above), so a bucket is at most 1/16 of its lower bound wide.
// count, sum, min and max are kept exactly; quantile() finds the bucket
// holding the nearest-rank sample and returns its midpoint clamped to
// [min, max] (the first and last ranks return min and max themselves), so
// a quantile is never outside the recorded range and lies in the same
// bucket as the exact nearest-rank value. record() is O(1),
// merge() O(buckets), and memory is fixed: the bucket array (~8 KiB) is
// allocated on the first record or merge, so an unused histogram costs
// only its summary fields. Not synchronized; the owner locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace depchaos::support {

class LogHistogram {
 public:
  /// Equal-width buckets per power of two.
  static constexpr int kSubBuckets = 16;

  /// Record one value. Negative values and NaN count as 0.
  void record(double value);
  /// Add every sample `other` recorded (as if recorded here).
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Nearest-rank quantile for q in [0, 1], to within one bucket; 0 when
  /// empty.
  double quantile(double q) const;

 private:
  static std::size_t bucket_of(double value);
  static double midpoint(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;  // empty until first use
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace depchaos::support
