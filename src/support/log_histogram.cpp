#include "depchaos/support/log_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace depchaos::support {

namespace {

constexpr int kSubBits = 4;  // log2(kSubBuckets)
static_assert(LogHistogram::kSubBuckets == 1 << kSubBits);
constexpr int kMinExp = -32;
constexpr int kMaxExp = 32;
// Bucket 0 is the underflow bucket [0, 2^kMinExp); the last octave's last
// slice also takes everything at or above 2^kMaxExp.
constexpr std::size_t kBuckets =
    1 + static_cast<std::size_t>(kMaxExp - kMinExp) * LogHistogram::kSubBuckets;

}  // namespace

std::size_t LogHistogram::bucket_of(double value) {
  // Read the octave and its top mantissa bits straight off the IEEE-754
  // encoding: no log, no loop.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (exponent < kMinExp) return 0;
  if (exponent >= kMaxExp) return kBuckets - 1;
  const auto slice = static_cast<std::size_t>((bits >> (52 - kSubBits)) &
                                              (kSubBuckets - 1));
  return 1 + static_cast<std::size_t>(exponent - kMinExp) * kSubBuckets +
         slice;
}

double LogHistogram::midpoint(std::size_t bucket) {
  if (bucket == 0) return 0;
  const int octave = static_cast<int>((bucket - 1) / kSubBuckets);
  const double slice = static_cast<double>((bucket - 1) % kSubBuckets);
  return std::ldexp(1.0 + (slice + 0.5) / kSubBuckets, kMinExp + octave);
}

void LogHistogram::record(double value) {
  if (!(value >= 0)) value = 0;  // also catches NaN
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[bucket_of(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  // The extreme ranks are known exactly.
  if (rank == 1) return min_;
  if (rank == count_) return max_;
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  for (; bucket + 1 < kBuckets; ++bucket) {
    seen += buckets_[bucket];
    if (seen >= rank) break;
  }
  // The overflow bucket has no upper bound to take a midpoint of.
  if (bucket + 1 == kBuckets) return max_;
  return std::clamp(midpoint(bucket), min_, max_);
}

}  // namespace depchaos::support
