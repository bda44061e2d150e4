#include "depchaos/analysis/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace depchaos::analysis {

std::uint64_t Histogram::max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::mean() const {
  if (samples_.empty()) return 0;
  long double sum = 0;
  for (const auto v : samples_) sum += v;
  return static_cast<double>(sum / samples_.size());
}

std::uint64_t Histogram::quantile(double q) const {
  if (samples_.empty()) return 0;
  auto sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double Histogram::fraction_above(std::uint64_t threshold) const {
  if (samples_.empty()) return 0;
  const auto count =
      std::count_if(samples_.begin(), samples_.end(),
                    [&](std::uint64_t v) { return v > threshold; });
  return static_cast<double>(count) / static_cast<double>(samples_.size());
}

std::vector<std::uint64_t> Histogram::sorted_desc() const {
  auto sorted = samples_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

std::vector<std::uint64_t> Histogram::frequency_table(std::uint64_t cap) const {
  std::vector<std::uint64_t> table(cap + 1, 0);
  for (const auto v : samples_) {
    ++table[std::min(v, cap)];
  }
  return table;
}

std::string Histogram::ascii_chart(std::size_t buckets,
                                   std::size_t width) const {
  if (samples_.empty() || buckets == 0) return "(empty)\n";
  const std::uint64_t top = std::max<std::uint64_t>(1, max());
  const double bucket_width =
      static_cast<double>(top + 1) / static_cast<double>(buckets);
  std::vector<std::uint64_t> counts(buckets, 0);
  for (const auto v : samples_) {
    auto b = static_cast<std::size_t>(static_cast<double>(v) / bucket_width);
    ++counts[std::min(b, buckets - 1)];
  }
  const std::uint64_t peak =
      std::max<std::uint64_t>(1, *std::max_element(counts.begin(), counts.end()));
  std::string out;
  for (std::size_t b = 0; b < buckets; ++b) {
    const auto lo = static_cast<std::uint64_t>(b * bucket_width);
    const auto bar_len = static_cast<std::size_t>(
        static_cast<double>(counts[b]) / static_cast<double>(peak) *
        static_cast<double>(width));
    // Appended piecewise: operator+ chains trip GCC 12's -O3 -Wrestrict.
    out += "  [";
    out += std::to_string(lo);
    out += "+] ";
    out.append(bar_len, '#');
    out += ' ';
    out += std::to_string(counts[b]);
    out += '\n';
  }
  return out;
}

}  // namespace depchaos::analysis
