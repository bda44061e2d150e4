#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t count, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, count);
}

// "p99", "p90", ...
std::string percentile_label(double p) {
  char label[16];
  std::snprintf(label, sizeof(label), "p%d", static_cast<int>(p));
  return label;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t count, double p) {
  return count == 0 ? 0 : count - nearest_rank(count, p);
}

double tail_percentile_for(std::size_t count, double want_tail) {
  for (const double p : {99.0, 90.0, 75.0}) {
    if (p <= want_tail && samples_beyond(count, p) >= 10) return p;
  }
  return 50;
}

SlicedSummary summarize_slices(const std::vector<std::vector<float>>& slices,
                               double slice_s, double want_tail) {
  SlicedSummary s;
  s.slices = slices.size();
  if (slices.empty()) return s;
  s.min_slice_count = slices.front().size();
  for (const auto& slice : slices) {
    s.count += slice.size();
    s.min_slice_count = std::min(s.min_slice_count, slice.size());
  }
  s.tail_percentile = tail_percentile_for(s.min_slice_count, want_tail);
  s.tail_label = percentile_label(s.tail_percentile);
  s.tail_beyond = samples_beyond(s.min_slice_count, s.tail_percentile);
  std::vector<double> rates, p50s, tails;
  for (const auto& slice : slices) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
    if (slice.empty()) continue;
    std::vector<double> sorted(slice.begin(), slice.end());
    std::sort(sorted.begin(), sorted.end());
    s.min = p50s.empty() ? sorted.front() : std::min(s.min, sorted.front());
    s.max = p50s.empty() ? sorted.back() : std::max(s.max, sorted.back());
    p50s.push_back(percentile(sorted, 50));
    tails.push_back(percentile(sorted, s.tail_percentile));
  }
  s.rate = better_quarter(rates, true);
  s.p50 = better_quarter(p50s, false);
  s.tail = better_quarter(tails, false);
  return s;
}

double better_quarter(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return percentile(values, higher_is_better ? 75 : 25);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- spans -----------------------------------------------------------------

std::uint64_t SpanLog::record_as(std::uint64_t id, const char* name,
                                 std::uint64_t parent, std::uint64_t request,
                                 Clock::time_point start,
                                 Clock::time_point end) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return id;
  }
  auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back({name, id, parent, request, ns(start), ns(end)});
  return id;
}

void SpanLog::append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  dropped_ += other.dropped_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":%s,\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 json_string(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (auto it = index.find(s.parent); s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) *
              1e-9;
  }
  return self;
}

// ---- report ----------------------------------------------------------------

void Report::fail(std::string message) {
  correct = false;
  if (failures.size() < 20) failures.push_back(std::move(message));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::result_line() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
