// Tests for the benchmark's own helpers: percentile summaries, the tail
// fallback, self time from nested and replayed spans, the result line, and
// the in-memory span log.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {
namespace {

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

// One slice, one second long.
SlicedSummary one_slice(const std::vector<double>& samples, double want_tail = 99) {
  return summarize_slices({std::vector<float>(samples.begin(), samples.end())}, 1.0,
                          want_tail);
}

std::vector<double> one_to(int n) {
  std::vector<double> samples;
  for (int i = 1; i <= n; ++i) samples.push_back(i);
  return samples;
}

TEST(Summary, PercentilesAreOrdered) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<float>> slices(1 + rng() % 8);
    for (auto& slice : slices) {
      slice.resize(1 + rng() % 3000);
      for (float& v : slice) v = static_cast<float>(uniform(rng) * uniform(rng) * 1e4);
    }
    const SlicedSummary s = summarize_slices(slices, 0.5, 99);
    EXPECT_EQ(s.slices, slices.size());
    EXPECT_LE(s.min, s.p50);
    EXPECT_LE(s.p50, s.tail);
    EXPECT_LE(s.tail, s.max);
  }
}

TEST(Summary, NearestRankPercentile) {
  const SlicedSummary s = one_slice(one_to(1000));
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(s.tail_label, "p99");
  EXPECT_EQ(s.tail_beyond, 10u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 1000);
  EXPECT_EQ(s.rate, 1000);
}

TEST(Summary, TailFallsBackWhenTooFewSamplesBeyond) {
  // 999 samples leave 9 beyond p99: the tail drops to p90 and says so.
  const SlicedSummary s = one_slice(one_to(999));
  EXPECT_EQ(s.tail_label, "p90");
  EXPECT_EQ(s.tail_percentile, 90);
  EXPECT_GE(s.tail_beyond, 10u);
  EXPECT_EQ(s.tail, 900);

  EXPECT_EQ(one_slice(one_to(60), 90).tail_label, "p75");  // 6 beyond p90
  EXPECT_EQ(one_slice(one_to(12)).tail_label, "p50");      // none leaves ten
}

TEST(Summary, TailNeverExceedsTheRequestedPercentile) {
  EXPECT_EQ(one_slice(std::vector<double>(100000, 1.0), 90).tail_label, "p90");
}

TEST(Summary, TailIsChosenFromTheSmallestSlice) {
  std::vector<std::vector<float>> slices(3, std::vector<float>(2000, 1.0f));
  slices[1].resize(500);  // 5 beyond p99 here
  const SlicedSummary s = summarize_slices(slices, 1.0, 99);
  EXPECT_EQ(s.tail_label, "p90");
  EXPECT_EQ(s.min_slice_count, 500u);
  EXPECT_EQ(s.count, 4500u);
}

TEST(Summary, BetterQuarterIgnoresOneBurst) {
  std::vector<std::vector<float>> slices(5);
  for (int k = 0; k < 5; ++k) {
    for (int i = 1; i <= 100; ++i) slices[k].push_back(static_cast<float>(i));
  }
  slices[3].assign(100, 1e6f);  // a slice where the host stalled every request
  const SlicedSummary s = summarize_slices(slices, 2.0, 90);
  EXPECT_EQ(s.rate, 50);  // 100 per 2 s slice
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail, 90);
  EXPECT_EQ(s.max, 1e6);
}

TEST(Summary, BetterQuarterKeepsTheFastLevelThroughSlowSpells) {
  // Fast slices serve 200 requests at 10 us, slow ones 100 at 20 us. With
  // two thirds of the run slow a median reports the slow level; the better
  // quarter stays on the fast one until three quarters are slow.
  for (const int slow_of_12 : {0, 3, 6, 8}) {
    std::vector<std::vector<float>> slices;
    for (int k = 0; k < 12; ++k) {
      const bool slow = k < slow_of_12;
      slices.emplace_back(slow ? 100 : 200, slow ? 20.0f : 10.0f);
    }
    const SlicedSummary s = summarize_slices(slices, 1.0, 90);
    EXPECT_EQ(s.rate, 200) << slow_of_12;
    EXPECT_EQ(s.p50, 10) << slow_of_12;
    EXPECT_EQ(s.tail, 10) << slow_of_12;
  }
}

TEST(Summary, BetterQuarterTakesTheSideThatIsBetter) {
  const std::vector<double> values{5, 1, 4, 2, 3, 8, 7, 6};
  EXPECT_EQ(better_quarter(values, true), 6);   // nearest-rank 75th
  EXPECT_EQ(better_quarter(values, false), 2);  // nearest-rank 25th
  EXPECT_EQ(better_quarter({9}, true), 9);
  EXPECT_EQ(better_quarter({9}, false), 9);
  EXPECT_EQ(better_quarter({}, true), 0);
}

TEST(Summary, EmptyAndMedian) {
  EXPECT_EQ(summarize_slices({}, 1.0).slices, 0u);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(SelfTime, NestedChildrenSubtractTheUnionTheyCover) {
  SpanLog log;
  const auto root = log.reserve();
  log.record("child", root, 1, at_ns(10), at_ns(30));
  log.record("child", root, 1, at_ns(20), at_ns(50));  // overlaps the first
  const auto leaf_parent = log.record("child", root, 1, at_ns(60), at_ns(70));
  log.record("grandchild", leaf_parent, 1, at_ns(61), at_ns(64));
  log.record_as(root, "root", 0, 1, at_ns(0), at_ns(100));

  const std::vector<double> self = self_times(log.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_NEAR(self[0], 20e-9, 1e-15);
  EXPECT_NEAR(self[2], 7e-9, 1e-15);  // 10 minus its 3 ns grandchild
  EXPECT_NEAR(self[3], 3e-9, 1e-15);
  // Root: 100 minus [10,50] and [60,70]; the grandchild is not subtracted.
  EXPECT_NEAR(self[4], 50e-9, 1e-15);
}

TEST(SelfTime, ReplayedChildSubtractsItsWholeDuration) {
  // Layer-at-a-time replay: the pool span runs after the wire span and
  // names it as parent; the wire's self time is wire minus pool.
  SpanLog log;
  const auto wire = log.record("svc.wire", 0, 7, at_ns(0), at_ns(100));
  const auto pool = log.record("svc.pool", wire, 7, at_ns(500), at_ns(560));
  log.record("core.session", pool, 7, at_ns(900), at_ns(940));
  const std::vector<double> self = self_times(log.spans());
  EXPECT_NEAR(self[0], 40e-9, 1e-15);
  EXPECT_NEAR(self[1], 20e-9, 1e-15);
  EXPECT_NEAR(self[2], 40e-9, 1e-15);
  // The layers' self times add up to the top of the stack.
  EXPECT_NEAR(self[0] + self[1] + self[2], 100e-9, 1e-15);
}

// A minimal strict JSON checker for the result line: objects, strings,
// numbers and true/false only, which is all the line may contain.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool document() {
    skip();
    if (!value()) return false;
    skip();
    return i_ == s_.size();
  }

 private:
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool literal(const char* word) {
    const std::string w = word;
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool string() {
    if (s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool object() {
    ++i_;
    skip();
    if (s_[i_] == '}') return ++i_, true;
    for (;;) {
      skip();
      if (!string()) return false;
      skip();
      if (s_[i_++] != ':') return false;
      skip();
      if (!value()) return false;
      skip();
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      return s_[i_++] == '}';
    }
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '{') return object();
    if (s_[i_] == '"') return string();
    if (s_[i_] == 't') return literal("true");
    if (s_[i_] == 'f') return literal("false");
    return number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Report, ResultLineParses) {
  Report report;
  report.attempted = 1234;
  report.failed = 0;
  report.add("latency_p50_us", 12.345678901234567, "us");
  report.add("setup_s", 0.8127, "s");
  report.add("weird \"name\"\\", 1e-12, "1/s");
  const std::string line = report.result_line();
  EXPECT_TRUE(JsonChecker(line).document()) << line;
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, ", 0),
            0u);
  EXPECT_NE(line.find("\"latency_p50_us\": {\"value\": 12.345678901234567, "
                      "\"unit\": \"us\"}"),
            std::string::npos);

  report.fail("a check failed");
  EXPECT_NE(report.result_line().find("\"correct\": false"), std::string::npos);
  EXPECT_TRUE(JsonChecker(report.result_line()).document());
}

TEST(Report, NumbersKeepEveryDigit) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(std::strtod(json_number(1.0 / 3.0).c_str(), nullptr), 1.0 / 3.0);
}

TEST(SpanLog, KeepsSpansInMemoryUntilWritten) {
  const std::string path = "perfbench_helpers_test_spans.jsonl";  // in the cwd
  std::remove(path.c_str());
  SpanLog log(3);
  const auto parent = log.reserve();
  for (int i = 0; i < 5; ++i) {
    log.record("svc.pool", parent, 42, at_ns(i * 10), at_ns(i * 10 + 5));
  }
  log.record_as(parent, "svc.wire", 0, 42, at_ns(0), at_ns(100));
  // Bounded: three kept, three dropped, and nothing written yet.
  EXPECT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_FALSE(std::ifstream(path).good());
  const Span& first = log.spans().front();
  EXPECT_STREQ(first.name, "svc.pool");
  EXPECT_EQ(first.parent, parent);
  EXPECT_EQ(first.request, 42u);
  EXPECT_EQ(first.end_ns - first.start_ns, 5);

  ASSERT_TRUE(log.write_jsonl(path));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).document()) << line;
    EXPECT_NE(line.find("\"request\":42"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(SpanLog, IdsStayUniqueAcrossMergedLogs) {
  SpanLog a(16, 0);
  SpanLog b(16, std::uint64_t{1} << 48);
  const auto ida = a.record("x", 0, 1, at_ns(0), at_ns(1));
  const auto idb = b.record("x", 0, 1, at_ns(0), at_ns(1));
  EXPECT_NE(ida, idb);
  a.append(b);
  EXPECT_EQ(a.spans().size(), 2u);
}

}  // namespace
}  // namespace perfbench
