#include "common.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace perfbench {

svc::PoolConfig pool_config() {
  svc::PoolConfig config;
  config.threads = kPoolWorkers;
  return config;
}

svc::WireKind wire_kind(Verb verb) {
  switch (verb) {
    case Verb::Load:
      return svc::WireKind::Load;
    case Verb::Shrinkwrap:
      return svc::WireKind::Shrinkwrap;
    case Verb::Reset:
      return svc::WireKind::Reset;
  }
  return svc::WireKind::Load;
}

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::Load:
      return "load";
    case Verb::Shrinkwrap:
      return "shrinkwrap";
    case Verb::Reset:
      return "reset";
  }
  return "?";
}

void Window::fail(std::string message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

void Window::record(double done_s, double latency_us) {
  const std::size_t slice =
      slice_s > 0 ? static_cast<std::size_t>(done_s / slice_s) : 0;
  if (slices.size() <= slice) slices.resize(slice + 1);
  slices[slice].push_back(static_cast<float>(latency_us));
  ++completed;
}

void Window::merge(Window&& other) {
  if (slices.size() < other.slices.size()) slices.resize(other.slices.size());
  for (std::size_t k = 0; k < other.slices.size(); ++k) {
    slices[k].insert(slices[k].end(), other.slices[k].begin(), other.slices[k].end());
  }
  completed += other.completed;
  attempted += other.attempted;
  failed += other.failed;
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
  for (auto& message : other.failures) {
    if (failures.size() < 8) failures.push_back(std::move(message));
  }
}

SlicedSummary Window::summary(double want_tail) const {
  const std::size_t full =
      slice_s > 0 ? static_cast<std::size_t>(elapsed_s / slice_s) : 0;
  if (full == 0) {
    // One slice: the whole window.
    std::vector<std::vector<float>> all(1);
    for (const auto& slice : slices) all[0].insert(all[0].end(), slice.begin(), slice.end());
    return summarize_slices(all, elapsed_s, want_tail);
  }
  std::vector<std::vector<float>> kept(slices.begin(),
                                       slices.begin() + std::min(full, slices.size()));
  kept.resize(full);
  return summarize_slices(kept, slice_s, want_tail);
}

std::vector<std::size_t> seeded_sample(support::Rng& rng, std::size_t n,
                                       std::size_t count) {
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.below(n - i)]);
  }
  pool.resize(count);
  return pool;
}

std::vector<svc::ClientId> seeded_clients(support::Rng& rng, std::size_t count) {
  std::vector<svc::ClientId> ids;
  std::unordered_set<svc::ClientId> seen;
  while (ids.size() < count) {
    const svc::ClientId id = rng.next();
    if (id != 0 && seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

std::string debian_exe(std::size_t index) {
  return "/usr/bin/bin" + std::to_string(index);
}

std::optional<pid_t> new_thread(const std::vector<pid_t>& before,
                                const std::vector<pid_t>& after) {
  std::vector<pid_t> added;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  if (added.size() != 1) return std::nullopt;
  return added.front();
}

}  // namespace perfbench
