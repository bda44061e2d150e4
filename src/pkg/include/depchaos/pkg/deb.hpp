// Debian package metadata: control-paragraph parser and the dependency-spec
// taxonomy behind Fig 1 ("Debian package dependencies by type").
//
// A Depends field looks like:
//   Depends: libc6 (>= 2.14), libfoo (= 1.2-3), bar, baz | qux (<< 2.0)
// Each comma-separated element is a dependency; '|' separates alternatives,
// each of which is classified independently. A dependency is:
//   Unversioned  — no parenthesised constraint ("bar")
//   VersionRange — a relational constraint (>=, <=, <<, >>)
//   Exact        — an equality constraint (= 1.2-3)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "depchaos/support/thread_pool.hpp"

namespace depchaos::pkg::deb {

enum class DepKind : std::uint8_t { Unversioned, VersionRange, Exact };

struct DepSpec {
  std::string package;
  DepKind kind = DepKind::Unversioned;
  std::string relation;  // ">=", "<<", "=", ... ("" when unversioned)
  std::string version;   // "" when unversioned

  friend bool operator==(const DepSpec&, const DepSpec&) = default;
};

struct Package {
  std::string name;
  std::string version;
  std::string section;
  std::vector<DepSpec> depends;

  friend bool operator==(const Package&, const Package&) = default;
};

/// Parse one "Depends:" value (without the field name).
std::vector<DepSpec> parse_depends(std::string_view value);

/// Parse a control file: blank-line-separated paragraphs with
/// "Field: value" lines (continuation lines start with a space).
std::vector<Package> parse_control(std::string_view text);

/// Render packages back to control format (roundtrips through
/// parse_control).
std::string to_control(const std::vector<Package>& packages);

/// Fig 1's three bars.
struct DepTypeCounts {
  std::uint64_t unversioned = 0;
  std::uint64_t range = 0;
  std::uint64_t exact = 0;

  std::uint64_t total() const { return unversioned + range + exact; }
  DepTypeCounts& operator+=(const DepTypeCounts& other);
};

/// Classify every dependency of every package.
DepTypeCounts classify(const std::vector<Package>& packages);

/// Parallel variant for the 209k-package corpus.
DepTypeCounts classify_parallel(support::ThreadPool& pool,
                                const std::vector<Package>& packages);

}  // namespace depchaos::pkg::deb
