#include "depchaos/pkg/deb.hpp"

#include <atomic>

#include "depchaos/support/error.hpp"
#include "depchaos/support/strings.hpp"

namespace depchaos::pkg::deb {

using support::split;
using support::trim;

namespace {

DepSpec parse_single_dep(std::string_view text) {
  DepSpec spec;
  const auto paren = text.find('(');
  if (paren == std::string_view::npos) {
    spec.package = std::string(trim(text));
    spec.kind = DepKind::Unversioned;
    if (spec.package.empty()) {
      throw ParseError("empty dependency element");
    }
    return spec;
  }
  spec.package = std::string(trim(text.substr(0, paren)));
  const auto close = text.find(')', paren);
  if (close == std::string_view::npos || spec.package.empty()) {
    throw ParseError("malformed dependency: '" + std::string(text) + "'");
  }
  const std::string_view constraint =
      trim(text.substr(paren + 1, close - paren - 1));
  // Relation is the leading run of [<>=] characters.
  std::size_t rel_end = 0;
  while (rel_end < constraint.size() &&
         (constraint[rel_end] == '<' || constraint[rel_end] == '>' ||
          constraint[rel_end] == '=')) {
    ++rel_end;
  }
  spec.relation = std::string(constraint.substr(0, rel_end));
  spec.version = std::string(trim(constraint.substr(rel_end)));
  if (spec.relation.empty() || spec.version.empty()) {
    throw ParseError("malformed constraint: '" + std::string(text) + "'");
  }
  spec.kind = (spec.relation == "=") ? DepKind::Exact : DepKind::VersionRange;
  return spec;
}

}  // namespace

std::vector<DepSpec> parse_depends(std::string_view value) {
  std::vector<DepSpec> out;
  for (const auto& element : split(value, ',')) {
    const auto trimmed = trim(element);
    if (trimmed.empty()) continue;
    // Alternatives: "a | b | c" — each classified independently.
    for (const auto& alt : split(trimmed, '|')) {
      const auto alt_trimmed = trim(alt);
      if (alt_trimmed.empty()) continue;
      out.push_back(parse_single_dep(alt_trimmed));
    }
  }
  return out;
}

std::vector<Package> parse_control(std::string_view text) {
  std::vector<Package> out;
  Package current;
  bool in_paragraph = false;
  std::string last_field;

  auto flush = [&] {
    if (in_paragraph) {
      if (current.name.empty()) {
        throw ParseError("control paragraph without Package field");
      }
      out.push_back(std::move(current));
      current = Package{};
      in_paragraph = false;
    }
  };

  for (const auto& raw_line : split(text, '\n')) {
    if (trim(raw_line).empty()) {
      flush();
      continue;
    }
    if (raw_line.front() == ' ' || raw_line.front() == '\t') {
      continue;  // continuation line; field values we care about fit one line
    }
    const auto colon = raw_line.find(':');
    if (colon == std::string::npos) {
      throw ParseError("malformed control line: '" + raw_line + "'");
    }
    in_paragraph = true;
    const std::string field = std::string(trim(raw_line.substr(0, colon)));
    const std::string value = std::string(trim(raw_line.substr(colon + 1)));
    last_field = field;
    if (field == "Package") {
      current.name = value;
    } else if (field == "Version") {
      current.version = value;
    } else if (field == "Section") {
      current.section = value;
    } else if (field == "Depends" || field == "Pre-Depends") {
      auto deps = parse_depends(value);
      current.depends.insert(current.depends.end(),
                             std::make_move_iterator(deps.begin()),
                             std::make_move_iterator(deps.end()));
    }
    // Other fields (Maintainer, Description, ...) are tolerated and skipped.
  }
  flush();
  return out;
}

std::string to_control(const std::vector<Package>& packages) {
  std::string out;
  for (const auto& pkg : packages) {
    out += "Package: " + pkg.name + "\n";
    if (!pkg.version.empty()) out += "Version: " + pkg.version + "\n";
    if (!pkg.section.empty()) out += "Section: " + pkg.section + "\n";
    if (!pkg.depends.empty()) {
      out += "Depends: ";
      for (std::size_t i = 0; i < pkg.depends.size(); ++i) {
        const auto& dep = pkg.depends[i];
        if (i != 0) out += ", ";
        out += dep.package;
        if (dep.kind != DepKind::Unversioned) {
          out += " (" + dep.relation + " " + dep.version + ")";
        }
      }
      out += "\n";
    }
    out += "\n";
  }
  return out;
}

DepTypeCounts& DepTypeCounts::operator+=(const DepTypeCounts& other) {
  unversioned += other.unversioned;
  range += other.range;
  exact += other.exact;
  return *this;
}

DepTypeCounts classify(const std::vector<Package>& packages) {
  DepTypeCounts counts;
  for (const auto& pkg : packages) {
    for (const auto& dep : pkg.depends) {
      switch (dep.kind) {
        case DepKind::Unversioned:
          ++counts.unversioned;
          break;
        case DepKind::VersionRange:
          ++counts.range;
          break;
        case DepKind::Exact:
          ++counts.exact;
          break;
      }
    }
  }
  return counts;
}

DepTypeCounts classify_parallel(support::ThreadPool& pool,
                                const std::vector<Package>& packages) {
  std::atomic<std::uint64_t> unversioned{0}, range{0}, exact{0};
  support::parallel_for(
      pool, packages.size(),
      [&](std::size_t i) {
        DepTypeCounts local;
        for (const auto& dep : packages[i].depends) {
          switch (dep.kind) {
            case DepKind::Unversioned:
              ++local.unversioned;
              break;
            case DepKind::VersionRange:
              ++local.range;
              break;
            case DepKind::Exact:
              ++local.exact;
              break;
          }
        }
        unversioned.fetch_add(local.unversioned, std::memory_order_relaxed);
        range.fetch_add(local.range, std::memory_order_relaxed);
        exact.fetch_add(local.exact, std::memory_order_relaxed);
      },
      /*min_chunk=*/1024);
  DepTypeCounts counts;
  counts.unversioned = unversioned.load();
  counts.range = range.load();
  counts.exact = exact.load();
  return counts;
}

}  // namespace depchaos::pkg::deb
