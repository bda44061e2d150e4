#include "depchaos/shrinkwrap/libtree.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "depchaos/support/path_table.hpp"
#include "depchaos/support/strings.hpp"

namespace depchaos::shrinkwrap {

namespace {

struct TreeBuilder {
  const loader::LoadReport& report;
  const TreeOptions& options;
  // Requester PathId -> indices into report.requests, in request order:
  // the recursion walks ids of the world's own interner (paths already
  // interned by the load). Non-path requesters ("LD_PRELOAD", "") share
  // the kNone bucket, which the render walk never visits.
  support::PathTable& paths;
  std::unordered_map<support::PathId, std::vector<std::size_t>> children;
  std::string out;

  support::PathId key_of(const std::string& requester) {
    if (requester.empty() || requester.front() != '/') {
      return support::PathTable::kNone;
    }
    return paths.intern(requester);
  }

  void render(support::PathId requester, int depth) {
    if (options.max_depth >= 0 && depth > options.max_depth) return;
    const auto it = children.find(requester);
    if (it == children.end()) return;
    for (const std::size_t index : it->second) {
      const auto& request = report.requests[index];
      out.append(static_cast<std::size_t>(depth * options.indent), ' ');
      out += request.name;
      if (request.how == loader::HowFound::Cache &&
          request.cache_search_how != loader::HowFound::Cache) {
        // Listing 1 rendering: annotate with the PURE-search outcome. A
        // library that only works because an earlier subtree loaded it
        // shows as "not found" even though the program runs.
        if (request.cache_search_how == loader::HowFound::NotFound) {
          out += " not found (satisfied by earlier load)";
        } else {
          out += " [";
          out += loader::how_found_name(request.cache_search_how);
          out += "]";
        }
      } else {
        out += " [";
        out += loader::how_found_name(request.how);
        out += "]";
      }
      if (options.show_paths && !request.path.empty()) {
        out += " => " + request.path;
      }
      out += '\n';
      // Recurse only below the edge that actually loaded the object; cache
      // hits terminate (their subtree was rendered where it loaded).
      if (request.how != loader::HowFound::Cache &&
          request.how != loader::HowFound::NotFound) {
        render(key_of(request.path), depth + 1);
      }
    }
  }
};

}  // namespace

std::string render_tree(const loader::LoadReport& report,
                        const TreeOptions& options,
                        support::PathTable& paths) {
  if (report.load_order.empty()) return "(empty load)\n";
  TreeBuilder builder{report, options, paths, {}, {}};
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    builder.children[builder.key_of(report.requests[i].requested_by)]
        .push_back(i);
  }
  const auto& root = report.load_order.front();
  builder.out = root.path + "\n";
  builder.render(builder.key_of(root.path), 1);
  return builder.out;
}

std::string render_tree(const loader::LoadReport& report,
                        const TreeOptions& options) {
  support::PathTable local;
  return render_tree(report, options, local);
}

std::string libtree(vfs::FileSystem& fs, loader::Loader& loader,
                    const std::string& exe_path,
                    const loader::Environment& env,
                    const TreeOptions& options) {
  const loader::LoadReport report = loader.load(exe_path, env);
  return render_tree(report, options, fs.paths());
}

std::string tree_diff(const std::string& before, const std::string& after) {
  const auto a = support::split(before, '\n');
  const auto b = support::split(after, '\n');
  // Classic LCS table; rendered trees are small (one line per request edge).
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::size_t>> lcs(n + 1,
                                            std::vector<std::size_t>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::string out;
  std::size_t i = 0, j = 0;
  const auto emit = [&out](const char* prefix, const std::string& line) {
    if (line.empty()) return;  // trailing newline artifact
    out += prefix;
    out += line;
    out += '\n';
  };
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      emit("  ", a[i]);
      ++i, ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      emit("- ", a[i++]);
    } else {
      emit("+ ", b[j++]);
    }
  }
  while (i < n) emit("- ", a[i++]);
  while (j < m) emit("+ ", b[j++]);
  return out;
}

}  // namespace depchaos::shrinkwrap
