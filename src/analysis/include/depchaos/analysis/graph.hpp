// Directed-graph utilities for dependency analysis.
//
// Used for the Nix derivation "snarl" of Fig 2, Spack concrete DAGs, and
// the Debian dependency analyses. Nodes are deduplicated by label; labels
// are the package/derivation/store-path names.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace depchaos::analysis {

class Digraph {
 public:
  using NodeId = std::size_t;

  /// Insert (or find) a node by label; returns its id.
  NodeId add_node(std::string label);

  /// Add edge u -> v ("u depends on v"). Duplicate edges are kept out.
  void add_edge(NodeId u, NodeId v);
  void add_edge(std::string_view u_label, std::string_view v_label);

  std::size_t node_count() const { return labels_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  const std::string& label(NodeId id) const { return labels_[id]; }
  std::optional<NodeId> find(std::string_view label) const;

  std::size_t in_degree(NodeId id) const { return in_degree_[id]; }

  /// All nodes reachable from `root`, including `root` itself (the
  /// transitive closure of a package's dependencies).
  std::vector<NodeId> reachable_from(NodeId root) const;

  /// Topological order (dependencies after dependents); nullopt on cycle.
  std::optional<std::vector<NodeId>> topo_order() const;

  bool has_cycle() const { return !topo_order().has_value(); }

  /// Edge density relative to a complete digraph (Fig 2 "snarl" metric).
  double density() const;

  /// Graphviz rendering (Fig 2). Deterministic output ordering.
  std::string to_dot(std::string_view graph_name = "g") const;

 private:
  std::vector<std::string> labels_;
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::size_t> in_degree_;
  std::size_t edge_count_ = 0;
};

}  // namespace depchaos::analysis
