#include "depchaos/spack/concretizer.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "depchaos/support/error.hpp"
#include "depchaos/support/sha256.hpp"

namespace depchaos::spack {

void Repo::add(Recipe recipe) {
  recipes_[recipe.name] = std::move(recipe);
}

std::string Repo::add_package_py(std::string_view source) {
  Recipe recipe = parse_package_py(source);
  std::string name = recipe.name;
  add(std::move(recipe));
  return name;
}

const Recipe* Repo::find(const std::string& name) const {
  const auto it = recipes_.find(name);
  return it == recipes_.end() ? nullptr : &it->second;
}

std::vector<const Recipe*> Repo::providers_of(
    const std::string& virtual_name) const {
  std::vector<const Recipe*> out;
  for (const auto& [name, recipe] : recipes_) {
    if (std::find(recipe.provides.begin(), recipe.provides.end(),
                  virtual_name) != recipe.provides.end()) {
      out.push_back(&recipe);
    }
  }
  return out;
}

std::string ConcreteSpec::render() const {
  std::string out = name + "@" + version;
  if (!compiler.empty()) {
    out += "%" + compiler;
    if (!compiler_version.empty()) out += "@" + compiler_version;
  }
  for (const auto& [variant, value] : variants) {
    out += (value ? "+" : "~") + variant;
  }
  return out;
}

const ConcreteSpec& ConcreteDag::at(const std::string& name) const {
  const auto it = nodes.find(name);
  if (it == nodes.end()) {
    throw ResolveError("no such node in concrete DAG: " + name);
  }
  return it->second;
}

std::string ConcreteDag::dag_hash(const std::string& name) const {
  const ConcreteSpec& node = at(name);
  support::Sha256 hasher;
  hasher.update(node.render());
  std::vector<std::string> dep_hashes;
  for (const auto& dep : node.deps) {
    dep_hashes.push_back(dag_hash(dep));
  }
  std::sort(dep_hashes.begin(), dep_hashes.end());
  for (const auto& hash : dep_hashes) hasher.update(hash);
  auto hex = hasher.hex_digest();
  hex.resize(16);
  return hex;
}

std::vector<std::string> ConcreteDag::install_order() const {
  // Post-order DFS from the root: dependencies first.
  std::vector<std::string> order;
  std::set<std::string> visited;
  std::vector<std::pair<std::string, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [name, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      order.push_back(name);
      continue;
    }
    if (!visited.insert(name).second) continue;
    stack.emplace_back(name, true);
    const auto& node = at(name);
    for (const auto& dep : node.deps) {
      if (!visited.contains(dep)) stack.emplace_back(dep, false);
    }
  }
  return order;
}

bool satisfies(const ConcreteSpec& node, const Spec& condition) {
  if (!condition.name.empty() && condition.name != node.name) return false;
  if (!condition.version.is_any() &&
      !condition.version.satisfied_by(Version(node.version))) {
    return false;
  }
  if (!condition.compiler.empty()) {
    if (condition.compiler != node.compiler) return false;
    if (!condition.compiler_version.is_any() &&
        !condition.compiler_version.satisfied_by(
            Version(node.compiler_version))) {
      return false;
    }
  }
  for (const auto& [variant, wanted] : condition.variants) {
    const auto it = node.variants.find(variant);
    if (it == node.variants.end() || it->second != wanted) return false;
  }
  return true;
}

struct Concretizer::Builder {
  const Repo& repo;
  const ConcretizerOptions& options;
  ConcreteDag dag;
  // Accumulated constraints per (resolved) package name.
  std::map<std::string, std::vector<Spec>> constraints;
  std::set<std::string> in_progress;  // cycle detection

  /// Resolve a possibly-virtual name to a concrete recipe.
  const Recipe& resolve_recipe(const std::string& name) {
    if (const Recipe* recipe = repo.find(name)) return *recipe;
    const auto providers = repo.providers_of(name);
    if (providers.empty()) {
      throw ResolveError("unknown package: " + name);
    }
    if (const auto it = options.virtual_defaults.find(name);
        it != options.virtual_defaults.end()) {
      for (const Recipe* provider : providers) {
        if (provider->name == it->second) return *provider;
      }
      throw ResolveError("preferred provider " + it->second + " for virtual " +
                         name + " is not in the repo");
    }
    return *providers.front();
  }

  void add_constraint(const std::string& name, const Spec& spec) {
    constraints[name].push_back(spec);
  }

  std::string concretize_node(const std::string& requested_name) {
    const Recipe& recipe = resolve_recipe(requested_name);
    const std::string& name = recipe.name;
    if (requested_name != name) {
      // Virtual resolution: migrate constraints keyed by the virtual name.
      for (const auto& spec : constraints[requested_name]) {
        constraints[name].push_back(spec);
      }
    }
    // Cycle check must precede the completed-node dedup: a node that is
    // still being built has a placeholder in `dag.nodes`.
    if (in_progress.contains(name)) {
      throw ResolveError("dependency cycle through " + name);
    }
    if (const auto it = dag.nodes.find(name); it != dag.nodes.end()) {
      // Already concretized: every constraint must still hold (strict
      // unification — original Spack re-runs; we verify).
      for (const auto& spec : constraints[name]) {
        Spec anonymous = spec;
        anonymous.name.clear();
        if (!satisfies(it->second, anonymous)) {
          throw ResolveError("conflicting constraints on " + name + ": " +
                             spec.str() + " vs " + it->second.render());
        }
      }
      return name;
    }
    in_progress.insert(name);

    ConcreteSpec node;
    node.name = name;

    // Version: best version satisfying ALL constraints.
    {
      const VersionDecl* chosen = nullptr;
      Version best;
      bool best_preferred = false;
      for (const auto& decl : recipe.versions) {
        if (decl.deprecated) continue;
        const Version candidate(decl.version);
        bool ok = true;
        for (const auto& spec : constraints[name]) {
          if (!spec.version.satisfied_by(candidate)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        const bool better = chosen == nullptr ||
                            (decl.preferred && !best_preferred) ||
                            (decl.preferred == best_preferred && best < candidate);
        if (better) {
          chosen = &decl;
          best = candidate;
          best_preferred = decl.preferred;
        }
      }
      if (chosen == nullptr) {
        std::string wanted;
        for (const auto& spec : constraints[name]) {
          if (!spec.version.is_any()) wanted += " @" + spec.version.str();
        }
        throw ResolveError("no version of " + name +
                           " satisfies constraints:" + wanted);
      }
      node.version = chosen->version;
    }

    // Compiler: first constrained value wins, else the default.
    node.compiler = options.default_compiler;
    node.compiler_version = options.default_compiler_version;
    for (const auto& spec : constraints[name]) {
      if (!spec.compiler.empty()) {
        node.compiler = spec.compiler;
        if (!spec.compiler_version.is_any()) {
          node.compiler_version = spec.compiler_version.str();
        }
      }
    }

    // Variants: declared defaults, overridden by constraints; contradictory
    // requests are an error.
    for (const auto& variant : recipe.variants) {
      node.variants[variant.name] = variant.default_value;
    }
    std::map<std::string, bool> forced;
    for (const auto& spec : constraints[name]) {
      for (const auto& [variant, value] : spec.variants) {
        if (const auto it = forced.find(variant);
            it != forced.end() && it->second != value) {
          throw ResolveError("contradictory variant " + variant + " on " +
                             name);
        }
        forced[variant] = value;
        node.variants[variant] = value;
      }
    }

    // Dependencies whose when= condition holds.
    std::vector<std::pair<std::string, Spec>> wanted_deps;
    for (const auto& dep : recipe.dependencies) {
      if (dep.has_when && !satisfies(node, dep.when)) continue;
      wanted_deps.emplace_back(dep.spec.name, dep.spec);
    }
    // Register constraints before recursing so siblings see them.
    for (const auto& [dep_name, dep_spec] : wanted_deps) {
      add_constraint(dep_name, dep_spec);
      for (const auto& nested : dep_spec.dep_constraints) {
        add_constraint(nested.name, nested);
      }
    }
    dag.nodes.emplace(name, node);  // placeholder for cycle-free recursion
    for (const auto& [dep_name, dep_spec] : wanted_deps) {
      const std::string resolved = concretize_node(dep_name);
      auto& self = dag.nodes.at(name);
      if (std::find(self.deps.begin(), self.deps.end(), resolved) ==
          self.deps.end()) {
        self.deps.push_back(resolved);
      }
    }

    // Conflicts: "conflicts(X, when=Y)" — error when both hold.
    const ConcreteSpec& final_node = dag.nodes.at(name);
    for (const auto& conflict : recipe.conflicts) {
      if (conflict.has_when && !satisfies(final_node, conflict.when)) continue;
      Spec anonymous = conflict.conflict;
      const bool name_matches =
          anonymous.name.empty() || anonymous.name == name;
      anonymous.name.clear();
      if (name_matches && satisfies(final_node, anonymous)) {
        throw ResolveError("conflict triggered on " + name + ": " +
                           conflict.conflict.str());
      }
    }

    in_progress.erase(name);
    return name;
  }
};

ConcreteDag Concretizer::concretize_many(
    const std::vector<Spec>& roots, std::vector<std::string>* root_names) const {
  if (roots.empty()) {
    throw ResolveError("cannot concretize an empty root list");
  }
  Builder builder{repo_, options_, {}, {}, {}};
  // Register every root's constraints first so unification sees them all.
  for (const auto& abstract : roots) {
    if (abstract.name.empty()) {
      throw ResolveError("cannot concretize an anonymous spec");
    }
    builder.add_constraint(abstract.name, abstract);
    for (const auto& dep : abstract.dep_constraints) {
      builder.add_constraint(dep.name, dep);
    }
  }
  // Unification pre-pass: pull in every UNCONDITIONAL depends_on constraint
  // reachable from any root, so a version pin in one root's subtree (e.g.
  // viz -> hdf5@1.10) constrains the shared node before another root's
  // subtree concretizes it. Conditional (when=) declarations cannot be
  // evaluated yet and stay late-registered; genuine contradictions still
  // surface as ResolveErrors during unification.
  {
    std::set<std::string> visited;
    std::deque<std::string> queue;
    for (const auto& abstract : roots) queue.push_back(abstract.name);
    while (!queue.empty()) {
      const std::string name = std::move(queue.front());
      queue.pop_front();
      if (!visited.insert(name).second) continue;
      const Recipe& recipe = builder.resolve_recipe(name);
      for (const auto& dep : recipe.dependencies) {
        if (dep.has_when) continue;
        builder.add_constraint(dep.spec.name, dep.spec);
        queue.push_back(dep.spec.name);
      }
    }
  }
  std::vector<std::string> resolved_roots;
  for (const auto& abstract : roots) {
    resolved_roots.push_back(builder.concretize_node(abstract.name));
  }
  builder.dag.root = resolved_roots.front();

  // '^' constraints name packages that must appear in the DAG; pull in any
  // that were not reached through declared dependencies (Spack adds them as
  // direct deps of their root).
  for (std::size_t i = 0; i < roots.size(); ++i) {
    for (const auto& dep : roots[i].dep_constraints) {
      const Recipe& recipe = builder.resolve_recipe(dep.name);
      if (!builder.dag.nodes.contains(recipe.name)) {
        const std::string resolved = builder.concretize_node(dep.name);
        auto& root_node = builder.dag.nodes.at(resolved_roots[i]);
        if (std::find(root_node.deps.begin(), root_node.deps.end(),
                      resolved) == root_node.deps.end()) {
          root_node.deps.push_back(resolved);
        }
      }
    }
  }
  if (root_names != nullptr) *root_names = std::move(resolved_roots);
  return std::move(builder.dag);
}

ConcreteDag Concretizer::concretize(const Spec& abstract) const {
  return concretize_many({abstract}, nullptr);
}

}  // namespace depchaos::spack
