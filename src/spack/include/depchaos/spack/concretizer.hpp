// Dependency concretization: abstract spec -> concrete DAG.
//
// Models original Spack's greedy concretizer: pick the best version that
// satisfies every accumulated constraint, fill variant defaults, resolve
// virtual packages (mpi, blas...) through providers, evaluate `when=`
// conditions against the node under construction, and stamp the result
// with a pessimistic dag_hash covering the full transitive closure — the
// hash that names store prefixes (§II-D).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "depchaos/spack/dsl.hpp"

namespace depchaos::spack {

class Repo {
 public:
  /// Register a parsed recipe. Later registrations replace earlier ones.
  void add(Recipe recipe);

  /// Parse a package.py and register it; returns the package name.
  std::string add_package_py(std::string_view source);

  const Recipe* find(const std::string& name) const;

  /// Recipes that `provides()` the given virtual name.
  std::vector<const Recipe*> providers_of(const std::string& virtual_name) const;

  bool is_virtual(const std::string& name) const {
    return find(name) == nullptr && !providers_of(name).empty();
  }

  std::size_t size() const { return recipes_.size(); }

 private:
  std::map<std::string, Recipe> recipes_;
};

struct ConcreteSpec {
  std::string name;
  std::string version;
  std::string compiler;
  std::string compiler_version;
  std::map<std::string, bool> variants;
  std::vector<std::string> deps;  // names of dependency nodes (unified DAG)

  /// "name@version%compiler+variant..." (no deps).
  std::string render() const;
};

struct ConcreteDag {
  std::string root;
  std::map<std::string, ConcreteSpec> nodes;

  const ConcreteSpec& at(const std::string& name) const;

  /// Pessimistic hash of `name`'s subtree (memoized externally if needed).
  std::string dag_hash(const std::string& name) const;

  /// Dependencies-first order (install order).
  std::vector<std::string> install_order() const;

  std::size_t size() const { return nodes.size(); }
};

struct ConcretizerOptions {
  std::string default_compiler = "gcc";
  std::string default_compiler_version = "12.1.0";
  /// Preferred provider for each virtual package ("mpi" -> "openmpi").
  std::map<std::string, std::string> virtual_defaults;
};

class Concretizer {
 public:
  explicit Concretizer(const Repo& repo, ConcretizerOptions options = {})
      : repo_(repo), options_(std::move(options)) {}

  /// Concretize an abstract spec. Throws ResolveError on unknown packages,
  /// unsatisfiable version constraints, contradictory variants, cycles, or
  /// triggered conflicts().
  ConcreteDag concretize(const Spec& abstract) const;
  ConcreteDag concretize(std::string_view spec_text) const {
    return concretize(Spec::parse(spec_text));
  }

  /// Concretize several roots against ONE shared node set (unified
  /// concretization, the basis of environments). `root_names` receives the
  /// resolved package name of each input spec in order. The returned DAG's
  /// `root` is the first root.
  ConcreteDag concretize_many(const std::vector<Spec>& roots,
                              std::vector<std::string>* root_names) const;

 private:
  struct Builder;

  const Repo& repo_;
  ConcretizerOptions options_;
};

/// Does `node` satisfy the (possibly anonymous) condition spec? Used for
/// when= clauses and conflicts().
bool satisfies(const ConcreteSpec& node, const Spec& condition);

}  // namespace depchaos::spack
