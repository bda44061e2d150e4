// Simulated ELF ("SELF") object model.
//
// The paper's tooling (Shrinkwrap, libtree, patchelf) only ever touches a
// narrow slice of a real ELF file: the dynamic section (DT_NEEDED, DT_RPATH,
// DT_RUNPATH, DT_SONAME), the interpreter, the machine/ABI tag used for the
// "silently skip wrong-architecture candidates" rule (§IV), and the dynamic
// symbol table used for interposition and duplicate-strong-symbol link
// failures (§V-B). The SELF format captures exactly that slice with a
// deterministic, human-readable serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "depchaos/support/error.hpp"

namespace depchaos::elf {

/// Subset of e_machine values that show up on multi-ABI HPC systems.
enum class Machine : std::uint16_t {
  X86 = 3,
  PPC64LE = 21,
  X86_64 = 62,
  AArch64 = 183,
};

std::string_view machine_name(Machine machine);
std::optional<Machine> machine_from_name(std::string_view name);

enum class ObjectKind : std::uint8_t { Executable, SharedObject };

enum class SymbolBinding : std::uint8_t { Local, Global, Weak };

/// One dynamic-symbol-table entry. `defined` distinguishes exported
/// definitions from undefined references that the loader must bind.
/// `version` models ELF symbol versioning (GLIBC_2.17-style tags): a
/// versioned reference binds only to a matching versioned definition (or to
/// an unversioned one, glibc's compatibility fallback). "" = unversioned.
struct Symbol {
  Symbol() = default;
  Symbol(std::string name_in, SymbolBinding binding_in, bool defined_in,
         std::string version_in = {})
      : name(std::move(name_in)),
        binding(binding_in),
        defined(defined_in),
        version(std::move(version_in)) {}

  std::string name;
  SymbolBinding binding = SymbolBinding::Global;
  bool defined = true;
  std::string version;

  /// "name@VERSION" or plain name.
  std::string display() const {
    return version.empty() ? name : name + "@" + version;
  }

  friend bool operator==(const Symbol&, const Symbol&) = default;
};

/// The dynamic section slice the loader and Shrinkwrap care about.
struct DynamicInfo {
  std::string soname;                // DT_SONAME ("" = none)
  std::vector<std::string> needed;   // DT_NEEDED entries, in link order
  std::vector<std::string> rpath;    // DT_RPATH search dirs
  std::vector<std::string> runpath;  // DT_RUNPATH search dirs

  friend bool operator==(const DynamicInfo&, const DynamicInfo&) = default;
};

struct Object {
  ObjectKind kind = ObjectKind::SharedObject;
  Machine machine = Machine::X86_64;
  std::string interp;  // PT_INTERP, executables only
  DynamicInfo dyn;
  std::vector<Symbol> symbols;
  /// Library names this object dlopen()s at runtime — call sites recorded
  /// the way a dynamic trace (or Shrinkwrap's future-work dlopen audit, §IV)
  /// would see them. The loader does NOT resolve these during normal
  /// startup; shrinkwrap's audit mode lifts them to DT_NEEDED.
  std::vector<std::string> dlopen_names;
  /// Extra on-disk bytes beyond the serialized metadata, used to model large
  /// binaries (e.g. the 213 MiB executable wrapped in §V) without storing
  /// them.
  std::uint64_t extra_size = 0;

  friend bool operator==(const Object&, const Object&) = default;

  /// True if the object exports `name` with the given binding or stronger.
  bool defines(std::string_view name) const;
  bool defines_strong(std::string_view name) const;

  /// Undefined references this object expects the loader to bind.
  std::vector<std::string> undefined_symbols() const;
};

/// Serialize to the SELF text format (stable field order, roundtrips
/// exactly).
std::string serialize(const Object& object);

/// Parse a SELF image. Throws ElfError on malformed input.
Object parse(std::string_view bytes);

/// Cheap magic check without a full parse.
bool looks_like_self(std::string_view bytes);

/// Convenience builders used throughout the workload generators.
Object make_executable(std::vector<std::string> needed,
                       std::vector<std::string> runpath = {},
                       std::vector<std::string> rpath = {});
Object make_library(std::string soname, std::vector<std::string> needed = {},
                    std::vector<std::string> runpath = {},
                    std::vector<std::string> rpath = {});

}  // namespace depchaos::elf
