#include "depchaos/elf/object.hpp"

#include <algorithm>
#include <charconv>

#include "depchaos/support/strings.hpp"

namespace depchaos::elf {

namespace {
constexpr std::string_view kMagic = "SELF1";

char binding_code(SymbolBinding binding) {
  switch (binding) {
    case SymbolBinding::Local:
      return 'L';
    case SymbolBinding::Global:
      return 'G';
    case SymbolBinding::Weak:
      return 'W';
  }
  return '?';
}

// The `extra` size: decimal digits only, the whole value, in range.
std::uint64_t parse_extra(std::string_view value) {
  std::uint64_t size = 0;
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, size);
  if (ec != std::errc{} || ptr != end) {
    throw ElfError("bad extra size: '" + std::string(value) + "'");
  }
  return size;
}

SymbolBinding binding_from_code(char code) {
  switch (code) {
    case 'L':
      return SymbolBinding::Local;
    case 'G':
      return SymbolBinding::Global;
    case 'W':
      return SymbolBinding::Weak;
    default:
      throw ElfError(std::string("bad symbol binding code: ") + code);
  }
}
}  // namespace

std::string_view machine_name(Machine machine) {
  switch (machine) {
    case Machine::X86:
      return "x86";
    case Machine::PPC64LE:
      return "ppc64le";
    case Machine::X86_64:
      return "x86_64";
    case Machine::AArch64:
      return "aarch64";
  }
  return "unknown";
}

std::optional<Machine> machine_from_name(std::string_view name) {
  if (name == "x86") return Machine::X86;
  if (name == "ppc64le") return Machine::PPC64LE;
  if (name == "x86_64") return Machine::X86_64;
  if (name == "aarch64") return Machine::AArch64;
  return std::nullopt;
}

bool Object::defines(std::string_view name) const {
  return std::any_of(symbols.begin(), symbols.end(), [&](const Symbol& sym) {
    return sym.defined && sym.name == name &&
           sym.binding != SymbolBinding::Local;
  });
}

bool Object::defines_strong(std::string_view name) const {
  return std::any_of(symbols.begin(), symbols.end(), [&](const Symbol& sym) {
    return sym.defined && sym.name == name &&
           sym.binding == SymbolBinding::Global;
  });
}

std::vector<std::string> Object::undefined_symbols() const {
  std::vector<std::string> out;
  for (const auto& sym : symbols) {
    if (!sym.defined) out.push_back(sym.name);
  }
  return out;
}

std::string serialize(const Object& object) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "kind ";
  out += (object.kind == ObjectKind::Executable ? "exec" : "dyn");
  out += '\n';
  out += "machine ";
  out += machine_name(object.machine);
  out += '\n';
  if (!object.interp.empty()) {
    out += "interp " + object.interp + '\n';
  }
  if (!object.dyn.soname.empty()) {
    out += "soname " + object.dyn.soname + '\n';
  }
  for (const auto& entry : object.dyn.needed) {
    out += "needed " + entry + '\n';
  }
  for (const auto& dir : object.dyn.rpath) {
    out += "rpath " + dir + '\n';
  }
  for (const auto& dir : object.dyn.runpath) {
    out += "runpath " + dir + '\n';
  }
  for (const auto& sym : object.symbols) {
    if (sym.version.empty()) {
      out += "symbol ";
      out += binding_code(sym.binding);
      out += ' ';
      out += (sym.defined ? 'D' : 'U');
      out += ' ';
      out += sym.name;
    } else {
      // Versioned form: "vsymbol <B> <D|U> <version> <name>" — the version
      // tag cannot contain spaces; the name (last field) may.
      out += "vsymbol ";
      out += binding_code(sym.binding);
      out += ' ';
      out += (sym.defined ? 'D' : 'U');
      out += ' ';
      out += sym.version;
      out += ' ';
      out += sym.name;
    }
    out += '\n';
  }
  for (const auto& name : object.dlopen_names) {
    out += "dlopen " + name + '\n';
  }
  if (object.extra_size != 0) {
    out += "extra " + std::to_string(object.extra_size) + '\n';
  }
  out += "end\n";
  return out;
}

Object parse(std::string_view bytes) {
  if (!looks_like_self(bytes)) {
    throw ElfError("bad magic (not a SELF image)");
  }
  Object object;
  object.kind = ObjectKind::SharedObject;
  bool saw_end = false;
  // Lines are views into `bytes`, past the magic line looks_like_self
  // already checked.
  std::string_view rest = bytes.substr(kMagic.size() + 1);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = support::trim(rest.substr(0, eol));
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    if (line.empty()) continue;
    if (saw_end) {
      throw ElfError("trailing content after 'end'");
    }
    if (line == "end") {
      saw_end = true;
      continue;
    }
    const auto space = line.find(' ');
    if (space == std::string_view::npos) {
      throw ElfError("malformed line: '" + std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view value = support::trim(line.substr(space + 1));
    if (key == "kind") {
      if (value == "exec") {
        object.kind = ObjectKind::Executable;
      } else if (value == "dyn") {
        object.kind = ObjectKind::SharedObject;
      } else {
        throw ElfError("bad kind: '" + std::string(value) + "'");
      }
    } else if (key == "machine") {
      const auto machine = machine_from_name(value);
      if (!machine) throw ElfError("bad machine: '" + std::string(value) + "'");
      object.machine = *machine;
    } else if (key == "interp") {
      object.interp = std::string(value);
    } else if (key == "soname") {
      object.dyn.soname = std::string(value);
    } else if (key == "needed") {
      object.dyn.needed.emplace_back(value);
    } else if (key == "rpath") {
      object.dyn.rpath.emplace_back(value);
    } else if (key == "runpath") {
      object.dyn.runpath.emplace_back(value);
    } else if (key == "symbol") {
      // Format: "symbol <B> <D|U> <name>"
      if (value.size() < 5 || value[1] != ' ' || value[3] != ' ') {
        throw ElfError("malformed symbol line: '" + std::string(line) + "'");
      }
      Symbol sym;
      sym.binding = binding_from_code(value[0]);
      if (value[2] == 'D') {
        sym.defined = true;
      } else if (value[2] == 'U') {
        sym.defined = false;
      } else {
        throw ElfError("bad symbol def flag: '" + std::string(line) + "'");
      }
      sym.name = std::string(value.substr(4));
      object.symbols.push_back(std::move(sym));
    } else if (key == "vsymbol") {
      // Format: "vsymbol <B> <D|U> <version> <name>"
      if (value.size() < 7 || value[1] != ' ' || value[3] != ' ') {
        throw ElfError("malformed vsymbol line: '" + std::string(line) + "'");
      }
      Symbol sym;
      sym.binding = binding_from_code(value[0]);
      if (value[2] == 'D') {
        sym.defined = true;
      } else if (value[2] == 'U') {
        sym.defined = false;
      } else {
        throw ElfError("bad vsymbol def flag: '" + std::string(line) + "'");
      }
      const auto rest = value.substr(4);
      const auto space = rest.find(' ');
      if (space == std::string_view::npos || space == 0) {
        throw ElfError("vsymbol missing version: '" + std::string(line) + "'");
      }
      sym.version = std::string(rest.substr(0, space));
      sym.name = std::string(rest.substr(space + 1));
      if (sym.name.empty()) {
        throw ElfError("vsymbol missing name: '" + std::string(line) + "'");
      }
      object.symbols.push_back(std::move(sym));
    } else if (key == "dlopen") {
      object.dlopen_names.emplace_back(value);
    } else if (key == "extra") {
      object.extra_size = parse_extra(value);
    } else {
      throw ElfError("unknown field: '" + std::string(key) + "'");
    }
  }
  if (!saw_end) throw ElfError("truncated SELF image (missing 'end')");
  return object;
}

bool looks_like_self(std::string_view bytes) {
  return bytes.substr(0, kMagic.size()) == kMagic &&
         bytes.size() > kMagic.size() && bytes[kMagic.size()] == '\n';
}

Object make_executable(std::vector<std::string> needed,
                       std::vector<std::string> runpath,
                       std::vector<std::string> rpath) {
  Object object;
  object.kind = ObjectKind::Executable;
  object.interp = "/lib64/ld-linux-x86-64.so.2";
  object.dyn.needed = std::move(needed);
  object.dyn.runpath = std::move(runpath);
  object.dyn.rpath = std::move(rpath);
  return object;
}

Object make_library(std::string soname, std::vector<std::string> needed,
                    std::vector<std::string> runpath,
                    std::vector<std::string> rpath) {
  Object object;
  object.kind = ObjectKind::SharedObject;
  object.dyn.soname = std::move(soname);
  object.dyn.needed = std::move(needed);
  object.dyn.runpath = std::move(runpath);
  object.dyn.rpath = std::move(rpath);
  return object;
}

}  // namespace depchaos::elf
