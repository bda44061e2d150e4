#include <gtest/gtest.h>

#include "depchaos/elf/object.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/vfs/vfs.hpp"

namespace depchaos::elf {
namespace {

Object sample_object() {
  Object object;
  object.kind = ObjectKind::Executable;
  object.machine = Machine::X86_64;
  object.interp = "/lib64/ld-linux-x86-64.so.2";
  object.dyn.soname = "libsample.so.1";
  object.dyn.needed = {"liba.so", "libb.so.2", "/abs/libc.so"};
  object.dyn.rpath = {"/opt/x/lib"};
  object.dyn.runpath = {"$ORIGIN/../lib", "/usr/lib"};
  object.symbols = {
      {"main", SymbolBinding::Global, true},
      {"helper", SymbolBinding::Weak, true},
      {"printf", SymbolBinding::Global, false},
      {"_internal", SymbolBinding::Local, true},
  };
  object.extra_size = 4096;
  return object;
}

TEST(SelfFormat, RoundTripsExactly) {
  const Object original = sample_object();
  const Object reparsed = parse(serialize(original));
  EXPECT_EQ(original, reparsed);
}

TEST(SelfFormat, RoundTripMinimalLibrary) {
  const Object lib = make_library("libm.so");
  EXPECT_EQ(parse(serialize(lib)), lib);
}

TEST(SelfFormat, MagicDetection) {
  EXPECT_TRUE(looks_like_self(serialize(sample_object())));
  EXPECT_FALSE(looks_like_self("#!/bin/sh\necho hi\n"));
  EXPECT_FALSE(looks_like_self(""));
  EXPECT_FALSE(looks_like_self("SELF1"));  // no newline/body
}

TEST(SelfFormat, ParseRejectsBadMagic) {
  EXPECT_THROW(parse("ELF..."), ElfError);
}

TEST(SelfFormat, ParseRejectsTruncated) {
  std::string image = serialize(sample_object());
  image = image.substr(0, image.size() - 5);  // chop "end\n"
  EXPECT_THROW(parse(image), ElfError);
}

TEST(SelfFormat, ParseRejectsUnknownField) {
  EXPECT_THROW(parse("SELF1\nbogus value\nend\n"), ElfError);
}

TEST(SelfFormat, ParseRejectsBadMachine) {
  EXPECT_THROW(parse("SELF1\nmachine vax\nend\n"), ElfError);
}

TEST(SelfFormat, ParseRejectsTrailingContent) {
  EXPECT_THROW(parse("SELF1\nkind dyn\nend\nkind exec\n"), ElfError);
}

TEST(SelfFormat, ParseRejectsBadExtra) {
  for (const char* value : {"-1", "12abc", "abc", "123456789012345678901234"}) {
    EXPECT_THROW(parse(std::string("SELF1\nextra ") + value + "\nend\n"),
                 ElfError)
        << value;
  }
  EXPECT_EQ(parse("SELF1\nextra 4096\nend\n").extra_size, 4096u);
}

TEST(SelfFormat, SymbolLineRoundTrip) {
  Object object = make_library("libs.so");
  object.symbols = {{"sym with space", SymbolBinding::Global, true}};
  EXPECT_EQ(parse(serialize(object)).symbols[0].name, "sym with space");
}

TEST(Machine, NamesRoundTrip) {
  for (const Machine machine : {Machine::X86, Machine::PPC64LE,
                                Machine::X86_64, Machine::AArch64}) {
    EXPECT_EQ(machine_from_name(machine_name(machine)), machine);
  }
  EXPECT_FALSE(machine_from_name("mips").has_value());
}

TEST(Object, DefinesRespectsBindingAndVisibility) {
  const Object object = sample_object();
  EXPECT_TRUE(object.defines("main"));
  EXPECT_TRUE(object.defines("helper"));       // weak counts
  EXPECT_FALSE(object.defines("_internal"));   // local hidden
  EXPECT_FALSE(object.defines("printf"));      // undefined
  EXPECT_TRUE(object.defines_strong("main"));
  EXPECT_FALSE(object.defines_strong("helper"));
}

TEST(Object, UndefinedSymbols) {
  const auto undef = sample_object().undefined_symbols();
  ASSERT_EQ(undef.size(), 1u);
  EXPECT_EQ(undef[0], "printf");
}

// ------------------------------------------------------------- patcher

class PatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    install_object(fs_, "/bin/app", sample_object());
  }
  vfs::FileSystem fs_;
  Patcher patcher_{fs_};
};

TEST_F(PatcherTest, InstallSetsDeclaredSize) {
  const auto st = fs_.stat("/bin/app");
  ASSERT_TRUE(st.has_value());
  EXPECT_GT(st->size, 4096u);  // extra_size + metadata
}

TEST_F(PatcherTest, ReadMissingThrows) {
  EXPECT_THROW(patcher_.read("/no/such"), FsError);
}

TEST_F(PatcherTest, SetRunpath) {
  patcher_.set_runpath("/bin/app", {"/new/lib"});
  EXPECT_EQ(patcher_.read("/bin/app").dyn.runpath,
            std::vector<std::string>{"/new/lib"});
}

TEST_F(PatcherTest, SetRpath) {
  patcher_.set_rpath("/bin/app", {"/r1", "/r2"});
  const auto object = patcher_.read("/bin/app");
  EXPECT_EQ(object.dyn.rpath, (std::vector<std::string>{"/r1", "/r2"}));
}

TEST_F(PatcherTest, ClearSearchPaths) {
  patcher_.clear_search_paths("/bin/app");
  const auto object = patcher_.read("/bin/app");
  EXPECT_TRUE(object.dyn.rpath.empty());
  EXPECT_TRUE(object.dyn.runpath.empty());
}

TEST_F(PatcherTest, SetSoname) {
  patcher_.set_soname("/bin/app", "libapp.so.2");
  EXPECT_EQ(patcher_.read("/bin/app").dyn.soname, "libapp.so.2");
}

TEST_F(PatcherTest, SetNeededReplacesWholeList) {
  patcher_.set_needed("/bin/app", {"/x/liba.so"});
  EXPECT_EQ(patcher_.read("/bin/app").dyn.needed,
            std::vector<std::string>{"/x/liba.so"});
}

TEST_F(PatcherTest, AddRemoveNeeded) {
  patcher_.add_needed("/bin/app", "libnew.so");
  EXPECT_EQ(patcher_.read("/bin/app").dyn.needed.back(), "libnew.so");
  patcher_.remove_needed("/bin/app", "liba.so");
  const auto needed = patcher_.read("/bin/app").dyn.needed;
  EXPECT_EQ(std::count(needed.begin(), needed.end(), "liba.so"), 0);
}

TEST_F(PatcherTest, ReplaceNeededPreservesPosition) {
  patcher_.replace_needed("/bin/app", "libb.so.2", "/abs/libb.so.2");
  const auto needed = patcher_.read("/bin/app").dyn.needed;
  ASSERT_EQ(needed.size(), 3u);
  EXPECT_EQ(needed[1], "/abs/libb.so.2");
}

TEST_F(PatcherTest, PatchPreservesOtherFields) {
  const Object before = patcher_.read("/bin/app");
  patcher_.set_runpath("/bin/app", {"/q"});
  const Object after = patcher_.read("/bin/app");
  EXPECT_EQ(before.symbols, after.symbols);
  EXPECT_EQ(before.extra_size, after.extra_size);
  EXPECT_EQ(before.interp, after.interp);
}

}  // namespace
}  // namespace depchaos::elf
