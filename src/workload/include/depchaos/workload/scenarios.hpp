// Scenario builders for the paper's concrete failure cases.
//
//  * ROCm three-factor failure (§V-B.1): RPATH on the executable +
//    LD_LIBRARY_PATH from a different ROCm module + RUNPATH inside the ROCm
//    libraries => internal libraries of the WRONG version get loaded.
//  * samba/dbwrap_tool (Listing 1): a library four levels down has no
//    RUNPATH; its dependency resolves only because an earlier subtree
//    already loaded it.
//  * libomp/libompstubs (§V-B.2): two drop-in libraries defining the same
//    strong symbols; load order decides behaviour; the link line rejects
//    them together.
//  * RUNPATH paradox (Fig 3): no single search-path ordering can pick
//    dirA/liba.so AND dirB/libb.so.
//  * Qt plugin trap (§III-A): dlopen from inside a library sees RPATH
//    ancestry but not the executable's RUNPATH.
//  * Container mount-stacking failures (deployment substrate, §V): a host
//    library leaking through an unmasked /usr/lib into a containerized
//    app's search, and a stale squashfs image shadowing a patched host
//    library. Both are driven through vfs mount tables /
//    core::Session::sandbox.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "depchaos/loader/loader.hpp"
#include "depchaos/vfs/vfs.hpp"
#include "depchaos/workload/pynamic.hpp"

namespace depchaos::workload {

struct RocmScenario {
  std::string exe_path;
  std::string good_lib_dir;  // /opt/rocm-4.5/lib
  std::string bad_lib_dir;   // /opt/rocm-4.3/lib
  /// Environment with the WRONG module loaded (LD_LIBRARY_PATH -> 4.3).
  loader::Environment wrong_module_env;
  loader::Environment clean_env;
};

/// Build the ROCm layout. The application was built against 4.5; the
/// internal library carries a version marker symbol (rocm_version_4_5 /
/// rocm_version_4_3) so tests can detect a mixed load.
RocmScenario make_rocm_scenario(vfs::FileSystem& fs);

/// True when the load mixed libraries from both ROCm prefixes — the
/// "segfault" condition of §V-B.1.
bool rocm_versions_mixed(const loader::LoadReport& report,
                         const RocmScenario& scenario);

struct SambaScenario {
  std::string exe_path;  // /usr/bin/dbwrap_tool
  /// The library that has no RUNPATH of its own.
  std::string no_runpath_lib;  // libsamba-modules-samba4.so
  /// Its dependency that is only found via an earlier load.
  std::string rescued_soname;  // libsamba-debug-samba4.so
};

SambaScenario make_samba_scenario(vfs::FileSystem& fs);

struct OmpScenario {
  std::string exe_path;
  std::string libomp_path;
  std::string stubs_path;
  std::string probe_symbol;  // defined strong by BOTH libraries
};

/// `stubs_first` controls the user's link order (the paper's hazard:
/// whichever loads first wins).
OmpScenario make_ompstubs_scenario(vfs::FileSystem& fs,
                                   bool stubs_first = false);

struct ParadoxScenario {
  std::string exe_path;
  std::string dir_a;  // wants liba.so from here
  std::string dir_b;  // wants libb.so from here
  std::string good_a_path;
  std::string good_b_path;
};

ParadoxScenario make_runpath_paradox(vfs::FileSystem& fs);

/// Did the load pick BOTH intended libraries? (Impossible with any single
/// directory-order search; trivial after Shrinkwrap.)
bool paradox_satisfied(const loader::LoadReport& report,
                       const ParadoxScenario& scenario);

/// Re-point the executable's RUNPATH at the given directory order (Fig 3's
/// exhaustive enumeration helper).
void set_paradox_search_order(vfs::FileSystem& fs,
                              const ParadoxScenario& scenario,
                              const std::vector<std::string>& dirs);

struct QtPluginScenario {
  std::string exe_path;      // application
  std::string gui_lib_path;  // libqtgui.so — dlopens the plugin
  std::string plugin_soname;
  std::string plugin_dir;
};

/// `use_rpath` selects whether the application uses RPATH (plugin found via
/// ancestor propagation) or RUNPATH (plugin NOT found from the dlopen).
QtPluginScenario make_qt_plugin_scenario(vfs::FileSystem& fs, bool use_rpath);

/// Host library leaking through an unmasked host dir into a container.
///
/// The image ships /bin/tool (RUNPATH "$ORIGIN/../lib", so it works at any
/// mountpoint), /lib/libapp.so — built WITHOUT search paths, the classic
/// culprit — and /lib/libdeps.so. The host carries an OLD copy of
/// libdeps.so in /usr/lib, and the container's ld.so.conf lists the host
/// dir before the app dir. The leak needs a specific mount stacking: image
/// mounted, host dir visible. Masking `host_lib_dir` with an empty tmpfs
/// (SandboxSpec::mask) fixes the load — the cache then resolves to the
/// image's copy.
struct ContainerLeakScenario {
  std::shared_ptr<vfs::FileSystem> image;
  std::string image_mount;      // /app
  std::string exe;              // /app/bin/tool in the composed namespace
  std::string host_lib_dir;     // /usr/lib — mask this to fix the leak
  std::string leak_soname;      // libdeps.so
  std::string image_marker;     // symbol only the image's copy defines
  std::string host_marker;      // symbol only the host's stale copy defines
  loader::SearchConfig search;  // container ld.so.conf: host dir, app dir
};

ContainerLeakScenario make_container_leak_scenario(vfs::FileSystem& host);

/// True when the load bound the HOST's copy of the leak soname — the
/// wrong-library condition the masking fixes.
bool container_host_leaked(const loader::LoadReport& report,
                           const ContainerLeakScenario& scenario);

/// Containerized Fig 6 substrate (§V-A brought to the container world):
/// the Pynamic-style app frozen into a read-only rootfs image, once as
/// built and once SHRINKWRAPPED INSIDE THE IMAGE before freezing — the
/// three-substrate launch sweep (bare host / image / image + shrinkwrap)
/// runs the same binary over all of them. The image is its own rootfs
/// (image_mount "/", the squashfs-container idiom), so the absolute paths
/// generation bakes in — RPATH directories and frozen DT_NEEDED entries
/// alike — resolve identically bare and containerized; per-rank sandboxes
/// stack a CoW overlay on it (SandboxSpec::writable_image_overlay), which
/// models the cold-start storm: every rank replays the image's metadata
/// stream, and only overlay divergence is truly rank-private.
struct ContainerLaunchScenario {
  std::shared_ptr<vfs::FileSystem> image;          // the app as built
  std::shared_ptr<vfs::FileSystem> wrapped_image;  // shrinkwrapped, frozen
  std::string image_mount;  // "/" — the container's own rootfs
  std::string exe;          // same path on the host and in the container
  /// Generation record of the bare app (module list, search dirs).
  PynamicApp app;
};

/// Build the twin images. `config.root` must be chosen so the app's paths
/// do not collide with host content when mounted at "/".
ContainerLaunchScenario make_container_launch_scenario(
    const PynamicConfig& config = {});

/// Mixed-Pynamic MPMD fleet (heterogeneous launch measurement): rank r
/// runs program class `r % classes` of the containerized app. Class 0 is
/// the app as shipped (a pristine sandbox); class c > 0 shadows c of the
/// app's modules into its FIRST search directory inside the rank's private
/// overlay (the loader then binds the overlay copies — rank-private
/// metadata) and prepends c class-unique library directories to the loader
/// environment (extra probes on the shared substrate). Every class
/// therefore has a distinct (overlay key, environment) pair AND a
/// distinct measured op stream, while two ranks of one class produce
/// byte-identical sandboxes — exactly what clustered fleet measurement
/// (launch::FleetConfig::rank_setup) keys on.
///
/// Deterministic and core-free by design: callers wrap it into a
/// rank_setup hook as
///   fleet.rank_setup = [&](core::Session& s, int r) {
///     workload::apply_mpmd_rank(s.fs(), s.env(), app, r, classes);
///   };
int mpmd_class_of(int rank, int classes);
void apply_mpmd_rank(vfs::FileSystem& fs, loader::Environment& env,
                     const PynamicApp& app, int rank, int classes);

/// Stale squashfs image shadowing an updated host library: the host's
/// /usr/lib copy of the bundled library has been patched, but the app
/// image still carries (and its RUNPATH prefers) the old one. Remounting
/// the rebuilt `fresh_image` is the fix.
struct StaleImageScenario {
  std::shared_ptr<vfs::FileSystem> stale_image;
  std::shared_ptr<vfs::FileSystem> fresh_image;
  std::string image_mount;  // /app
  std::string exe;          // /app/bin/tool
  std::string lib_soname;   // libtls.so
  std::string stale_marker;
  std::string fresh_marker;
};

StaleImageScenario make_stale_image_scenario(vfs::FileSystem& host);

/// True when the load bound the stale bundled copy instead of a fresh one.
bool stale_library_loaded(const loader::LoadReport& report,
                          const StaleImageScenario& scenario);

}  // namespace depchaos::workload
