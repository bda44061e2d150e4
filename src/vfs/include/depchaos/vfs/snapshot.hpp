// World snapshots: serialize an entire simulated filesystem to a single
// text image and back. This is what lets the CLI tools (tools/depchaos)
// operate like their real-world counterparts: one invocation generates a
// world to a file, later invocations run libtree/shrinkwrap/launch against
// it — the same workflow as pointing real tools at a real filesystem.
//
// Format v1 (DCWORLD1): a header line, then one record per node in
// depth-first order:
//   dir <path>
//   link <path> <target>
//   file <path> <declared_size> <nbytes>\n<nbytes raw bytes>\n
// Raw bytes are length-prefixed, so SELF images (which are multi-line text)
// embed without escaping. save_world() flattens mount tables into the
// composed tree, so v1 stays the lowest-common-denominator image.
//
// Format v2 (DCWORLD2) — fleet snapshots: one shared base image plus
// per-view deltas, so persisting N copy-on-write forks (a sandbox fleet)
// costs O(base + Σ delta) instead of N full images. The delta is read
// straight off the CoW layer chain — the nodes a view allocated or
// shadow-copied above the layers it shares with the base — so both save
// cost and image size are proportional to actual divergence, and a
// restored view is bit-identical (inode numbers, directory order, dead
// nodes, declared sizes) to the saved one. Mount tables persist too:
// read-only images are stored once in a deduplicated image table,
// overlays as a delta against their lower image, tmpfs in full. Bind
// mounts reference a foreign world and are rejected. Two caveats:
// umounted (inactive) mount-table slots are compacted away on restore, so
// a view with umount history may renumber the mount-index bits of its
// COMPOSED inode numbers (stored worlds are unaffected); and a view
// flattened by fork()'s auto-collapse (a child more than 64 layers deep)
// no longer shares layers with its base and is rejected.
//
// DCWORLD2 grammar (line-oriented; <raw> spans are length-prefixed):
//   DCWORLD2
//   images <K>
//   image <k> <end_ino> <live_inodes>          (k = 0 is the fleet base)
//   <node records>
//   endimage
//   views <N>
//   view <end_ino> <live_inodes>               (delta vs. image 0)
//   <node records>
//   mount <kind> <ro|rw> <image|-> <end_ino> <live_inodes> <point>
//   <node records>                             (overlay delta / tmpfs dump)
//   endmount
//   endview
// node records address storage directly (inode-keyed, unlike v1):
//   node <ino> dir <nchildren>     followed by nchildren "c <ino> <name>"
//   node <ino> file <declared> <nbytes>\n<raw bytes>\n
//   node <ino> link <target>
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "depchaos/vfs/vfs.hpp"

namespace depchaos::vfs {

/// Serialize the whole filesystem (uncounted). Mounted namespaces are
/// flattened into one tree — the DCWORLD1 lowest common denominator.
std::string save_world(const FileSystem& fs);

/// Rebuild a filesystem from a DCWORLD1 snapshot. Throws FsError on
/// malformed input.
FileSystem load_world(std::string_view image);

/// A restored fleet: the shared base world plus each view rebuilt as a
/// fork of it (shared storage, shared PathTable, grafted deltas, mounts
/// reattached with read-only images shared across views).
struct Fleet {
  FileSystem base;
  std::vector<FileSystem> views;
};

/// Serialize a fleet as DCWORLD2: the base once, each view as its CoW
/// delta plus its mount table. Every view must be a fork of `base`'s
/// CURRENT state (fork first, then diverge — and do not mutate the base
/// afterwards); violations and bind mounts throw FsError.
std::string save_fleet(const FileSystem& base,
                       std::span<const FileSystem* const> views);

/// Load a DCWORLD2 image — or, for convenience, a DCWORLD1 image, which
/// comes back as a base with no views. Throws FsError on malformed input.
Fleet load_fleet(std::string_view image);

/// True when `image` carries the DCWORLD2 magic.
bool is_fleet_image(std::string_view image);

}  // namespace depchaos::vfs
