// In-memory POSIX-style filesystem with syscall accounting and layered
// copy-on-write storage.
//
// This is the substrate every packaging model in the paper is built on:
// FHS trees, bundled AppDirs, Nix/Spack stores, module directories. The
// loader simulator issues stat()/open() calls against it exactly the way
// ld.so probes candidate paths, and the per-operation counters + latency
// model produce the numbers behind Table II and Fig 6.
//
// Storage model: a FileSystem is a *view* over a chain of immutable,
// reference-counted base layers plus one private mutable overlay. fork()
// freezes the overlay into the chain and returns an O(1) writable sibling
// view; node lookups fall through overlay -> base layers, and every
// mutation lands in the forking view's own overlay (a shadowed directory
// copy with an entry absent IS the whiteout record — directory children
// lists are authoritative, so removals and renames need no separate
// tombstones). Inode numbers, symlink hop limits, syscall counters, and
// the latency model's cache are all per-view: a forked-then-mutated world is
// observably byte-identical to a deep-copied-then-mutated one, which is
// what lets core::Session::load_many hand every worker a private world
// without paying O(world size) per worker.
//
// Resolution model: every path is interned once into a support::PathTable
// shared by the whole fork family (append-only, so forked fleets reuse one
// table), and the walk runs over interned component ids — no per-probe
// splitting or re-normalization. Each view memoizes walk results in a
// private positive/negative dentry cache so repeated probes of the same
// directories (the loader's candidate storm) skip the overlay -> base
// chain entirely; the cache is dropped on any mutation. At a fork
// boundary the memo is frozen into an immutable shared snapshot both
// sides keep consulting (positive and negative entries — content is
// identical at the fork point), so a forked fleet starts warm; the first
// mutation on a side drops that side's snapshot reference
// (copy-on-invalidate). collapse() flattens a long fork chain back into a
// single layer (inode numbers and observable content preserved, so cached
// dentries stay valid); fork() does it automatically once a child would
// be more than 64 layers deep.
//
// Mount model: a view optionally composes MOUNTED filesystems under its
// path namespace, real mount-table style. Each mount attaches another
// FileSystem (a read-only squashfs-like image, a CoW overlay forked from
// an image, a fresh tmpfs, or a bind of a subtree of another world) at a
// canonical mountpoint directory; resolution — including the PathId fast
// path and the dentry cache — crosses mount boundaries transparently, so
// the loader and shrinkwrap layers need no mount awareness. Composed
// inode numbers carry the mount index in their top 16 bits; absolute
// symlink targets inside a mounted image resolve in the COMPOSED
// namespace (what a process inside the container observes). Mounted
// backings must not carry mounts of their own (one level, like a kernel
// mount table over block devices), and must not be mutated behind the
// composed view's back. fork() of a composed view shares read-only
// backings and CoW-forks writable ones, which is what makes per-job
// sandbox fleets (core::Session::sandbox) O(delta) to create and — via
// vfs::save_fleet — O(delta) to persist.
//
// Thread safety (audited for svc::SessionPool, which runs thousands of
// client forks of one shared base concurrently):
//  * A VIEW is single-threaded. Even const read paths touch per-view
//    mutable state — the positive/negative dentry memo, the syscall
//    counters, the latency model's attribute cache — so one FileSystem view
//    must never be shared between threads without external serialization.
//    Give every thread its own fork; that is the whole design.
//  * The SHARED substrate between sibling forks is safe for any number of
//    concurrent reader views: frozen CoW base layers are immutable after
//    freeze_top (no API mutates a frozen layer); the fork-family
//    PathTable is append-only with lock-free id-keyed reads and
//    internally synchronized inserts; the shared dentry SNAPSHOT taken at
//    a fork boundary is immutable (sides drop their reference on first
//    mutation, never edit it); read-only mount backings are only
//    const-read at resolve time (node_local), never resolved or mutated
//    post-mount.
//  * fork() MUTATES the parent view (freezes its overlay, rotates its
//    dentry memo into the snapshot) — concurrent forks of one parent must
//    be serialized by the caller.
//  * SEALED FORK CONTRACT: seal() performs fork()'s parent-side mutations
//    once and for all — freeze the overlay into the immutable chain,
//    rotate the dentry memo into the shared snapshot, recursively seal
//    writable mount backings — leaving the view in exactly the state a
//    priming fork() would. From then until the next mutation,
//    fork_sealed() is a *const* stamp over the immutable substrate: any
//    number of threads may call it concurrently on one sealed view with
//    no external lock (svc::SessionPool's wait-free admission path), and
//    each child is byte-identical to what legacy fork() would return.
//    Only fork_sealed() has this guarantee — other const reads on the
//    sealed view (resolution) still touch per-view mutable memo state and
//    stay single-threaded. ANY mutation (node write, mount surgery,
//    collapse) clears the seal; fork_sealed() then throws until seal()
//    runs again, so a stale seal can never hand out a child that misses
//    unfrozen state.
//  * collapse() rewrites the calling view's layer chain only; sibling
//    views keep their own references to the frozen generations, so one
//    client flattening its world never perturbs another. Mutating a
//    WRITABLE mount backing behind a composed view remains forbidden
//    (documented above) — that rule is what keeps sandbox fleets safe.
//
// Conventions:
//  * Paths are absolute, '/'-separated; "." and ".." are normalized away.
//  * Symlinks store a (possibly relative) target string, resolved lazily
//    with a Linux-style 40-hop loop limit.
//  * Mutating setup APIs (write_file, mkdir_p, symlink, rename, remove) are
//    NOT counted as syscalls: they represent package-manager installation,
//    not process startup. The counted operations are stat/open/read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "depchaos/support/error.hpp"
#include "depchaos/support/path_table.hpp"
#include "depchaos/vfs/latency.hpp"

namespace depchaos::vfs {

using InodeNum = std::uint64_t;
using support::PathId;

enum class NodeType : std::uint8_t { Regular, Directory, Symlink };

/// Result of stat()/lstat().
struct Stat {
  InodeNum ino = 0;
  NodeType type = NodeType::Regular;
  std::uint64_t size = 0;
};

/// Contents of a regular file. `declared_size` lets workloads model large
/// binaries (the paper wraps a 213 MiB executable) without materializing
/// bytes; it is max(bytes.size(), declared_size) that stat() reports.
struct FileData {
  std::string bytes;
  std::uint64_t declared_size = 0;

  std::uint64_t size() const {
    return std::max<std::uint64_t>(bytes.size(), declared_size);
  }
};

/// Counters for the operations a process issues during startup.
struct SyscallStats {
  std::uint64_t stat_calls = 0;
  std::uint64_t open_calls = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t failed_probes = 0;  // stat/open of nonexistent paths
  double sim_time_s = 0;            // accumulated latency-model cost

  std::uint64_t metadata_calls() const { return stat_calls + open_calls; }

  SyscallStats& operator+=(const SyscallStats& other);
  /// Field-wise difference: the work done between two snapshots of one
  /// view's counters (`after - before`).
  SyscallStats operator-(const SyscallStats& before) const;
  bool operator==(const SyscallStats&) const = default;
};

/// Normalize an absolute path: collapse '//', resolve '.' and '..'
/// lexically. Throws FsError if `path` is not absolute.
std::string normalize_path(std::string_view path);

/// What kind of filesystem a mount table entry attaches (MountInfo/mount).
enum class MountKind : std::uint8_t {
  Image,    // read-only squashfs-style application image
  Overlay,  // writable CoW overlay forked from a shared lower image
  Tmpfs,    // fresh scratch (read-only tmpfs = masking a host dir)
  Bind,     // subtree of another world re-rooted at the mountpoint
};

std::string_view mount_kind_name(MountKind kind);

/// Latency class of a mount (set_mount_latency): which cost — and,
/// downstream, which simulated metadata server — serves operations that
/// resolve inside it. `Shared` = the view's latency model (the shared
/// parallel FS / NFS storm path). `NodeLocal` = LatencyModel::local_disk()'s
/// fixed cost (a pre-staged image on node-local storage: cheap, no storm).
/// Only the SHARED substrate of a mount is ever node-local: per-view
/// overlay divergence always pays the shared-FS price (the PR-5 rule that
/// broadcast/pre-staging cannot absorb rank-private state).
enum class MountLatency : std::uint8_t { Shared, NodeLocal };

/// One row of FileSystem::mounts() — the `mount(8)`-style listing.
struct MountInfo {
  std::string point;  // canonical mountpoint
  MountKind kind = MountKind::Image;
  bool read_only = false;
  MountLatency latency = MountLatency::Shared;
};

/// Lexical dirname/basename of a normalized absolute path.
std::string dirname(std::string_view path);
std::string basename(std::string_view path);

class FileSystem {
 public:
  FileSystem();

  /// Deep copy: flattens the layer chain into a fresh single-layer world.
  /// The O(world) path — prefer fork() when the copy is read-mostly. The
  /// copy gets its own copy of the latency model, cache included, like a
  /// fork.
  FileSystem(const FileSystem& other);
  FileSystem& operator=(const FileSystem& other);
  FileSystem(FileSystem&&) = default;
  FileSystem& operator=(FileSystem&&) = default;

  /// O(1) copy-on-write fork: freeze this view's overlay into the shared
  /// immutable chain and return a sibling view over the same layers.
  /// Subsequent mutations on either side are private to that side. The
  /// child gets the same inode numbering a deep copy would (so post-fork
  /// node allocations are byte-identical either way), zeroed syscall
  /// counters, and its own copy of this view's latency model (cache
  /// included).
  FileSystem fork();

  /// Perform fork()'s parent-side mutations once: freeze the overlay,
  /// rotate the dentry memo into the shared snapshot, and seal writable
  /// mount backings recursively. Afterwards — until the next mutation —
  /// fork_sealed() needs no lock. Idempotent; observably identical to a
  /// discarded priming fork().
  void seal();

  /// Lock-free fork fast path over a seal()ed view: stamps a new sibling
  /// view (same inode numbering, zeroed counters, copied latency model,
  /// shared dentry snapshot — byte-identical to what fork() would return)
  /// without touching the parent. Safe to call concurrently from many
  /// threads on one sealed view. Throws FsError when the view is not
  /// currently sealed.
  FileSystem fork_sealed() const;

  /// True between seal() and the next mutation.
  bool sealed() const { return sealed_; }

  // ----- mount table (uncounted namespace surgery) -------------------------
  //
  // Mount operations model container assembly (squashfs app images,
  // overlayfs stacks, tmpfs masks, bind mounts), not process startup, so
  // like the setup APIs they are uncounted. Every operation drops the
  // dentry memo (the namespace changed). The mountpoint directory is
  // created (mkdir -p style) when missing; mounts stack — the latest
  // mount at a point wins, umount() peels it off again.

  /// Low-level mount: attach `backing` at `point`. `backing` must not have
  /// mounts of its own and must not be mutated directly afterwards;
  /// `lower` (overlays only) records the shared image the backing was
  /// forked from so vfs::save_fleet can persist the delta. `source` is the
  /// directory inside `backing` that becomes the mount root (bind mounts;
  /// "/" for whole-filesystem mounts).
  void mount(std::string_view point, std::shared_ptr<FileSystem> backing,
             MountKind kind, bool read_only,
             std::shared_ptr<FileSystem> lower = nullptr,
             std::string_view source = "/");

  /// Read-only squashfs-style image mount; the image is shared, never
  /// copied, so a fleet of views mounting it costs O(1) each.
  void mount_image(std::string_view point, std::shared_ptr<FileSystem> image);

  /// Writable overlay whose lower layer is `lower`: the backing is a CoW
  /// fork of the image, so per-view divergence stays in the view.
  void mount_overlay(std::string_view point,
                     const std::shared_ptr<FileSystem>& lower);

  /// Fresh scratch filesystem; read_only=true is the container "mask a
  /// host directory" idiom (an empty dir shadows whatever was beneath).
  void mount_tmpfs(std::string_view point, bool read_only = false);

  /// Re-root `source_path` of `source_fs` at `point` (default read-only).
  void mount_bind(std::string_view point,
                  std::shared_ptr<FileSystem> source_fs,
                  std::string_view source_path, bool read_only = true);

  /// Peel off the topmost mount at `point`. Throws FsError when nothing is
  /// mounted there.
  void umount(std::string_view point);

  /// Set the latency class of the topmost active mount at `point` (image
  /// pre-staged to node-local storage). Throws FsError when nothing is
  /// mounted there. Inherited by fork() and copies, like the rest of the
  /// mount table.
  void set_mount_latency(std::string_view point, MountLatency latency);

  /// Active mounts in mount order (the `mount(8)` listing).
  std::vector<MountInfo> mounts() const;
  bool has_mounts() const { return !mount_at_.empty(); }

  // ----- setup (uncounted) -------------------------------------------------

  /// Create directory and all ancestors. Idempotent.
  void mkdir_p(std::string_view path);

  /// Create/overwrite a regular file, creating parent directories.
  void write_file(std::string_view path, FileData data);
  void write_file(std::string_view path, std::string bytes) {
    write_file(path, FileData{std::move(bytes), 0});
  }

  /// Create a symlink at `linkpath` pointing at `target` (target may be
  /// relative and need not exist). Throws if linkpath already exists.
  void symlink(std::string_view target, std::string_view linkpath);

  /// Remove a file/symlink, or a directory (recursively if requested).
  void remove(std::string_view path, bool recursive = false);

  /// Atomic rename (the store model's commit primitive). Replaces an
  /// existing non-directory destination, like rename(2).
  void rename(std::string_view from, std::string_view to);

  /// True if the path exists (following symlinks). Uncounted.
  bool exists(std::string_view path) const;

  /// Directory listing in insertion order. Uncounted.
  std::vector<std::string> list_dir(std::string_view path) const;

  /// Resolve all symlinks; returns canonical path or nullopt. Uncounted.
  std::optional<std::string> realpath(std::string_view path) const;

  /// Total inode count across the composed namespace (Dependency Views
  /// cost accounting, §III-D1): this view's own storage plus every active
  /// mounted backing's.
  std::size_t inode_count() const;

  /// Uncounted file access for tooling (package managers, patchers) that
  /// does not represent process-startup syscall traffic.
  const FileData* peek(std::string_view path) const;
  const FileData* peek(PathId id) const;

  /// Recursive on-disk byte total under `path` (uncounted; du(1)-style).
  /// Symlinks contribute nothing. Returns 0 for missing paths.
  std::uint64_t disk_usage(std::string_view path) const;

  /// Uncounted node-type query. `follow` controls final-symlink
  /// dereferencing (stat vs lstat semantics).
  std::optional<NodeType> peek_type(std::string_view path,
                                    bool follow = false) const;

  /// Uncounted readlink(2): the literal target of a symlink, nullopt when
  /// the path is not a symlink.
  std::optional<std::string> peek_link_target(std::string_view path) const;

  // ----- counted process-startup operations --------------------------------

  /// stat(2): follow symlinks, count one metadata op.
  /// The string overloads intern the path and take the PathId one.
  std::optional<Stat> stat(std::string_view path) { return stat(intern(path)); }
  std::optional<Stat> stat(PathId id);

  /// lstat(2): do not follow the final symlink.
  std::optional<Stat> lstat(std::string_view path) {
    return lstat(intern(path));
  }
  std::optional<Stat> lstat(PathId id);

  /// openat(2) + contents: returns file data if `path` names a regular file.
  const FileData* open(std::string_view path) { return open(intern(path)); }
  const FileData* open(PathId id);

  /// Read after open: counted separately (data vs metadata traffic).
  void count_read(std::string_view path) { count_read(intern(path)); }
  void count_read(PathId id);

  // ----- interned paths -----------------------------------------------------

  /// The interner shared by this view's whole fork family. Callers may
  /// intern paths eagerly (loader search dirs, shrinkwrap closure keys) and
  /// use the PathId overloads above to probe without rebuilding strings.
  support::PathTable& paths() const { return *paths_; }
  const std::shared_ptr<support::PathTable>& path_table() const {
    return paths_;
  }

  /// Intern an absolute path, throwing FsError (like normalize_path) when
  /// it is not absolute. str(id) of the result is the normalized path.
  PathId intern(std::string_view path) const;

  /// Uncounted interned resolution: canonical (symlink-free) PathId of
  /// `id`, or kNone when the path does not exist. The interned realpath.
  PathId resolve_canonical(PathId id) const;

  /// Enable/disable the per-view dentry cache (enabled by default). Used
  /// by tests and bench/loader_hotpath to measure the cache's effect;
  /// disabling also drops the current entries.
  void set_dentry_cache(bool enabled);
  bool dentry_cache_enabled() const { return dentry_enabled_; }

  // ----- op trace -----------------------------------------------------------

  /// Installs `trace` on `fs` for the guard's lifetime: every counted
  /// operation (stat, open, read) is appended with its hit and node-local
  /// attribution, and each stat/open with its shared flag. "Shared" =
  /// served by substrate identical across a sandbox fleet: read-only
  /// mounts (images, masks, RO binds), content below the last fork
  /// boundary of a writable mount or of this view's own storage, and
  /// failed probes (a negative answer is the same for every rank). The
  /// rest is per-view divergence: nodes created or CoW-shadowed since the
  /// last fork. The previous trace is restored on every exit, exceptions
  /// included. Purely additive — counters, latency charges and answers are
  /// untouched — and never inherited by fork() or copies.
  class TraceScope {
   public:
    TraceScope(FileSystem& fs, OpTrace& trace)
        : fs_(fs), previous_(std::exchange(fs.trace_, &trace)) {}
    ~TraceScope() { fs_.trace_ = previous_; }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    FileSystem& fs_;
    OpTrace* previous_;
  };

  /// Charges every record of `trace` (recorded by any view of this fork
  /// family) to THIS view in trace order, through the same accounting as
  /// executing the operations: counters and failed probes, sim_time_s
  /// priced op by op through this view's latency model (warming its
  /// client cache), and the installed trace, which receives the records
  /// as they are. Obeys set_counting(). Replaying the trace of an
  /// operation this view would issue identically leaves the view's
  /// counters bit-identical to executing it.
  void replay(const OpTrace& trace);

  /// Uncounted one-path classification under the same rules: true =
  /// shared substrate, false = per-view divergence, nullopt = the path
  /// does not resolve.
  std::optional<bool> served_shared(std::string_view path) const;

  /// Exact key of this view's post-fork private delta: an injective,
  /// self-delimiting byte encoding of the overlay nodes, the CoW-shadow set
  /// and the mount table. Shared substrate (the frozen layer chain, images,
  /// binds, overlay lowers) enters by address; writable backings and tmpfs
  /// mounts, fresh per view, by their own key. Sibling forks key equal iff
  /// their divergence since the fork is identical: the launch layer's
  /// rank-class key. O(delta) per call; an address names substrate only
  /// while that substrate is alive.
  std::string overlay_key() const;

  // ----- accounting ---------------------------------------------------------

  SyscallStats& stats() { return stats_; }
  const SyscallStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SyscallStats{}; }

  /// Attach/replace the latency model (nullopt = free operations).
  void set_latency_model(std::optional<LatencyModel> model) {
    latency_ = std::move(model);
  }
  const LatencyModel* latency_model() const {
    return latency_ ? &*latency_ : nullptr;
  }

  /// Drop the latency model's client cache (cold start).
  void clear_caches() {
    if (latency_) latency_->clear_client_cache();
  }

  /// Disable/enable syscall accounting (counters AND latency). Used for
  /// what-if probes (libtree's cache-hit classification) that must not
  /// perturb the measured workload.
  void set_counting(bool enabled) { counting_ = enabled; }
  bool counting() const { return counting_; }

  // ----- storage introspection (fork cost accounting) ----------------------

  /// Number of storage layers backing this view, counting the private
  /// overlay: 1 for a flat (never-forked, freshly built or snapshot-loaded)
  /// world, one more per frozen fork generation beneath it.
  std::size_t layer_depth() const;

  /// Approximate heap bytes held PRIVATELY by this view (overlay nodes and
  /// shadow copies; shared base layers excluded). A fresh fork owns ~0; a
  /// deep copy owns the whole world — the ratio is the CoW win that
  /// bench/fork_scaling gates on.
  std::uint64_t owned_bytes() const;

  /// Flatten the layer chain into a single private layer. Inode numbers,
  /// directory order, and every observable read answer are preserved (this
  /// is the deep-copy ctor's flattening applied in place), so cached
  /// dentries remain valid; the cost is O(world) time and owned bytes —
  /// after a collapse this view no longer shares storage with its fork
  /// family. Long fork chains (overlay-on-overlay-on-…) pay a per-lookup
  /// chain walk; collapsing trades one flatten for flat lookups. fork()
  /// and fork_sealed() collapse the CHILD on the spot when its
  /// layer_depth() would exceed 64 (the parent keeps its chain, so fork()
  /// stays O(1) for the caller).
  void collapse();

 private:
  // Raw storage access for the DCWORLD2 snapshot codec (snapshot.cpp):
  // layer-chain introspection for O(delta) fleet saves and direct overlay
  // grafts on load.
  friend struct SnapshotAccess;

  // Uninitialized shell for fork(): no root node, no interner allocation
  // (fork() wires in the family's shared table).
  struct ForkTag {};
  explicit FileSystem(ForkTag) {}

  struct Node {
    NodeType type = NodeType::Regular;
    // Directory children, insertion-ordered for deterministic listings.
    std::vector<std::pair<std::string, InodeNum>> children;
    FileData data;            // Regular
    std::string link_target;  // Symlink

    InodeNum find_child(std::string_view name) const;
  };

  /// One frozen fork generation. `nodes` holds inodes [start,
  /// start+nodes.size()) appended during that generation; `shadowed` holds
  /// CoW copies of older inodes the generation mutated (including the
  /// directory copies that act as whiteouts).
  struct Layer {
    std::shared_ptr<const Layer> parent;
    InodeNum start = 0;
    std::vector<Node> nodes;
    std::unordered_map<InodeNum, Node> shadowed;
  };

  /// One mount table entry. Inactive entries (umounted) stay in the
  /// vector so mount indices — baked into composed inode numbers — remain
  /// stable.
  struct Mount {
    PathId point = support::PathTable::kNone;  // canonical mountpoint
    MountKind kind = MountKind::Image;
    bool read_only = false;
    bool active = true;
    MountLatency latency = MountLatency::Shared;
    std::shared_ptr<FileSystem> backing;
    std::shared_ptr<FileSystem> lower;  // overlays: the shared image below
    InodeNum source_root = 1;           // binds: entry inode inside backing
  };

  // Composed inode numbers: mount index (0 = this view's own storage,
  // i+1 = mounts_[i]) in the top 16 bits, backing-local inode below.
  static constexpr int kMountShift = 48;
  static constexpr InodeNum kMountMask = InodeNum{0xffff} << kMountShift;
  static std::uint16_t mount_index(InodeNum ino) {
    return static_cast<std::uint16_t>(ino >> kMountShift);
  }
  static InodeNum local_ino(InodeNum ino) { return ino & ~kMountMask; }
  static InodeNum tag(std::uint16_t mount, InodeNum local) {
    return (InodeNum{mount} << kMountShift) | local;
  }
  /// Re-tag a backing-local child inode with its directory's mount bits.
  static InodeNum tag_like(InodeNum context, InodeNum local) {
    return (context & kMountMask) | local;
  }

  // Read access to a composed inode: route to the owning backing, falling
  // through its overlay -> base chain.
  const Node& node(InodeNum ino) const;
  const Node& node_local(InodeNum ino) const;
  // Write access: returns the owning store's copy, creating the CoW shadow
  // on first touch of a base-layer inode, enforcing mount read-only flags,
  // and dropping this view's dentry memo. The returned reference is
  // invalidated by the next new_node_at()/mutable_node() call.
  Node& mutable_node(InodeNum ino);
  Node& mutable_node_local(InodeNum ino);
  // One-past-the-end inode number (the next local allocation index).
  InodeNum end_ino() const { return top_start_ + top_nodes_.size(); }
  // Freeze the private overlay into the immutable chain (fork prologue).
  void freeze_top();

  /// Tagged child lookup: `name` inside directory `dir`, 0 on miss.
  InodeNum child_of(InodeNum dir, std::string_view name) const;
  /// Root of the topmost active mount at canonical path `canon`, or 0.
  InodeNum mount_root_at(PathId canon) const;
  /// The namespace root: "/" itself, honoring a mount over "/".
  InodeNum root_ino() const;
  void ensure_writable(InodeNum ino) const;
  /// Throw "mount point busy" when an active mountpoint sits at or under
  /// canonical path `canon` (rmdir/rename of a mount ancestor is EBUSY).
  void ensure_no_mount_under(const std::string& canon,
                             const std::string& display) const;

  // Resolve `path` to an inode. If follow_final is false the last component
  // is not dereferenced when it is a symlink. Returns 0 (invalid) on miss.
  InodeNum resolve(std::string_view path, bool follow_final,
                   std::string* canonical = nullptr) const;

  // The canonical mountpoint `point` names, however it is spelled
  // (symlinks, "//", "/./"). Throws FsError prefixed with `op` when the
  // path does not resolve (missing, or a symlink loop).
  PathId mountpoint(std::string_view point, std::string_view op) const;

  // The interned walk behind every lookup: resolve `id` by stepping its
  // component chain against the node store, expanding symlinks with a
  // Linux-style hop budget shared across the whole resolution. On success
  // `canonical` (when non-null) receives the symlink-free PathId. Results
  // — positive and negative — are memoized in the per-view dentry cache
  // keyed by (id, follow_final); a cached entry replays the hop count its
  // walk consumed so ELOOP behaviour is byte-identical with or without
  // the cache.
  InodeNum resolve_id(PathId id, bool follow_final, int& hops,
                      PathId* canonical) const;

  // Parent directory inode of `path`, creating it if `create`.
  InodeNum parent_of(const std::string& norm, bool create);

  /// Allocate a node in the same store as mount index `mount`; returns the
  /// tagged composed inode.
  InodeNum new_node_at(std::uint16_t mount, NodeType type);
  InodeNum new_node_local(NodeType type);
  /// Allocate + link a child named `name` under directory `dir` (same
  /// store as `dir`); returns the tagged child.
  InodeNum create_child(InodeNum dir, std::string_view name, NodeType type);
  /// Count and price one operation and append it to the installed trace.
  /// `ino` (the resolved composed inode, 0 on a miss) feeds the trace's
  /// shared attribution and the node-local latency-class routing; counters
  /// are unaffected by it.
  void charge(OpKind op, bool hit, PathId path, InodeNum ino = 0);
  /// The one accounting rule charge() and replay() share: append to the
  /// installed trace, count, and price — node-local operations at
  /// LatencyModel::local_disk_cost, the rest through the view's model;
  /// everything is free when no model is installed.
  void account(OpKind op, bool hit, bool shared, bool node_local,
               PathId path);
  /// Was this operation served by a MountLatency::NodeLocal mount? Hits
  /// route by the owning mount (shared substrate only — overlay-private
  /// nodes always pay the shared-FS price); misses and reads attribute by
  /// the longest active node-local mountpoint prefix (a failed probe of a
  /// pre-staged image is a local negative).
  bool op_is_node_local(InodeNum ino, bool hit, PathId path) const;
  bool under_node_local_mount(const std::string& path) const;
  bool has_node_local_mount() const;
  void remove_subtree(InodeNum ino);

  /// Attribution helpers (fleet-launch accounting): is local inode `ino`
  /// part of this store's private top overlay (created or CoW-shadowed
  /// since the last fork/freeze) rather than the shared frozen chain?
  bool node_is_private_local(InodeNum ino) const {
    return ino >= top_start_ || top_shadow_.count(ino) != 0;
  }
  bool op_is_shared(InodeNum ino) const;

  // Immutable shared layers (null for a never-forked world) ...
  std::shared_ptr<const Layer> base_;
  // ... plus the private mutable overlay: inodes >= top_start_ live in
  // top_nodes_ (top_nodes_[0] is the unused slot 0 / root 1 pair in a flat
  // world); older inodes this view mutated live in top_shadow_.
  InodeNum top_start_ = 0;
  std::vector<Node> top_nodes_;
  std::unordered_map<InodeNum, Node> top_shadow_;

  std::size_t live_inodes_ = 0;
  SyscallStats stats_;
  std::optional<LatencyModel> latency_;
  bool counting_ = true;

  // Interner shared by the whole fork family (deep copies join it too —
  // the table is world-independent).
  std::shared_ptr<support::PathTable> paths_;

  /// One memoized walk result. `hops` is the symlink-hop budget the walk
  /// consumed, replayed into the caller's counter on a cache hit.
  struct Dentry {
    InodeNum ino = 0;        // 0 = negative entry (path does not exist)
    PathId canonical = support::PathTable::kNone;
    int hops = 0;
  };
  static std::uint64_t dentry_key(PathId id, bool follow) {
    return (std::uint64_t{id} << 1) | (follow ? 1u : 0u);
  }
  using DentryMap = std::unordered_map<std::uint64_t, Dentry>;
  // Two-level memo. `dentry_` is per-view and private: new walk results
  // land here. `dentry_shared_` is an immutable snapshot frozen at the
  // last fork boundary, consulted for every entry it holds, positive or
  // negative — every view sharing it has identical content until it
  // mutates. A key lives in at most one of the two maps (a walk runs only
  // when both miss). At most one entry per (interned path, follow) pair,
  // so the interner's fixed capacity bounds both. Invalidation
  // (mutable_node — the single choke point every structural change goes
  // through — mount-table surgery, and set_dentry_cache) drops the
  // private map AND this view's snapshot reference (copy-on-invalidate:
  // siblings keep theirs). Mutable because resolution memoizes inside
  // const read paths.
  mutable DentryMap dentry_;
  std::shared_ptr<const DentryMap> dentry_shared_;
  void invalidate_dentries() {
    dentry_.clear();
    dentry_shared_.reset();
    sealed_ = false;  // any invalidation means the substrate may change
  }
  bool dentry_enabled_ = true;
  // True between seal() and the next mutation: the overlay is frozen, the
  // dentry memo rotated, writable backings sealed — fork_sealed() may run
  // concurrently. Cleared at the invalidate_dentries choke point, at node
  // allocation, and at collapse().
  bool sealed_ = false;
  // Installed op trace (TraceScope); never inherited.
  OpTrace* trace_ = nullptr;

  // The mount table (empty for ordinary worlds; every operation above is
  // zero-overhead then). `mount_at_` maps a canonical mountpoint PathId to
  // the stack of mounts at that point, topmost last.
  std::vector<Mount> mounts_;
  std::unordered_map<PathId, std::vector<std::uint16_t>> mount_at_;
};

}  // namespace depchaos::vfs
