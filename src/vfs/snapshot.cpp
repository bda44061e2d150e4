#include "depchaos/vfs/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <unordered_map>

namespace depchaos::vfs {

/// Private-storage access for the snapshot codec (befriended by
/// FileSystem): layer-chain introspection turns a CoW view into its
/// O(delta) record list on save, and grafts records straight into a forked
/// view's overlay on load — no path resolution, bit-identical storage.
struct SnapshotAccess {
  using Node = FileSystem::Node;
  using Layer = FileSystem::Layer;
  using Mount = FileSystem::Mount;

  static const Node& node(const FileSystem& fs, InodeNum ino) {
    return fs.node_local(ino);
  }
  static InodeNum end_ino(const FileSystem& fs) { return fs.end_ino(); }
  static std::size_t live(const FileSystem& fs) { return fs.live_inodes_; }
  static const std::vector<Mount>& mounts(const FileSystem& fs) {
    return fs.mounts_;
  }
  static const std::string& point_str(const FileSystem& fs, const Mount& m) {
    return fs.paths_->str(m.point);
  }

  /// One-past-the-end inode of the storage `view` shares with `base`:
  /// base's entire current chain must be a suffix of view's chain, with no
  /// private divergence on the base side (fork views from the final base).
  static InodeNum shared_prefix_end(const FileSystem& view,
                                    const FileSystem& base) {
    if (&view == &base) {
      throw FsError("save_fleet: a view aliases the base world");
    }
    if (!base.top_nodes_.empty() || !base.top_shadow_.empty()) {
      throw FsError(
          "save_fleet: base world mutated after its views were forked");
    }
    const Layer* base_top = base.base_.get();
    if (base_top != nullptr) {
      for (const Layer* l = view.base_.get(); l != nullptr;
           l = l->parent.get()) {
        if (l == base_top) return base.end_ino();
      }
    }
    throw FsError("save_fleet: view is not a fork of the base world");
  }

  /// Inos the view shadow-copied above the shared prefix, ascending.
  /// (Inos at or past `split` live in the new-allocation range, which the
  /// caller emits wholesale.)
  static std::vector<InodeNum> delta_shadows(const FileSystem& view,
                                             const FileSystem& base,
                                             InodeNum split) {
    const Layer* base_top = base.base_.get();
    std::vector<InodeNum> out;
    for (const auto& [ino, n] : view.top_shadow_) {
      (void)n;
      if (ino < split) out.push_back(ino);
    }
    for (const Layer* l = view.base_.get(); l != nullptr && l != base_top;
         l = l->parent.get()) {
      for (const auto& [ino, n] : l->shadowed) {
        (void)n;
        if (ino < split) out.push_back(ino);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Size the private overlay for a graft of inos [top_start_, end).
  /// `cap` bounds the node count against the remaining image bytes (every
  /// grafted node costs at least one record byte), so a malformed header
  /// cannot drive a huge allocation.
  static void prepare(FileSystem& fs, InodeNum end, std::size_t live,
                      std::size_t cap) {
    if (end < fs.top_start_ || end < 2 || live > end ||
        end - fs.top_start_ > cap) {
      throw FsError("snapshot: bad inode range");
    }
    fs.top_nodes_.assign(end - fs.top_start_, Node{});
    fs.top_shadow_.clear();
    fs.live_inodes_ = live;
  }

  static void place(FileSystem& fs, InodeNum ino, Node node) {
    if (ino >= fs.end_ino() || ino == 0) {
      throw FsError("snapshot: inode out of range");
    }
    if (ino >= fs.top_start_) {
      fs.top_nodes_[ino - fs.top_start_] = std::move(node);
    } else {
      fs.top_shadow_[ino] = std::move(node);
    }
  }

  static void attach(FileSystem& fs, const std::string& point,
                     std::shared_ptr<FileSystem> backing, MountKind kind,
                     bool read_only, std::shared_ptr<FileSystem> lower) {
    fs.mount(point, std::move(backing), kind, read_only, std::move(lower));
  }
};

namespace {

constexpr std::string_view kMagic = "DCWORLD1\n";
constexpr std::string_view kMagic2 = "DCWORLD2\n";

void save_tree(const FileSystem& fs, const std::string& path,
               std::string& out) {
  const auto listing = fs.list_dir(path);
  for (const auto& name : listing) {
    const std::string child = path == "/" ? "/" + name : path + "/" + name;
    const auto type = fs.peek_type(child, /*follow=*/false);
    if (!type.has_value()) continue;  // unreachable in practice
    switch (*type) {
      case NodeType::Symlink:
        out += "link " + child + " " + *fs.peek_link_target(child) + "\n";
        break;
      case NodeType::Regular: {
        const FileData* data = fs.peek(child);
        out += "file " + child + " " + std::to_string(data->declared_size) +
               " " + std::to_string(data->bytes.size()) + "\n";
        out += data->bytes;
        out += '\n';
        break;
      }
      case NodeType::Directory:
        out += "dir " + child + "\n";
        save_tree(fs, child, out);
        break;
    }
  }
}

// ---------------------------------------------------------------- v2 codec

using SNode = SnapshotAccess::Node;

std::uint64_t parse_num(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    throw FsError(std::string("malformed snapshot number (") + what +
                  "): '" + std::string(text) + "'");
  }
  return value;
}

struct Cursor {
  std::string_view image;
  std::size_t pos = 0;

  bool eof() const { return pos >= image.size(); }

  std::string_view line() {
    const auto end = image.find('\n', pos);
    std::string_view out;
    if (end == std::string_view::npos) {
      out = image.substr(pos);
      pos = image.size();
    } else {
      out = image.substr(pos, end - pos);
      pos = end + 1;
    }
    return out;
  }

  /// Next non-empty line; throws at end of image.
  std::string_view content_line() {
    while (!eof()) {
      const std::string_view out = line();
      if (!out.empty()) return out;
    }
    throw FsError("truncated fleet snapshot");
  }
};

/// Pop the leading space-delimited token off `rest`.
std::string_view take_token(std::string_view& rest, const char* what) {
  const auto space = rest.find(' ');
  std::string_view token;
  if (space == std::string_view::npos) {
    token = rest;
    rest = {};
  } else {
    token = rest.substr(0, space);
    rest = rest.substr(space + 1);
  }
  if (token.empty()) {
    throw FsError(std::string("malformed fleet snapshot: missing ") + what);
  }
  return token;
}

void emit_node(InodeNum ino, const SNode& n, std::string& out) {
  switch (n.type) {
    case NodeType::Directory:
      out += "node " + std::to_string(ino) + " dir " +
             std::to_string(n.children.size()) + "\n";
      for (const auto& [name, child] : n.children) {
        out += "c " + std::to_string(child) + " " + name + "\n";
      }
      break;
    case NodeType::Regular:
      out += "node " + std::to_string(ino) + " file " +
             std::to_string(n.data.declared_size) + " " +
             std::to_string(n.data.bytes.size()) + "\n";
      out += n.data.bytes;
      out += '\n';
      break;
    case NodeType::Symlink:
      out += "node " + std::to_string(ino) + " link " + n.link_target + "\n";
      break;
  }
}

/// Every inode of `fs`'s own storage (images, tmpfs dumps).
void emit_full(const FileSystem& fs, std::string& out) {
  const InodeNum end = SnapshotAccess::end_ino(fs);
  for (InodeNum ino = 1; ino < end; ++ino) {
    emit_node(ino, SnapshotAccess::node(fs, ino), out);
  }
}

/// Only what `view` changed relative to `base`: shadow copies of shared
/// inodes, then the view's own allocations. This IS the CoW layer delta.
void emit_delta(const FileSystem& view, const FileSystem& base,
                std::string& out) {
  const InodeNum split = SnapshotAccess::shared_prefix_end(view, base);
  for (const InodeNum ino :
       SnapshotAccess::delta_shadows(view, base, split)) {
    emit_node(ino, SnapshotAccess::node(view, ino), out);
  }
  const InodeNum end = SnapshotAccess::end_ino(view);
  for (InodeNum ino = split; ino < end; ++ino) {
    emit_node(ino, SnapshotAccess::node(view, ino), out);
  }
}

/// Consume consecutive node records into `fs` (inode-keyed graft).
void parse_nodes(Cursor& cur, FileSystem& fs) {
  while (!cur.eof()) {
    const std::size_t mark = cur.pos;
    const std::string_view line = cur.line();
    if (line.empty()) continue;
    if (!line.starts_with("node ")) {
      cur.pos = mark;  // hand the keyword back to the section parser
      return;
    }
    std::string_view rest = line.substr(5);
    const InodeNum ino = parse_num(take_token(rest, "inode"), "inode");
    const std::string_view kind = take_token(rest, "node kind");
    SNode n;
    if (kind == "dir") {
      n.type = NodeType::Directory;
      const std::uint64_t count = parse_num(rest, "child count");
      if (count > cur.image.size() - cur.pos) {  // each child is >= 1 byte
        throw FsError("snapshot: child count exceeds image");
      }
      n.children.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::string_view child_line = cur.line();
        if (!child_line.starts_with("c ")) {
          throw FsError("malformed child record: '" +
                        std::string(child_line) + "'");
        }
        std::string_view child_rest = child_line.substr(2);
        const InodeNum child_ino =
            parse_num(take_token(child_rest, "child inode"), "child inode");
        if (child_ino == 0 || child_ino >= SnapshotAccess::end_ino(fs)) {
          throw FsError("snapshot: child inode out of range");
        }
        n.children.emplace_back(std::string(child_rest), child_ino);
      }
    } else if (kind == "file") {
      n.type = NodeType::Regular;
      n.data.declared_size = parse_num(take_token(rest, "size"), "size");
      const std::uint64_t nbytes = parse_num(rest, "byte count");
      if (nbytes > cur.image.size() - cur.pos) {
        throw FsError("truncated node payload");
      }
      n.data.bytes = std::string(cur.image.substr(cur.pos, nbytes));
      cur.pos += nbytes;
      if (cur.pos < cur.image.size() && cur.image[cur.pos] == '\n') {
        ++cur.pos;
      }
    } else if (kind == "link") {
      n.type = NodeType::Symlink;
      n.link_target = std::string(rest);
    } else {
      throw FsError("unknown node kind: '" + std::string(line) + "'");
    }
    SnapshotAccess::place(fs, ino, std::move(n));
  }
}

MountKind mount_kind_from(std::string_view name) {
  if (name == "image") return MountKind::Image;
  if (name == "overlay") return MountKind::Overlay;
  if (name == "tmpfs") return MountKind::Tmpfs;
  if (name == "bind") return MountKind::Bind;
  throw FsError("unknown mount kind: '" + std::string(name) + "'");
}

}  // namespace

std::string save_world(const FileSystem& fs) {
  std::string out{kMagic};
  save_tree(fs, "/", out);
  return out;
}

FileSystem load_world(std::string_view image) {
  if (image.substr(0, kMagic.size()) != kMagic) {
    throw FsError("bad world snapshot magic");
  }
  FileSystem fs;
  std::size_t pos = kMagic.size();
  const auto read_line = [&]() -> std::string_view {
    const auto end = image.find('\n', pos);
    if (end == std::string_view::npos) {
      const auto line = image.substr(pos);
      pos = image.size();
      return line;
    }
    const auto line = image.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  while (pos < image.size()) {
    const std::string_view line = read_line();
    if (line.empty()) continue;
    const auto first_space = line.find(' ');
    if (first_space == std::string_view::npos) {
      throw FsError("malformed snapshot line: " + std::string(line));
    }
    const std::string_view kind = line.substr(0, first_space);
    const std::string_view rest = line.substr(first_space + 1);
    if (kind == "dir") {
      fs.mkdir_p(rest);
    } else if (kind == "link") {
      const auto space = rest.find(' ');
      if (space == std::string_view::npos) {
        throw FsError("malformed link record: " + std::string(line));
      }
      fs.symlink(rest.substr(space + 1), rest.substr(0, space));
    } else if (kind == "file") {
      // file <path> <declared> <nbytes>
      const auto size_pos = rest.rfind(' ');
      const auto declared_pos = rest.rfind(' ', size_pos - 1);
      if (size_pos == std::string_view::npos ||
          declared_pos == std::string_view::npos) {
        throw FsError("malformed file record: " + std::string(line));
      }
      const std::string_view path = rest.substr(0, declared_pos);
      const std::uint64_t declared = parse_num(
          rest.substr(declared_pos + 1, size_pos - declared_pos - 1), "size");
      const std::uint64_t nbytes =
          parse_num(rest.substr(size_pos + 1), "byte count");
      if (nbytes > image.size() - pos) {
        throw FsError("truncated file payload: " + std::string(path));
      }
      FileData data;
      data.bytes = std::string(image.substr(pos, nbytes));
      data.declared_size = declared;
      pos += nbytes;
      if (pos < image.size() && image[pos] == '\n') ++pos;
      fs.write_file(path, std::move(data));
    } else {
      throw FsError("unknown snapshot record: " + std::string(kind));
    }
  }
  return fs;
}

bool is_fleet_image(std::string_view image) {
  return image.substr(0, kMagic2.size()) == kMagic2;
}

std::string save_fleet(const FileSystem& base,
                       std::span<const FileSystem* const> views) {
  // Image table: the base plus every distinct read-only image a view's
  // mount table references (Image backings, Overlay lowers) — each
  // serialized exactly once no matter how many views share it.
  std::vector<const FileSystem*> images{&base};
  std::unordered_map<const FileSystem*, std::size_t> image_index{{&base, 0}};
  const auto image_of = [&](const FileSystem* fs) {
    const auto [it, inserted] = image_index.try_emplace(fs, images.size());
    if (inserted) images.push_back(fs);
    return it->second;
  };

  struct MountPlan {
    const SnapshotAccess::Mount* mount;
    std::size_t image = 0;  // Image backing / Overlay lower table slot
  };
  std::vector<std::vector<MountPlan>> plans(views.size());
  for (std::size_t v = 0; v < views.size(); ++v) {
    for (const auto& m : SnapshotAccess::mounts(*views[v])) {
      if (!m.active) continue;
      MountPlan plan{&m};
      switch (m.kind) {
        case MountKind::Image:
          plan.image = image_of(m.backing.get());
          break;
        case MountKind::Overlay:
          if (!m.lower) {
            throw FsError("save_fleet: overlay mount without a lower image");
          }
          plan.image = image_of(m.lower.get());
          break;
        case MountKind::Tmpfs:
          break;
        case MountKind::Bind:
          throw FsError(
              "save_fleet: bind mounts reference a foreign world and "
              "cannot be persisted");
      }
      plans[v].push_back(plan);
    }
  }

  std::string out{kMagic2};
  out += "images " + std::to_string(images.size()) + "\n";
  for (std::size_t k = 0; k < images.size(); ++k) {
    const FileSystem& img = *images[k];
    if (img.has_mounts()) {
      throw FsError(
          "save_fleet: the base/image worlds cannot themselves carry "
          "mounts");
    }
    out += "image " + std::to_string(k) + " " +
           std::to_string(SnapshotAccess::end_ino(img)) + " " +
           std::to_string(SnapshotAccess::live(img)) + "\n";
    emit_full(img, out);
    out += "endimage\n";
  }

  out += "views " + std::to_string(views.size()) + "\n";
  for (std::size_t v = 0; v < views.size(); ++v) {
    const FileSystem& view = *views[v];
    out += "view " + std::to_string(SnapshotAccess::end_ino(view)) + " " +
           std::to_string(SnapshotAccess::live(view)) + "\n";
    emit_delta(view, base, out);
    for (const MountPlan& plan : plans[v]) {
      const auto& m = *plan.mount;
      const bool has_backing_dump = m.kind != MountKind::Image;
      out += "mount " + std::string(mount_kind_name(m.kind)) + " " +
             (m.read_only ? "ro" : "rw") + " " +
             (m.kind == MountKind::Tmpfs ? std::string("-")
                                         : std::to_string(plan.image)) +
             " " +
             std::to_string(has_backing_dump
                                ? SnapshotAccess::end_ino(*m.backing)
                                : 0) +
             " " +
             std::to_string(has_backing_dump
                                ? SnapshotAccess::live(*m.backing)
                                : 0) +
             " " + SnapshotAccess::point_str(view, m) + "\n";
      if (m.kind == MountKind::Overlay) {
        emit_delta(*m.backing, *m.lower, out);
      } else if (m.kind == MountKind::Tmpfs) {
        emit_full(*m.backing, out);
      }
      out += "endmount\n";
    }
    out += "endview\n";
  }
  return out;
}

Fleet load_fleet(std::string_view image) {
  if (!is_fleet_image(image)) {
    // Convenience: a v1 image loads as a base with no views.
    return Fleet{load_world(image), {}};
  }
  Cursor cur{image, kMagic2.size()};

  std::string_view line = cur.content_line();
  if (!line.starts_with("images ")) {
    throw FsError("malformed fleet snapshot: expected images count");
  }
  const std::uint64_t nimages = parse_num(line.substr(7), "image count");
  if (nimages == 0 || nimages > image.size()) {
    throw FsError("malformed fleet snapshot: bad image count");
  }
  std::vector<std::shared_ptr<FileSystem>> images;
  images.reserve(nimages);
  for (std::uint64_t k = 0; k < nimages; ++k) {
    line = cur.content_line();
    if (!line.starts_with("image ")) {
      throw FsError("malformed fleet snapshot: expected image header");
    }
    std::string_view rest = line.substr(6);
    if (parse_num(take_token(rest, "image index"), "image index") != k) {
      throw FsError("malformed fleet snapshot: image table out of order");
    }
    const InodeNum end = parse_num(take_token(rest, "image end"), "image end");
    const std::uint64_t live = parse_num(rest, "image live count");
    auto fs = std::make_shared<FileSystem>();
    SnapshotAccess::prepare(*fs, end, live, image.size() - cur.pos);
    parse_nodes(cur, *fs);
    if (cur.content_line() != "endimage") {
      throw FsError("malformed fleet snapshot: expected endimage");
    }
    images.push_back(std::move(fs));
  }

  line = cur.content_line();
  if (!line.starts_with("views ")) {
    throw FsError("malformed fleet snapshot: expected views count");
  }
  const std::uint64_t nviews = parse_num(line.substr(6), "view count");
  if (nviews > image.size()) {
    throw FsError("malformed fleet snapshot: bad view count");
  }
  Fleet fleet;
  fleet.views.reserve(nviews);
  for (std::uint64_t v = 0; v < nviews; ++v) {
    line = cur.content_line();
    if (!line.starts_with("view ")) {
      throw FsError("malformed fleet snapshot: expected view header");
    }
    std::string_view rest = line.substr(5);
    const InodeNum end = parse_num(take_token(rest, "view end"), "view end");
    const std::uint64_t live = parse_num(rest, "view live count");
    FileSystem view = images[0]->fork();
    SnapshotAccess::prepare(view, end, live, image.size() - cur.pos);
    parse_nodes(cur, view);
    while (true) {
      line = cur.content_line();
      if (line == "endview") break;
      if (!line.starts_with("mount ")) {
        throw FsError("malformed fleet snapshot: expected mount or endview");
      }
      std::string_view mrest = line.substr(6);
      const MountKind kind =
          mount_kind_from(take_token(mrest, "mount kind"));
      const std::string_view rw = take_token(mrest, "mount mode");
      if (rw != "ro" && rw != "rw") {
        throw FsError("malformed fleet snapshot: bad mount mode");
      }
      const std::string_view imgref = take_token(mrest, "mount image ref");
      const InodeNum mend =
          parse_num(take_token(mrest, "mount end"), "mount end");
      const std::uint64_t mlive =
          parse_num(take_token(mrest, "mount live"), "mount live");
      const std::string point(mrest);  // rest of line; may contain spaces
      if (point.empty()) {
        throw FsError("malformed fleet snapshot: mount without a point");
      }
      const auto image_at = [&](std::string_view ref) {
        const std::uint64_t index = parse_num(ref, "image reference");
        if (index >= images.size()) {
          throw FsError("malformed fleet snapshot: image reference out of "
                        "range");
        }
        return images[index];
      };
      std::shared_ptr<FileSystem> backing;
      std::shared_ptr<FileSystem> lower;
      switch (kind) {
        case MountKind::Image:
          backing = image_at(imgref);  // shared fleet-wide, never copied
          break;
        case MountKind::Overlay:
          lower = image_at(imgref);
          backing = std::make_shared<FileSystem>(lower->fork());
          SnapshotAccess::prepare(*backing, mend, mlive,
                                  image.size() - cur.pos);
          parse_nodes(cur, *backing);
          break;
        case MountKind::Tmpfs:
          backing = std::make_shared<FileSystem>();
          SnapshotAccess::prepare(*backing, mend, mlive,
                                  image.size() - cur.pos);
          parse_nodes(cur, *backing);
          break;
        case MountKind::Bind:
          throw FsError("malformed fleet snapshot: bind mounts cannot be "
                        "persisted");
      }
      if (cur.content_line() != "endmount") {
        throw FsError("malformed fleet snapshot: expected endmount");
      }
      SnapshotAccess::attach(view, point, std::move(backing), kind,
                             rw == "ro", std::move(lower));
    }
    fleet.views.push_back(std::move(view));
  }
  // The base comes back as an O(1) fork of image 0 so views keep sharing
  // its storage even when image 0 is also mounted somewhere.
  fleet.base = images[0]->fork();
  return fleet;
}

}  // namespace depchaos::vfs
