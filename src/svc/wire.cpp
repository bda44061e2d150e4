#include "depchaos/svc/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>

namespace depchaos::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a graceful stop waits for in-flight responses to flush before
/// force-closing the stragglers.
constexpr double kDrainDeadlineS = 10.0;
/// listen(2) backlog.
constexpr int kListenBacklog = 64;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- little-endian primitives ---------------------------------------------
// Explicit byte shuffles, not memcpy of host integers: the encoding is the
// protocol (and the byte-identity oracle), so it cannot depend on host
// endianness.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

/// Overwrite the u32 at `at` (a length written before its payload).
void set_u32(std::string& out, std::size_t at, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out[at++] = static_cast<char>((v >> shift) & 0xff);
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  if (s.size() > 0xffffffffu) {
    throw WireError("string too long to encode");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked sequential reader over an encoded payload. Every get
/// throws WireError on truncation; callers assert full consumption.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  void require(std::size_t n) const {
    if (data.size() - pos < n) {
      throw WireError("truncated payload (need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos) + ", have " +
                      std::to_string(data.size() - pos) + ")");
    }
  }
  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint16_t u16() {
    require(2);
    std::uint16_t v = 0;
    for (int shift = 0; shift < 16; shift += 8) {
      v |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(data[pos++]))
           << shift;
    }
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos++]))
           << shift;
    }
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos++]))
           << shift;
    }
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    require(n);
    std::string s(data.substr(pos, n));
    pos += n;
    return s;
  }
  bool done() const { return pos == data.size(); }
  void expect_done() const {
    if (!done()) {
      throw WireError("trailing bytes after payload (offset " +
                      std::to_string(pos) + " of " +
                      std::to_string(data.size()) + ")");
    }
  }
};

// ---- result codecs ---------------------------------------------------------

void put_stats(std::string& out, const vfs::SyscallStats& stats) {
  put_u64(out, stats.stat_calls);
  put_u64(out, stats.open_calls);
  put_u64(out, stats.read_calls);
  put_u64(out, stats.failed_probes);
  put_f64(out, stats.sim_time_s);
}

vfs::SyscallStats get_stats(Cursor& in) {
  vfs::SyscallStats stats;
  stats.stat_calls = in.u64();
  stats.open_calls = in.u64();
  stats.read_calls = in.u64();
  stats.failed_probes = in.u64();
  stats.sim_time_s = in.f64();
  return stats;
}

// LoadedObject::object (the parsed ELF handle) is a process-local cache
// pointer and is deliberately not encoded; decode leaves it null.
void put_object(std::string& out, const loader::LoadedObject& o) {
  put_str(out, o.name);
  put_str(out, o.path);
  put_str(out, o.real_path);
  put_str(out, o.requested_by);
  put_u8(out, static_cast<std::uint8_t>(o.how));
  put_u32(out, static_cast<std::uint32_t>(o.depth));
  put_u64(out, static_cast<std::uint64_t>(o.parent_index));
  put_u8(out, static_cast<std::uint8_t>(o.cache_search_how));
}

loader::HowFound get_how(Cursor& in) {
  const std::uint8_t raw = in.u8();
  if (raw > static_cast<std::uint8_t>(loader::HowFound::NotFound)) {
    throw WireError("bad HowFound value " + std::to_string(raw));
  }
  return static_cast<loader::HowFound>(raw);
}

loader::LoadedObject get_object(Cursor& in) {
  loader::LoadedObject o;
  o.name = in.str();
  o.path = in.str();
  o.real_path = in.str();
  o.requested_by = in.str();
  o.how = get_how(in);
  o.depth = static_cast<int>(in.u32());
  o.parent_index = static_cast<std::int64_t>(in.u64());
  o.cache_search_how = get_how(in);
  return o;
}

void put_objects(std::string& out, const std::vector<loader::LoadedObject>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const auto& o : v) put_object(out, o);
}

std::vector<loader::LoadedObject> get_objects(Cursor& in) {
  const std::uint32_t n = in.u32();
  std::vector<loader::LoadedObject> v;
  v.reserve(std::min<std::uint32_t>(n, 4096));  // bogus counts fail below
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(get_object(in));
  return v;
}

void put_strings(std::string& out, const std::vector<std::string>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) put_str(out, s);
}

std::vector<std::string> get_strings(Cursor& in) {
  const std::uint32_t n = in.u32();
  std::vector<std::string> v;
  v.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(in.str());
  return v;
}

void put_load_report(std::string& out, const loader::LoadReport& r) {
  put_u8(out, r.success ? 1 : 0);
  put_objects(out, r.load_order);
  put_objects(out, r.requests);
  put_objects(out, r.missing);
  put_stats(out, r.stats);
  put_strings(out, r.probe_log);
}

loader::LoadReport get_load_report(Cursor& in) {
  loader::LoadReport r;
  r.success = in.u8() != 0;
  r.load_order = get_objects(in);
  r.requests = get_objects(in);
  r.missing = get_objects(in);
  r.stats = get_stats(in);
  r.probe_log = get_strings(in);
  return r;
}

void put_wrap_report(std::string& out, const shrinkwrap::WrapReport& r) {
  put_strings(out, r.old_needed);
  put_strings(out, r.new_needed);
  put_u32(out, static_cast<std::uint32_t>(r.resolved.size()));
  for (const auto& [name, path] : r.resolved) {  // std::map: sorted, stable
    put_str(out, name);
    put_str(out, path);
  }
  put_strings(out, r.unresolved);
  put_strings(out, r.dlopen_lifted);
  put_strings(out, r.dlopen_unresolved);
  put_stats(out, r.wrap_cost);
  put_u8(out, r.changed ? 1 : 0);
}

void put_load_reports(std::string& out,
                      const std::vector<loader::LoadReport>& reports) {
  put_u32(out, static_cast<std::uint32_t>(reports.size()));
  for (const auto& r : reports) put_load_report(out, r);
}

shrinkwrap::WrapReport get_wrap_report(Cursor& in) {
  shrinkwrap::WrapReport r;
  r.old_needed = get_strings(in);
  r.new_needed = get_strings(in);
  const std::uint32_t resolved = in.u32();
  for (std::uint32_t i = 0; i < resolved; ++i) {
    std::string name = in.str();
    r.resolved.emplace(std::move(name), in.str());
  }
  r.unresolved = get_strings(in);
  r.dlopen_lifted = get_strings(in);
  r.dlopen_unresolved = get_strings(in);
  r.wrap_cost = get_stats(in);
  r.changed = in.u8() != 0;
  return r;
}

void put_whatif_report(std::string& out,
                       const core::Session::WhatIfReport& report) {
  put_wrap_report(out, report.wrap);
  put_load_report(out, report.before);
  put_load_report(out, report.after);
  put_str(out, report.before_tree);
  put_str(out, report.after_tree);
  put_str(out, report.tree_diff);
}

void put_query_result(std::string& out, const QueryResult& result) {
  put_u64(out, result.inode_count);
  put_u64(out, result.layer_depth);
  put_u64(out, result.owned_bytes);
  put_u64(out, result.interned_paths);
  put_u64(out, result.mount_count);
  put_str(out, result.default_exe);
  put_u8(out, result.pristine ? 1 : 0);
}

// Offset of the payload length inside a response header.
constexpr std::size_t kResponseLengthOffset = 16;

void put_response_header(std::string& out, WireStatus status, WireKind kind,
                         std::uint64_t seq, std::size_t length) {
  if (length > 0xffffffffu) throw WireError("response payload too long");
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u64(out, seq);
  put_u32(out, static_cast<std::uint32_t>(length));
}

}  // namespace

std::string encode_load_report(const loader::LoadReport& report) {
  std::string out;
  put_load_report(out, report);
  return out;
}

loader::LoadReport decode_load_report(std::string_view bytes) {
  Cursor in{bytes};
  loader::LoadReport r = get_load_report(in);
  in.expect_done();
  return r;
}

std::string encode_load_reports(
    const std::vector<loader::LoadReport>& reports) {
  std::string out;
  put_load_reports(out, reports);
  return out;
}

std::vector<loader::LoadReport> decode_load_reports(std::string_view bytes) {
  Cursor in{bytes};
  const std::uint32_t n = in.u32();
  std::vector<loader::LoadReport> v;
  v.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(get_load_report(in));
  in.expect_done();
  return v;
}

std::string encode_wrap_report(const shrinkwrap::WrapReport& report) {
  std::string out;
  put_wrap_report(out, report);
  return out;
}

shrinkwrap::WrapReport decode_wrap_report(std::string_view bytes) {
  Cursor in{bytes};
  shrinkwrap::WrapReport r = get_wrap_report(in);
  in.expect_done();
  return r;
}

std::string encode_whatif_report(const core::Session::WhatIfReport& report) {
  std::string out;
  put_whatif_report(out, report);
  return out;
}

core::Session::WhatIfReport decode_whatif_report(std::string_view bytes) {
  Cursor in{bytes};
  core::Session::WhatIfReport r;
  r.wrap = get_wrap_report(in);
  r.before = get_load_report(in);
  r.after = get_load_report(in);
  r.before_tree = in.str();
  r.after_tree = in.str();
  r.tree_diff = in.str();
  in.expect_done();
  return r;
}

std::string encode_query_result(const QueryResult& result) {
  std::string out;
  put_query_result(out, result);
  return out;
}

QueryResult decode_query_result(std::string_view bytes) {
  Cursor in{bytes};
  QueryResult r;
  r.inode_count = static_cast<std::size_t>(in.u64());
  r.layer_depth = static_cast<std::size_t>(in.u64());
  r.owned_bytes = in.u64();
  r.interned_paths = static_cast<std::size_t>(in.u64());
  r.mount_count = static_cast<std::size_t>(in.u64());
  r.default_exe = in.str();
  r.pristine = in.u8() != 0;
  in.expect_done();
  return r;
}

// ---- frame assembly --------------------------------------------------------

std::string encode_request_frame(WireKind kind, ClientId client,
                                 std::uint64_t seq, std::string_view payload) {
  std::string out;
  out.reserve(kWireRequestHeaderBytes + payload.size());
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u8(out, 0);  // reserved
  put_u64(out, client);
  put_u64(out, seq);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

void WireResponse::throw_if_failed() const {
  switch (status) {
    case WireStatus::Ok:
      return;
    case WireStatus::Overloaded: {
      Cursor in{payload};
      const std::uint64_t shard = in.u64();
      const std::uint64_t depth = in.u64();
      const double retry = in.f64();
      in.expect_done();
      throw Overloaded(static_cast<std::size_t>(shard),
                       static_cast<std::size_t>(depth), retry);
    }
    case WireStatus::Error:
      throw WireError("server: " + payload);
  }
  throw WireError("bad response status " +
                  std::to_string(static_cast<int>(status)));
}

// ---- server ----------------------------------------------------------------

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void put_result(std::string& out, const std::vector<loader::LoadReport>& r) {
  put_load_reports(out, r);
}
void put_result(std::string& out, const core::Session::WhatIfReport& r) {
  put_whatif_report(out, r);
}
void put_result(std::string& out, const shrinkwrap::WrapReport& r) {
  put_wrap_report(out, r);
}
void put_result(std::string& out, const QueryResult& r) {
  put_query_result(out, r);
}

}  // namespace

struct WireServer::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
  Clock::time_point last_read = Clock::now();
  std::size_t in_flight = 0;  // admitted requests not yet answered
  /// No more reads: flush outbuf and finish in-flight requests, then close.
  bool closing = false;
};

WireServer::WireServer(SessionPool& pool, WireConfig config)
    : pool_(pool), config_(std::move(config)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw WireError("socket: " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw WireError("bad bind address " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string what = strerror(errno);
    ::close(listen_fd_);
    throw WireError("bind " + config_.host + ":" +
                    std::to_string(config_.port) + ": " + what);
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string what = strerror(errno);
    ::close(listen_fd_);
    throw WireError("listen: " + what);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const std::string what = strerror(errno);
    ::close(listen_fd_);
    throw WireError("pipe: " + what);
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
}

WireServer::~WireServer() {
  stop();
  // Closed only after the join: stop() and late completions write the
  // pipe, and must never race with (or outlive) these descriptors.
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

void WireServer::wake() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void WireServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
  wait();
}

void WireServer::wait() {
  std::lock_guard lock(join_mutex_);
  if (io_thread_.joinable()) io_thread_.join();
}

WireStats WireServer::stats() const {
  WireStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.active = active_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.overloaded = overloaded_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.shared_replies = shared_replies_.load(std::memory_order_relaxed);
  stats.buffered_out = buffered_out_.load(std::memory_order_relaxed);
  return stats;
}

void WireServer::close_connection(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  // Its in-flight requests still complete; their replies are dropped when
  // take_completions() finds no connection with this id (ids are never
  // reused, even when the fd number is).
  ::close(it->second->fd);
  connections_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void WireServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error: poll again later
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_connection_id_++;
    conn->fd = fd;
    connections_.emplace(conn->id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WireServer::respond(Connection& conn, WireStatus status, WireKind kind,
                         std::uint64_t seq, std::string_view payload) {
  put_response_header(conn.outbuf, status, kind, seq, payload.size());
  conn.outbuf.append(payload);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
}

void WireServer::dispatch(Connection& conn, SessionPool::Admission& admission,
                          WireKind kind, ClientId client, std::uint64_t seq,
                          std::string payload) {
  const std::uint64_t ticket = next_ticket_++;
  admission.tag(ticket);
  Reply reply;
  try {
    switch (kind) {
      case WireKind::Load:
        // submit_load_shared: N remote clients storming one exe share one
        // immutable report inside the server — and one encoding (put_load).
        reply = pool_.submit_load_shared(client, std::move(payload));
        break;
      case WireKind::LoadMany: {
        Cursor in{payload};
        std::vector<std::string> exes = get_strings(in);
        in.expect_done();
        reply = pool_.submit_load_many(client, std::move(exes));
        break;
      }
      case WireKind::Whatif:
        reply = pool_.submit_whatif(client, std::move(payload));
        break;
      case WireKind::Shrinkwrap:
        reply = pool_.submit_shrinkwrap(client, std::move(payload));
        break;
      case WireKind::Query:
        reply = pool_.submit_query(client);
        break;
      case WireKind::Reset:
        reply = pool_.reset(client);
        break;
      case WireKind::Shutdown:
        // Acknowledge first, then begin the same graceful drain stop()
        // performs; the response reaches the client because draining
        // flushes outbufs before closing.
        respond(conn, WireStatus::Ok, kind, seq, {});
        stop_requested_.store(true, std::memory_order_release);
        return;
    }
  } catch (const Overloaded& overloaded) {
    // Admission rejected synchronously: the remote client gets the same
    // shard/depth/retry-after an in-process submitter would, immediately.
    std::string out;
    put_u64(out, overloaded.shard());
    put_u64(out, overloaded.queue_depth());
    put_f64(out, overloaded.retry_after_s());
    respond(conn, WireStatus::Overloaded, kind, seq, out);
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    return;
  } catch (const WireError&) {
    // Payload decode failure: malformed by construction, not a verb
    // failure — let parse_frames count it and close the connection.
    throw;
  } catch (const std::exception& error) {
    respond(conn, WireStatus::Error, kind, seq, error.what());
    return;
  }
  in_flight_.emplace(ticket, InFlight{conn.id, seq, kind, std::move(reply)});
  ++conn.in_flight;
}

bool WireServer::accepting_reads(const Connection& conn) const {
  // Up to queue_high_water in flight, a full shard answers the next
  // request with Overloaded exactly as it would an in-process submitter;
  // past it the connection waits for replies to drain.
  return !conn.closing && conn.in_flight <= pool_.config().queue_high_water &&
         conn.outbuf.size() <= config_.max_frame_bytes;
}

bool WireServer::parse_frames(Connection& conn,
                              SessionPool::Admission& admission) {
  std::size_t consumed = 0;
  bool ok = true;
  while (accepting_reads(conn)) {
    const std::string_view rest = std::string_view(conn.inbuf).substr(consumed);
    if (rest.size() < kWireRequestHeaderBytes) break;
    Cursor header{rest};
    const std::uint32_t magic = header.u32();
    const std::uint16_t version = header.u16();
    const std::uint8_t kind_raw = header.u8();
    const std::uint8_t reserved = header.u8();
    const ClientId client = header.u64();
    const std::uint64_t seq = header.u64();
    const std::uint32_t length = header.u32();
    std::string error;
    WireKind error_kind = WireKind::Load;
    if (magic != kWireMagic) {
      error = "bad magic";
    } else if (version != kWireVersion) {
      error = "unsupported protocol version " + std::to_string(version);
    } else if (kind_raw > kWireKindMax || reserved != 0) {
      error = "bad request kind " + std::to_string(kind_raw);
    } else if (length > config_.max_frame_bytes) {
      error_kind = static_cast<WireKind>(kind_raw);
      error = "frame payload " + std::to_string(length) +
              " bytes exceeds max " + std::to_string(config_.max_frame_bytes);
    }
    if (!error.empty()) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      respond(conn, WireStatus::Error, error_kind, seq, error);
      ok = false;
      break;
    }
    if (rest.size() - kWireRequestHeaderBytes < length) {
      break;  // wait for the rest (read deadline bounds the wait)
    }
    std::string payload(rest.substr(kWireRequestHeaderBytes, length));
    consumed += kWireRequestHeaderBytes + length;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    try {
      dispatch(conn, admission, static_cast<WireKind>(kind_raw), client, seq,
               std::move(payload));
    } catch (const WireError& decode_error) {
      // Payload decode failure (e.g. a LoadMany whose strings overrun the
      // frame): malformed by construction — error frame, then close.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      respond(conn, WireStatus::Error, static_cast<WireKind>(kind_raw), seq,
              decode_error.what());
      ok = false;
      break;
    }
  }
  conn.inbuf.erase(0, consumed);
  return ok;
}

void WireServer::read_ready(Connection& conn) {
  // One recv per readiness: inbuf grows by at most one buffer's worth
  // beyond what accepting_reads() lets parse_frames admit.
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.inbuf.append(buffer, static_cast<std::size_t>(n));
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      conn.last_read = Clock::now();
      return;
    }
    if (n == 0) {
      // Peer finished sending. Whatever is in flight still gets flushed
      // (half-close support); a dangling partial frame is just dropped.
      conn.closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.closing = true;  // connection reset et al.: flush-and-close
    return;
  }
}

void WireServer::post_completion(std::uint64_t ticket) {
  bool was_empty = false;
  {
    std::lock_guard lock(completions_mutex_);
    was_empty = completions_.empty();
    completions_.push_back(ticket);
  }
  // One pipe write per batch: while the queue is non-empty the IO thread
  // already has a wake-up coming.
  if (was_empty) wake();
}

void WireServer::take_completions() {
  {
    std::lock_guard lock(completions_mutex_);
    ready_.swap(completions_);
  }
  for (const std::uint64_t ticket : ready_) {
    auto request = in_flight_.find(ticket);
    if (request == in_flight_.end()) continue;
    auto conn = connections_.find(request->second.connection);
    if (conn != connections_.end()) {
      --conn->second->in_flight;
      answer(*conn->second, request->second);
    }
    in_flight_.erase(request);
  }
  ready_.clear();
}

void WireServer::answer(Connection& conn, InFlight& request) {
  // Header and payload go straight into outbuf; the length is patched in
  // once the payload is written.
  std::string& out = conn.outbuf;
  const std::size_t start = out.size();
  try {
    put_response_header(out, WireStatus::Ok, request.kind, request.seq, 0);
    std::visit(
        [&](auto& future) {
          using T = decltype(future.get());
          if constexpr (std::is_void_v<T>) {
            future.get();
          } else if constexpr (std::is_same_v<
                                   T, std::shared_ptr<const loader::LoadReport>>) {
            put_load(out, future.get());
          } else {
            put_result(out, future.get());
          }
        },
        request.reply);
    const std::size_t length = out.size() - start - kWireResponseHeaderBytes;
    if (length > 0xffffffffu) throw WireError("response payload too long");
    set_u32(out, start + kResponseLengthOffset,
            static_cast<std::uint32_t>(length));
  } catch (const std::exception& error) {
    // The verb threw (bad exe, wrap failure): the client's problem,
    // reported as an Error frame; the connection stays open.
    out.resize(start);
    respond(conn, WireStatus::Error, request.kind, request.seq, error.what());
    return;
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
}

void WireServer::put_load(std::string& out,
                          std::shared_ptr<const loader::LoadReport> report) {
  const loader::LoadReport* const key = report.get();
  if (auto it = encoded_.find(key); it != encoded_.end()) {
    out += it->second.bytes;
    shared_replies_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The future handed its reference over, so a count of 1 means no other
  // holder (memo entry, another reply) exists: a fresh report only this
  // reply will ever carry. Encode it in place, uncached.
  const std::size_t start = out.size();
  put_load_report(out, *report);
  if (report.use_count() == 1) return;
  shared_replies_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = out.size() - start;
  if (size > config_.max_frame_bytes) return;
  if (encoded_bytes_ + size > config_.max_frame_bytes) {
    encoded_.clear();
    encoded_bytes_ = 0;
  }
  encoded_bytes_ += size;
  encoded_.emplace(key, Encoded{std::move(report), out.substr(start, size)});
}

bool WireServer::flush_writes(Connection& conn) {
  std::size_t sent = 0;
  bool alive = true;
  while (sent < conn.outbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + sent,
                             conn.outbuf.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the rest waits for POLLOUT. Anything else (EPIPE,
    // ECONNRESET): the peer is gone.
    alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    break;
  }
  bytes_out_.fetch_add(sent, std::memory_order_relaxed);
  conn.outbuf.erase(0, sent);
  return alive;
}

void WireServer::settle_connections() {
  const Clock::time_point now = Clock::now();
  std::vector<std::uint64_t> done;
  std::uint64_t buffered = 0;
  for (auto& [id, conn_ptr] : connections_) {
    Connection& conn = *conn_ptr;
    if (!conn.outbuf.empty() && !flush_writes(conn)) {
      done.push_back(id);
      continue;
    }
    if (!accepting_reads(conn)) {
      // The server is not reading this connection, so it cannot be
      // stalling mid-frame: its read deadline starts when reading resumes.
      if (!conn.closing) conn.last_read = now;
    } else if (!conn.inbuf.empty() &&
               seconds_between(conn.last_read, now) > config_.read_deadline_s) {
      // A PARTIAL frame that stalls is a protocol failure (complete ones
      // were admitted when it was read).
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      respond(conn, WireStatus::Error, WireKind::Load, 0,
              "read deadline exceeded mid-frame");
      flush_writes(conn);
      conn.closing = true;
      conn.inbuf.clear();
    }
    if (conn.closing && conn.in_flight == 0 && conn.outbuf.empty()) {
      done.push_back(id);
      continue;
    }
    buffered += conn.outbuf.size();
  }
  for (const std::uint64_t id : done) close_connection(id);
  buffered_out_.store(buffered, std::memory_order_relaxed);
}

void WireServer::io_loop() {
  bool draining = false;
  Clock::time_point drain_start{};
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> polled;  // connection id of each pfds entry
  const auto on_done = [this](std::uint64_t ticket) { post_completion(ticket); };

  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_start = Clock::now();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop reading new requests; what was admitted will be answered.
      for (auto& [id, conn] : connections_) conn->closing = true;
    }

    // Push replies out, enforce read deadlines, reap finished connections.
    settle_connections();
    const Clock::time_point now = Clock::now();
    const double drain_left_s =
        kDrainDeadlineS - seconds_between(drain_start, now);
    if (draining && (connections_.empty() || drain_left_s < 0)) break;

    // Sleep until a socket, a completion (wake pipe) or the nearest
    // deadline needs the IO thread; nothing is polled on a timer.
    double wait_s = -1;  // forever
    const auto wake_within = [&wait_s](double seconds) {
      seconds = std::max(seconds, 0.0);
      wait_s = wait_s < 0 ? seconds : std::min(wait_s, seconds);
    };
    if (draining) wake_within(drain_left_s);
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    if (listen_fd_ >= 0) pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const std::size_t first_conn = pfds.size();
    for (const auto& [id, conn] : connections_) {
      short events = 0;
      if (accepting_reads(*conn)) {
        events |= POLLIN;
        if (!conn->inbuf.empty()) {
          wake_within(config_.read_deadline_s -
                      seconds_between(conn->last_read, now));
        }
      }
      if (!conn->outbuf.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
      polled.push_back(id);
    }
    ::poll(pfds.data(), pfds.size(),
           wait_s < 0 ? -1 : static_cast<int>(std::ceil(wait_s * 1e3)));

    if (pfds[0].revents & POLLIN) {
      // Completions write one byte per batch, so one read empties the pipe
      // (anything left just wakes the next poll).
      char sink[64];
      [[maybe_unused]] const ssize_t n =
          ::read(wake_read_fd_, sink, sizeof(sink));
    }
    // After reading the pipe: a completion posted from here on writes it
    // again, so none is missed.
    take_completions();
    if (first_conn > 1 && (pfds[1].revents & POLLIN)) accept_ready();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = pfds[first_conn + i].revents;
      auto it = connections_.find(polled[i]);
      if (revents == 0 || it == connections_.end()) continue;
      Connection& conn = *it->second;
      if ((revents & (POLLERR | POLLNVAL)) ||
          ((revents & POLLHUP) && conn.closing)) {
        // Broken, or hung up while we were already closing: nothing more
        // can be delivered.
        close_connection(conn.id);
      } else if ((revents & (POLLIN | POLLHUP)) && !conn.closing) {
        read_ready(conn);
      }
    }

    // Admit every complete frame buffered on any connection — this read's
    // and those held back while a connection was at its limits — in one
    // Admission, so each touched shard is woken once.
    std::optional<SessionPool::Admission> admission;
    for (auto& [id, conn] : connections_) {
      if (conn->inbuf.empty() || !accepting_reads(*conn)) continue;
      if (!admission) admission.emplace(pool_, on_done);
      if (!parse_frames(*conn, *admission)) {
        // Malformed frame: the error response is already queued; stop
        // reading and close once it is flushed.
        conn->closing = true;
        conn->inbuf.clear();
      }
    }
  }

  // Teardown: anything still open is force-closed (drain deadline), then
  // the pool quiesces, which also runs every outstanding completion.
  while (!connections_.empty()) close_connection(connections_.begin()->first);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  pool_.drain();
  in_flight_.clear();
  encoded_.clear();
  running_.store(false, std::memory_order_release);
}

// ---- client ----------------------------------------------------------------

WireClient::WireClient(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    throw WireError("resolve " + host + ": " + gai_strerror(rc));
  }
  int last_errno = 0;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(results);
  if (fd_ < 0) {
    throw WireError("connect " + host + ":" + std::to_string(port) + ": " +
                    strerror(last_errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 30;  // each blocking recv gives up after 30 s
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

void WireClient::write_all(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError("send: " + std::string(strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::uint64_t WireClient::send(WireKind kind, ClientId client,
                               std::string_view payload) {
  const std::uint64_t seq = next_seq_++;
  write_all(encode_request_frame(kind, client, seq, payload));
  return seq;
}

WireResponse WireClient::recv_response() {
  // Make `needed` unconsumed bytes available from read_pos_.
  auto fill_to = [this](std::size_t needed) {
    while (read_buffer_.size() - read_pos_ < needed) {
      if (read_pos_ != 0) {  // refill: drop the consumed prefix first
        read_buffer_.erase(0, read_pos_);
        read_pos_ = 0;
      }
      char buffer[64 * 1024];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        read_buffer_.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw WireError("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireError("recv timeout");
      }
      throw WireError("recv: " + std::string(strerror(errno)));
    }
  };
  fill_to(kWireResponseHeaderBytes);
  Cursor header{std::string_view(read_buffer_).substr(read_pos_)};
  const std::uint32_t magic = header.u32();
  const std::uint16_t version = header.u16();
  const std::uint8_t status = header.u8();
  const std::uint8_t kind = header.u8();
  const std::uint64_t seq = header.u64();
  const std::uint32_t length = header.u32();
  if (magic != kWireMagic) throw WireError("response: bad magic");
  if (version != kWireVersion) {
    throw WireError("response: unsupported version " + std::to_string(version));
  }
  if (status > static_cast<std::uint8_t>(WireStatus::Overloaded) ||
      kind > kWireKindMax) {
    throw WireError("response: bad status/kind byte");
  }
  if (length > (1u << 30)) throw WireError("response: absurd payload length");
  fill_to(kWireResponseHeaderBytes + length);
  WireResponse response;
  response.status = static_cast<WireStatus>(status);
  response.kind = static_cast<WireKind>(kind);
  response.seq = seq;
  response.payload =
      read_buffer_.substr(read_pos_ + kWireResponseHeaderBytes, length);
  read_pos_ += kWireResponseHeaderBytes + length;
  if (read_pos_ == read_buffer_.size()) {
    read_buffer_.clear();
    read_pos_ = 0;
  }
  return response;
}

WireResponse WireClient::recv_for(std::uint64_t seq) {
  if (auto it = stash_.find(seq); it != stash_.end()) {
    WireResponse response = std::move(it->second);
    stash_.erase(it);
    return response;
  }
  for (;;) {
    WireResponse response = recv_response();
    if (response.seq == seq) return response;
    stash_.emplace(response.seq, std::move(response));
  }
}

WireResponse WireClient::call(WireKind kind, ClientId client,
                              std::string_view payload) {
  return recv_for(send(kind, client, payload));
}

loader::LoadReport WireClient::load(ClientId client, const std::string& exe) {
  WireResponse response = call(WireKind::Load, client, exe);
  response.throw_if_failed();
  return decode_load_report(response.payload);
}

std::vector<loader::LoadReport> WireClient::load_many(
    ClientId client, std::vector<std::string> exes) {
  std::string payload;
  put_strings(payload, exes);
  WireResponse response = call(WireKind::LoadMany, client, payload);
  response.throw_if_failed();
  return decode_load_reports(response.payload);
}

core::Session::WhatIfReport WireClient::whatif(ClientId client,
                                               const std::string& exe) {
  WireResponse response = call(WireKind::Whatif, client, exe);
  response.throw_if_failed();
  return decode_whatif_report(response.payload);
}

shrinkwrap::WrapReport WireClient::shrinkwrap(ClientId client,
                                              const std::string& exe) {
  WireResponse response = call(WireKind::Shrinkwrap, client, exe);
  response.throw_if_failed();
  return decode_wrap_report(response.payload);
}

QueryResult WireClient::query(ClientId client) {
  WireResponse response = call(WireKind::Query, client, {});
  response.throw_if_failed();
  return decode_query_result(response.payload);
}

void WireClient::reset(ClientId client) {
  call(WireKind::Reset, client, {}).throw_if_failed();
}

void WireClient::shutdown() {
  call(WireKind::Shutdown, 0, {}).throw_if_failed();
}

}  // namespace depchaos::svc
