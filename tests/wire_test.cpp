// svc wire layer — the session service over a socket.
//
// The load-bearing property mirrors svc_test's: the wire must be
// invisible. A loopback round trip for every request kind returns a
// payload BYTE-IDENTICAL to encoding the in-process submit_* result on a
// twin pool driven with the same op sequence — framing, pipelining, and
// out-of-order completion change nothing a client can observe. The other
// half is robustness: truncated, oversized, wrong-magic, wrong-version,
// and bit-flipped frames get a clean Error frame and a close, never a
// crash or a wedged server; Overloaded backpressure crosses the wire with
// shard/depth/retry-after intact.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/elf/patcher.hpp"
#include "depchaos/launch/launch.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"

namespace depchaos::svc {
namespace {

using core::Session;
using core::WorldBuilder;
using elf::make_executable;
using elf::make_library;

// Same deterministic twin-world fleet as svc_test: byte-identical worlds
// let the wire-served pool and the in-process reference pool run the same
// ops and be compared field for field.
std::vector<std::string> install_fleet(WorldBuilder& builder,
                                       std::size_t count) {
  builder.install("/usr/lib/libcommon.so", make_library("libcommon.so"));
  std::vector<std::string> exes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    builder.install("/apps/a" + n + "/lib/libpriv" + n + ".so",
                    make_library("libpriv" + n + ".so", {"libcommon.so"}));
    builder.install(
        "/apps/a" + n + "/bin/app",
        make_executable({"libpriv" + n + ".so"}, {"/apps/a" + n + "/lib"}));
    exes.push_back("/apps/a" + n + "/bin/app");
  }
  return exes;
}

Session make_world(std::size_t apps = 4) {
  WorldBuilder builder;
  install_fleet(builder, apps);
  return builder.build();
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[at++]))
         << shift;
  }
  return v;
}

std::string load_many_payload(const std::vector<std::string>& exes) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(exes.size()));
  for (const auto& exe : exes) {
    put_u32(payload, static_cast<std::uint32_t>(exe.size()));
    payload += exe;
  }
  return payload;
}

/// Raw loopback socket for malformed-frame tests: writes arbitrary bytes
/// (something WireClient, which only emits valid frames, cannot do) and
/// reads whatever comes back until the server closes or a deadline hits.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Abort the connection with an RST (SO_LINGER 0), so the server sees it
  /// fail at once instead of an orderly end of stream.
  void reset() {
    const linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    close();
  }

  /// Non-blocking send of as much of `bytes` as the socket takes; returns
  /// the count (0 when the socket is full or gone).
  std::size_t try_write(std::string_view bytes) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  int fd() const { return fd_; }

  void write_bytes(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;  // server already closed on us — fine
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Read until EOF or 5s of silence; returns everything received.
  std::string read_until_close() {
    std::string received;
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) break;
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      received.append(buffer, static_cast<std::size_t>(n));
    }
    return received;
  }

 private:
  int fd_ = -1;
};

struct RawResponse {
  WireStatus status;
  std::uint64_t seq;
  std::string payload;
};

/// Parse response frames out of a raw byte stream (header layout per
/// wire.hpp: magic u32, version u16, status u8, kind u8, seq u64, len u32).
std::vector<RawResponse> parse_responses(const std::string& bytes) {
  std::vector<RawResponse> frames;
  std::size_t at = 0;
  while (bytes.size() - at >= kWireResponseHeaderBytes) {
    EXPECT_EQ(get_u32(bytes, at), kWireMagic);
    const std::uint8_t status = static_cast<std::uint8_t>(bytes[at + 6]);
    std::uint64_t seq = 0;
    for (int b = 0; b < 8; ++b) {
      seq |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[at + 8 + b]))
             << (8 * b);
    }
    const std::uint32_t length = get_u32(bytes, at + 16);
    if (bytes.size() - at - kWireResponseHeaderBytes < length) break;
    frames.push_back(RawResponse{static_cast<WireStatus>(status), seq,
                                 bytes.substr(at + kWireResponseHeaderBytes,
                                              length)});
    at += kWireResponseHeaderBytes + length;
  }
  EXPECT_EQ(at, bytes.size()) << "trailing partial frame from server";
  return frames;
}

/// Holds the strand of a client's shard from outside the pool: a
/// LaunchFleet whose rank_setup hook blocks until open(). Once constructed,
/// the strand is inside the hook and the shard queue is empty, so what is
/// submitted next for that shard waits in the queue. The hook blocks before
/// the pool records a service time, so twin pools held alike give the same
/// Overloaded retry-after hint. Declare a Gate after the WireServer it
/// holds work for: its destructor opens it before the server's stop()
/// drains the pool.
class Gate {
 public:
  Gate(SessionPool& pool, ClientId client) {
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> in_hook = entered->get_future();
    launch::FleetConfig fleet;
    fleet.rank_setup = [entered, opened = opened_](Session&, int) {
      entered->set_value();
      opened.wait();
    };
    pool.submit_launch_fleet(client, {}, "/apps/a0/bin/app", 1,
                             std::move(fleet));
    in_hook.wait();
  }
  ~Gate() { open(); }

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  void open() {
    if (!is_open_) open_.set_value();
    is_open_ = true;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  bool is_open_ = false;
};

// ------------------------------------------------------------------ codecs

TEST(WireCodec, RoundTripsEveryResultType) {
  Session session = make_world();
  const std::string exe = "/apps/a0/bin/app";

  const loader::LoadReport load = session.load(exe);
  const std::string load_bytes = encode_load_report(load);
  EXPECT_EQ(encode_load_report(decode_load_report(load_bytes)), load_bytes);

  // Whatif runs shrinkwrap inside a fork; its report embeds wrap + two
  // load reports + trees, covering every nested codec in one shot.
  const Session::WhatIfReport whatif = session.whatif(exe, {}, {});
  const std::string whatif_bytes = encode_whatif_report(whatif);
  EXPECT_EQ(encode_whatif_report(decode_whatif_report(whatif_bytes)),
            whatif_bytes);

  const std::string wrap_bytes = encode_wrap_report(whatif.wrap);
  EXPECT_EQ(encode_wrap_report(decode_wrap_report(wrap_bytes)), wrap_bytes);

  QueryResult query;
  query.inode_count = 17;
  query.layer_depth = 3;
  query.owned_bytes = 123456789;
  query.interned_paths = 42;
  query.mount_count = 2;
  query.default_exe = exe;
  query.pristine = false;
  const std::string query_bytes = encode_query_result(query);
  EXPECT_EQ(encode_query_result(decode_query_result(query_bytes)),
            query_bytes);

  const std::string many_bytes = encode_load_reports({load, load});
  EXPECT_EQ(encode_load_reports(decode_load_reports(many_bytes)), many_bytes);
}

TEST(WireCodec, EveryTruncationThrowsAndTrailingBytesThrow) {
  Session session = make_world();
  const std::string bytes = encode_load_report(session.load("/apps/a0/bin/app"));
  ASSERT_GT(bytes.size(), 8u);
  // Every proper prefix is a truncation; none may crash or decode.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_load_report(bytes.substr(0, cut)), WireError)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_THROW(decode_load_report(bytes + "x"), WireError);
  EXPECT_THROW(decode_query_result(std::string_view{}), WireError);
}

// ------------------------------------------------- loopback byte identity

// Every wire kind, one connection, against an in-process twin pool driven
// with the SAME op sequence — raw wire payloads must equal encode_*() of
// the twin's results (interned-path counts and fork state depend on op
// history, so the sequences must match op for op).
TEST(WireServer, LoopbackByteIdenticalToInProcessForEveryKind) {
  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 4);
  WorldBuilder twin_b;
  install_fleet(twin_b, 4);

  SessionPool local(twin_a.build());
  SessionPool served(twin_b.build());
  WireServer server(served);
  WireClient client("127.0.0.1", server.port());
  const ClientId id = 7;

  // Load
  WireResponse response = client.call(WireKind::Load, id, exes[0]);
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(response.kind, WireKind::Load);
  EXPECT_EQ(response.payload,
            encode_load_report(*local.submit_load_shared(id, exes[0]).get()));

  // LoadMany
  const std::vector<std::string> many = {exes[1], exes[2], exes[1]};
  response = client.call(WireKind::LoadMany, id, load_many_payload(many));
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(response.payload,
            encode_load_reports(local.submit_load_many(id, many).get()));

  // Query (fork state now diverges from pristine — both did the loads)
  response = client.call(WireKind::Query, id, {});
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(response.payload,
            encode_query_result(local.submit_query(id).get()));

  // Whatif
  response = client.call(WireKind::Whatif, id, exes[0]);
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(response.payload,
            encode_whatif_report(local.submit_whatif(id, exes[0]).get()));

  // Shrinkwrap (mutates the fork)
  response = client.call(WireKind::Shrinkwrap, id, exes[3]);
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(response.payload,
            encode_wrap_report(local.submit_shrinkwrap(id, exes[3]).get()));

  // Reset, then Query again: the post-reset state must match too.
  response = client.call(WireKind::Reset, id, {});
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_TRUE(response.payload.empty());
  local.reset(id).get();
  response = client.call(WireKind::Query, id, {});
  EXPECT_EQ(response.payload,
            encode_query_result(local.submit_query(id).get()));

  // A load that throws in the pool (missing exe) crosses the wire as an
  // Error frame carrying the same exception message — never a hang or an
  // unexplained close.
  response = client.call(WireKind::Load, id, "/no/such/exe");
  std::string direct_error;
  try {
    local.submit_load_shared(id, "/no/such/exe").get();
  } catch (const std::exception& error) {
    direct_error = error.what();
  }
  ASSERT_FALSE(direct_error.empty());
  EXPECT_EQ(response.status, WireStatus::Error);
  EXPECT_EQ(response.payload, direct_error);

  const WireStats wire = server.stats();
  EXPECT_EQ(wire.accepted, 1u);
  EXPECT_EQ(wire.decode_errors, 0u);
  EXPECT_EQ(wire.frames_in, wire.frames_out);

  // Shutdown: acknowledged, then the server drains and stops.
  client.shutdown();
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(WireServer, TypedClientHelpersDecodeWhatTheTwinPoolProduces) {
  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 3);
  WorldBuilder twin_b;
  install_fleet(twin_b, 3);

  SessionPool local(twin_a.build());
  SessionPool served(twin_b.build());
  WireServer server(served);
  WireClient client("127.0.0.1", server.port());

  const loader::LoadReport remote = client.load(1, exes[0]);
  const loader::LoadReport direct = *local.submit_load_shared(1, exes[0]).get();
  EXPECT_EQ(encode_load_report(remote), encode_load_report(direct));
  EXPECT_EQ(remote.load_order.size(), direct.load_order.size());

  const QueryResult remote_query = client.query(1);
  const QueryResult direct_query = local.submit_query(1).get();
  EXPECT_EQ(encode_query_result(remote_query),
            encode_query_result(direct_query));
}

// ------------------------------------------------------ overload and order

TEST(WireServer, OverloadedCrossesTheWireWithRetryAfterIntact) {
  // A gate holds the client's strand on both pools, so the first request
  // parks in the shard queue and the second trips the high-water mark.
  PoolConfig config;
  config.queue_high_water = 1;

  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 2);
  WorldBuilder twin_b;
  install_fleet(twin_b, 2);

  // In-process reference: same gate and two submits on a twin pool.
  SessionPool local(twin_a.build(), config);
  const ClientId id = 5;
  Gate local_gate(local, id);
  auto parked = local.submit_load_shared(id, exes[0]);
  std::size_t want_shard = 0, want_depth = 0;
  double want_retry = -1.0;
  try {
    local.submit_load(id, exes[0]);
    FAIL() << "twin pool did not reject";
  } catch (const Overloaded& overloaded) {
    want_shard = overloaded.shard();
    want_depth = overloaded.queue_depth();
    want_retry = overloaded.retry_after_s();
  }

  SessionPool served(twin_b.build(), config);
  WireServer server(served);
  Gate served_gate(served, id);
  WireClient client("127.0.0.1", server.port());
  const std::uint64_t seq_a = client.send(WireKind::Load, id, exes[0]);
  const std::uint64_t seq_b = client.send(WireKind::Load, id, exes[0]);

  // The rejection for B overtakes the still-parked A: out-of-order
  // responses by sequence number are the contract.
  WireResponse rejected = client.recv_for(seq_b);
  EXPECT_EQ(rejected.status, WireStatus::Overloaded);
  try {
    rejected.throw_if_failed();
    FAIL() << "Overloaded response did not throw";
  } catch (const Overloaded& overloaded) {
    EXPECT_EQ(overloaded.shard(), want_shard);
    EXPECT_EQ(overloaded.queue_depth(), want_depth);
    EXPECT_DOUBLE_EQ(overloaded.retry_after_s(), want_retry);
    EXPECT_GT(overloaded.retry_after_s(), 0.0);
  }

  // Un-park A on both pools and compare the payloads.
  local_gate.open();
  served_gate.open();
  WireResponse ok = client.recv_for(seq_a);
  EXPECT_EQ(ok.status, WireStatus::Ok);
  EXPECT_EQ(ok.payload, encode_load_report(*parked.get()));
  EXPECT_GE(server.stats().overloaded, 1u);
}

// --------------------------------------------------------- malformed input

TEST(WireServer, MalformedFramesGetErrorFrameThenCloseNeverCrash) {
  SessionPool pool(make_world());
  WireServer server(pool);
  const std::string valid =
      encode_request_frame(WireKind::Load, 1, 9, "/apps/a0/bin/app");

  struct Case {
    const char* name;
    std::string frame;
  };
  std::vector<Case> cases;
  {
    std::string f = valid;
    f[0] = 'X';  // wrong magic
    cases.push_back({"wrong-magic", f});
  }
  {
    std::string f = valid;
    f[4] = 99;  // wrong version
    cases.push_back({"wrong-version", f});
  }
  {
    std::string f = valid;
    f[6] = 0x7f;  // unknown kind
    cases.push_back({"bad-kind", f});
  }
  // The protocol numbers: kind 7 is one past Shutdown, and version 2 is
  // the one before this.
  EXPECT_EQ(kWireKindMax + 1, 7);
  EXPECT_EQ(kWireVersion - 1, 2);
  {
    std::string f = valid;
    f[6] = 7;
    cases.push_back({"kind-past-max", f});
  }
  {
    std::string f = valid;
    f[4] = 2;
    cases.push_back({"previous-version", f});
  }
  {
    std::string f = valid;
    f[7] = 1;  // reserved byte must be zero
    cases.push_back({"reserved-set", f});
  }
  {
    // Oversized: a length prefix past max_frame_bytes must be rejected
    // from the header alone, without buffering the announced gigabytes.
    std::string f = encode_request_frame(WireKind::Load, 1, 9, {});
    f.resize(kWireRequestHeaderBytes - 4);
    put_u32(f, 0xfffffff0u);
    cases.push_back({"oversized", f});
  }
  {
    // Malformed payload: LoadMany announcing 1000 strings in 4 bytes.
    std::string payload;
    put_u32(payload, 1000);
    cases.push_back(
        {"payload-overrun",
         encode_request_frame(WireKind::LoadMany, 1, 9, payload)});
  }

  for (const Case& bad : cases) {
    SCOPED_TRACE(bad.name);
    RawConn conn(server.port());
    conn.write_bytes(bad.frame);
    const auto frames = parse_responses(conn.read_until_close());
    ASSERT_EQ(frames.size(), 1u) << "want exactly one error frame";
    EXPECT_EQ(frames[0].status, WireStatus::Error);
    EXPECT_FALSE(frames[0].payload.empty());
  }

  // A truncated frame followed by a client close is just dropped: no
  // response owed, no wedge.
  {
    RawConn conn(server.port());
    conn.write_bytes(valid.substr(0, kWireRequestHeaderBytes - 3));
    conn.close();
  }

  // The server survived all of it: a fresh valid round trip still works.
  WireClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.load(1, "/apps/a0/bin/app").success);
  const WireStats wire = server.stats();
  EXPECT_EQ(wire.decode_errors, cases.size());
}

TEST(WireServer, BitFlippedFramesNeverCrashOrWedge) {
  SessionPool pool(make_world());
  WireServer server(pool);
  const std::string valid =
      encode_request_frame(WireKind::Load, 3, 1, "/apps/a0/bin/app");

  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    std::string frame = valid;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[rng() % frame.size()] ^=
          static_cast<char>(1u << (rng() % 8));
    }
    RawConn conn(server.port());
    conn.write_bytes(frame);
    conn.close();
    // No assertion on the response — a flip may yield a valid frame (Ok),
    // a pool-level failure (Error), a protocol violation (Error + close),
    // or a length that leaves the frame forever-partial (dropped at our
    // close). The property is that the server survives every one.
  }

  WireClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.load(1, "/apps/a0/bin/app").success);
}

TEST(WireServer, MidRequestDisconnectDiscardsResponsesQuietly) {
  SessionPool pool(make_world());
  WireServer server(pool);
  for (int round = 0; round < 8; ++round) {
    RawConn conn(server.port());
    // Pipeline several requests, then vanish before reading anything: the
    // completed responses hit a dead socket (SIGPIPE-safe send) and the
    // connection is reaped.
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      conn.write_bytes(
          encode_request_frame(WireKind::Load, 1, seq, "/apps/a0/bin/app"));
    }
    conn.close();
  }
  // Quiesce the pool (all admitted loads finish), then prove liveness.
  pool.drain();
  WireClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.load(1, "/apps/a0/bin/app").success);
}

TEST(WireServer, StalledPartialFrameHitsReadDeadline) {
  SessionPool pool(make_world());
  WireConfig config;
  config.read_deadline_s = 0.2;
  WireServer server(pool, config);

  RawConn conn(server.port());
  const std::string valid =
      encode_request_frame(WireKind::Load, 1, 1, "/apps/a0/bin/app");
  conn.write_bytes(valid.substr(0, valid.size() - 4));  // stall mid-frame
  const auto frames = parse_responses(conn.read_until_close());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, WireStatus::Error);
  EXPECT_NE(frames[0].payload.find("deadline"), std::string::npos);
  EXPECT_EQ(server.stats().timeouts, 1u);

  // Idle-but-complete connections do NOT time out: only partial frames do.
  WireClient client("127.0.0.1", server.port());
  EXPECT_TRUE(client.load(1, "/apps/a0/bin/app").success);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(client.load(1, "/apps/a0/bin/app").success);
  EXPECT_EQ(server.stats().timeouts, 1u);
}

// ------------------------------------------- completion-driven front end

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::stoi(entry->d_name));
    }
    ::closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

long voluntary_switches(pid_t tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    const std::string key = "voluntary_ctxt_switches:";
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  }
  return -1;
}

template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The IO thread sleeps in poll() while a request is in flight: the parked
// Load's completion, not a timer, is what will wake it.
TEST(WireServer, IdleIoThreadSleepsWhileARequestIsParked) {
  SessionPool pool(make_world());
  const std::vector<pid_t> before = thread_ids();
  WireServer server(pool);
  const std::vector<pid_t> after = thread_ids();
  Gate gate(pool, 1);  // the Load stays queued until the gate opens
  std::vector<pid_t> added;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  ASSERT_EQ(added.size(), 1u) << "cannot tell the IO thread apart";
  const pid_t io = added.front();

  WireClient client("127.0.0.1", server.port());
  const std::uint64_t seq = client.send(WireKind::Load, 1, "/apps/a0/bin/app");
  ASSERT_TRUE(eventually([&] { return server.stats().frames_in == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const long start = voluntary_switches(io);
  ASSERT_GE(start, 0);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(voluntary_switches(io) - start, 50);

  gate.open();
  EXPECT_EQ(client.recv_for(seq).status, WireStatus::Ok);
}

// Encode once: memo-shared reports are served from the encode cache, and
// every such reply is byte-identical to encoding the in-process result —
// across many client ids, pipelined, after the cache is warm.
TEST(WireServer, MemoSharedRepliesFromTheEncodeCacheAreByteIdentical) {
  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 4);
  WorldBuilder twin_b;
  install_fleet(twin_b, 4);
  SessionPool local(twin_a.build());
  SessionPool served(twin_b.build());
  WireServer server(served);
  WireClient client("127.0.0.1", server.port());

  std::vector<std::string> expected;
  for (const auto& exe : exes) {
    expected.push_back(encode_load_report(*local.submit_load_shared(1, exe).get()));
    EXPECT_EQ(client.call(WireKind::Load, 1, exe).payload, expected.back());
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> sent;
  for (int round = 0; round < 3; ++round) {
    for (ClientId id = 2; id < 66; ++id) {
      const std::size_t exe = (id + round) % exes.size();
      sent.emplace_back(client.send(WireKind::Load, id, exes[exe]), exe);
    }
  }
  for (const auto& [seq, exe] : sent) {
    const WireResponse response = client.recv_for(seq);
    EXPECT_EQ(response.status, WireStatus::Ok);
    EXPECT_EQ(response.payload, expected[exe]) << exes[exe];
  }
  // Misses are memo entries too: every reply carried a shared report.
  EXPECT_EQ(server.stats().shared_replies, exes.size() + sent.size());
}

// Under a latency model memo hits are re-priced per client — fresh reports
// the cache must never serve: each client's reply equals its twin pool's,
// so no client receives another client's sim_time_s.
TEST(WireServer, RepricedRepliesUnderNfsMatchTheTwinPool) {
  WorldBuilder twin_a;
  const auto exes = install_fleet(twin_a, 3);
  WorldBuilder twin_b;
  install_fleet(twin_b, 3);
  Session base_a = twin_a.build();
  base_a.fs().set_latency_model(vfs::LatencyModel::nfs());
  Session base_b = twin_b.build();
  base_b.fs().set_latency_model(vfs::LatencyModel::nfs());
  SessionPool local(std::move(base_a));
  SessionPool served(std::move(base_b));
  ASSERT_TRUE(served.repricing_active());
  WireServer server(served);
  WireClient client("127.0.0.1", server.port());

  std::size_t checked = 0;
  std::set<std::string> distinct;
  for (int round = 0; round < 3; ++round) {
    for (ClientId id = 1; id <= 8; ++id) {
      const std::string& exe = exes[(id + round) % exes.size()];
      const std::string want =
          encode_load_report(*local.submit_load_shared(id, exe).get());
      const WireResponse response = client.call(WireKind::Load, id, exe);
      EXPECT_EQ(response.status, WireStatus::Ok);
      EXPECT_EQ(response.payload, want) << "client " << id << " " << exe;
      distinct.insert(want);
      ++checked;
    }
  }
  // Warm and cold clients were priced differently, so a cache keyed on
  // anything but the report's identity would have shown up above.
  EXPECT_GT(distinct.size(), exes.size());
  EXPECT_EQ(checked, 24u);
  // Each client's first Load ran on a fresh fork: the three misses and
  // five hits priced like their miss carried the memo's own report, so
  // they count as shared; the 16 warm-fork hits are fresh copies.
  EXPECT_EQ(server.stats().shared_replies, 8u);
}

// A completion that lands after its connection was torn down is dropped;
// the next connection — likely on the very same fd number — only ever sees
// its own replies.
TEST(WireServer, StaleCompletionNeverReachesTheNextConnection) {
  SessionPool pool(make_world());
  WireServer server(pool);
  Gate gate(pool, 1);  // seq 777 waits behind it
  {
    RawConn doomed(server.port());
    doomed.write_bytes(
        encode_request_frame(WireKind::Load, 1, 777, "/apps/a0/bin/app"));
    ASSERT_TRUE(eventually([&] { return server.stats().frames_in == 1; }));
    doomed.reset();
  }
  ASSERT_TRUE(eventually([&] { return server.stats().active == 0; }));

  WireClient next("127.0.0.1", server.port());
  ASSERT_TRUE(eventually([&] { return server.stats().active == 1; }));
  // Seq 777 completes for a connection that no longer exists: the server
  // admitted it before closing that connection, so drain() waits for it.
  gate.open();
  pool.drain();
  const std::uint64_t seq = next.send(WireKind::Load, 2, "/apps/a1/bin/app");
  const WireResponse response = next.recv_response();
  EXPECT_EQ(response.seq, seq);
  EXPECT_EQ(response.status, WireStatus::Ok);
  EXPECT_EQ(server.stats().frames_out, 1u);
}

// A client that pipelines without ever reading: the server stops reading
// it once its unsent replies pass max_frame_bytes, so TCP backpressure —
// not server memory — absorbs the flood, and other clients are served.
TEST(WireServer, NeverReadingClientMeetsBackpressureOthersAreServed) {
  PoolConfig pool_config;
  pool_config.queue_high_water = 64;
  SessionPool pool(make_world(), pool_config);
  WireConfig config;
  config.max_frame_bytes = 64 * 1024;
  WireServer server(pool, config);
  const std::string exe = "/apps/a0/bin/app";
  const std::size_t reply_frame =
      kWireResponseHeaderBytes +
      encode_load_report(*pool.submit_load_shared(99, exe).get()).size();

  constexpr std::uint64_t kFrames = 100'000;
  std::string flood;
  for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
    flood += encode_request_frame(WireKind::Load, seq % 16, seq, exe);
  }
  RawConn flooder(server.port());
  std::size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < flood.size() &&
         std::chrono::steady_clock::now() - last_progress <
             std::chrono::milliseconds(500)) {
    const std::size_t n = flooder.try_write(std::string_view(flood).substr(sent));
    if (n > 0) {
      sent += n;
      last_progress = std::chrono::steady_clock::now();
    } else {
      pollfd pfd{flooder.fd(), POLLOUT, 0};
      ::poll(&pfd, 1, 50);
    }
  }
  // Let the in-flight requests finish into the outbuf.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const WireStats stats = server.stats();
  EXPECT_LT(stats.frames_in, kFrames) << "the server never stopped reading";
  // Past max_frame_bytes the connection is not read; what can still land
  // are the replies of requests already in flight (at most the pool's
  // high-water mark plus one) and the frames of the read that crossed it.
  EXPECT_LE(stats.buffered_out,
            config.max_frame_bytes +
                (pool_config.queue_high_water + 2) * reply_frame);

  WireClient other("127.0.0.1", server.port());
  EXPECT_TRUE(other.load(7, exe).success);
}

}  // namespace
}  // namespace depchaos::svc
