// svc wire layer — the session service over a socket.
//
// PR 7-9 built svc::SessionPool, but it was only reachable in-process;
// this header makes the pool externally loadable: a versioned,
// length-prefixed binary protocol plus a poll-driven WireServer that
// decodes request frames into the existing submit_* calls and a blocking
// WireClient that drives it. The storm story does not change — remote
// clients hit the same sharded admission queues, ride the same Load memo,
// and receive the same Overloaded backpressure (shard, queue depth, and
// retry-after cross the wire, so a remote client backs off exactly like
// an in-process one).
//
// Frame layout (all integers little-endian; doubles are IEEE-754 bit
// patterns in a u64):
//
//   request:   magic  u32   0x44435750 ("DCWP" read as bytes P,W,C,D)
//              version u16  3
//              kind    u8   WireKind
//              reserved u8  must be 0
//              client  u64  caller-chosen ClientId (the fork identity;
//                           connections are transport, ids are state)
//              seq     u64  echoed verbatim in the response
//              length  u32  payload byte count
//              payload ...  per-kind encoding (see below)
//
//   response:  magic u32, version u16, status u8 (WireStatus), kind u8
//              (echo), seq u64, length u32, payload ...
//
// Request payloads: Load/Whatif/Shrinkwrap carry the exe path as raw
// bytes (empty = the world's default exe); LoadMany a u32 count then
// length-prefixed strings; Query/Reset/Shutdown are empty.
// Response payloads: Ok carries the canonical encoding of the result
// type (encode_load_report and friends below — the SAME bytes a caller
// would get by encoding the in-process submit_* result, which is what
// the loopback byte-identity tests assert); Error carries the exception
// message as raw bytes; Overloaded carries shard u64 + queue depth u64 +
// retry-after f64.
//
// LaunchFleet does not cross the wire: its SandboxSpec carries an
// in-memory image filesystem and FleetConfig a rank_setup hook — neither
// serializes. (LoadedObject::object, the parsed ELF handle, is likewise a
// process-local cache handle and is not encoded; decode leaves it null.)
//
// Robustness by construction: per-connection read deadline (a partial
// frame that stalls past it gets an error frame, then close) and
// max-frame bound; malformed, truncated, or bit-flipped frames are
// answered with a clean Error frame and a connection close — never a
// crash or a hung strand; writes are MSG_NOSIGNAL (SIGPIPE-safe) and a
// peer that disconnects mid-request just has its in-flight responses
// discarded. Per-connection state is bounded: a connection stops being
// read while it has more than the pool's queue_high_water requests in
// flight or more than max_frame_bytes of replies unsent, so a client that
// pipelines and never reads meets TCP backpressure instead of growing
// server memory. Graceful shutdown stops accepting, flushes every in-flight
// response (for at most 10 s), then drains the pool.
//
//   svc::SessionPool pool(std::move(base));
//   svc::WireServer server(pool);               // ephemeral port
//   svc::WireClient client("127.0.0.1", server.port());
//   loader::LoadReport r = client.load(7, "/usr/bin/bin0");
//   server.stop();                              // graceful
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "depchaos/svc/session_pool.hpp"

namespace depchaos::svc {

inline constexpr std::uint32_t kWireMagic = 0x44435750u;  // "DCWP"
inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::size_t kWireRequestHeaderBytes = 28;
inline constexpr std::size_t kWireResponseHeaderBytes = 20;

/// Request kinds a frame can carry. Shutdown is the admin verb the CI
/// smoke uses to stop a `depchaos serve --listen` host from the client
/// side; everything else maps 1:1 onto a SessionPool submit_* call.
enum class WireKind : std::uint8_t {
  Load = 0,
  LoadMany = 1,
  Whatif = 2,
  Shrinkwrap = 3,
  Query = 4,
  Reset = 5,
  Shutdown = 6,
};
inline constexpr std::uint8_t kWireKindMax =
    static_cast<std::uint8_t>(WireKind::Shutdown);

enum class WireStatus : std::uint8_t {
  Ok = 0,
  Error = 1,       // the verb threw; payload = exception message
  Overloaded = 2,  // admission rejected; payload = shard, depth, retry-after
};

/// Malformed frame, truncated payload, protocol violation, or a transport
/// failure on the client side.
class WireError : public Error {
 public:
  explicit WireError(const std::string& what) : Error("wire: " + what) {}
};

// ---- canonical result encodings -------------------------------------------
// Deterministic byte encodings of every wire-served result type. These are
// the protocol's response payloads AND the byte-identity oracle: encoding
// an in-process submit_* result must equal the payload a remote client
// received for the same request. decode_* inverts encode_* exactly
// (encode(decode(bytes)) == bytes for valid input) and throws WireError on
// truncated or trailing bytes.

std::string encode_load_report(const loader::LoadReport& report);
loader::LoadReport decode_load_report(std::string_view bytes);

std::string encode_load_reports(const std::vector<loader::LoadReport>& reports);
std::vector<loader::LoadReport> decode_load_reports(std::string_view bytes);

std::string encode_wrap_report(const shrinkwrap::WrapReport& report);
shrinkwrap::WrapReport decode_wrap_report(std::string_view bytes);

std::string encode_whatif_report(const core::Session::WhatIfReport& report);
core::Session::WhatIfReport decode_whatif_report(std::string_view bytes);

std::string encode_query_result(const QueryResult& result);
QueryResult decode_query_result(std::string_view bytes);

// ---- frame assembly --------------------------------------------------------

std::string encode_request_frame(WireKind kind, ClientId client,
                                 std::uint64_t seq, std::string_view payload);

/// One decoded response frame (header + raw payload). Typed accessors on
/// WireClient decode the payload; byte-identity tests compare it raw.
struct WireResponse {
  WireStatus status = WireStatus::Ok;
  WireKind kind = WireKind::Load;
  std::uint64_t seq = 0;
  std::string payload;

  /// Throws: Overloaded (reconstructed — shard/depth/retry-after survive
  /// the wire) on Overloaded status, WireError carrying the server's
  /// message on Error status. No-op on Ok.
  void throw_if_failed() const;
};

// ---- server ----------------------------------------------------------------

struct WireConfig {
  /// Bind address. Loopback by default: the simulator's service is a
  /// same-host demo unless deliberately exposed.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; WireServer::port() reports the bound port either way.
  std::uint16_t port = 0;
  /// Frames whose payload length exceeds this are decode errors (error
  /// frame, then close) — a garbage length prefix cannot make the server
  /// buffer gigabytes. Also bounds each connection's unsent replies (past
  /// it the connection is not read) and the server's cache of encoded
  /// memo-shared Load reports.
  std::uint32_t max_frame_bytes = 8u << 20;
  /// A connection sitting on a PARTIAL frame longer than this gets an
  /// error frame and a close (idle connections between frames are fine).
  double read_deadline_s = 30.0;
};

/// Counters a running server exposes (joins the PoolStats dashboard).
struct WireStats {
  std::uint64_t accepted = 0;       // connections ever accepted
  std::uint64_t active = 0;         // connections open right now
  std::uint64_t frames_in = 0;      // well-formed request frames decoded
  std::uint64_t frames_out = 0;     // response frames fully written
  std::uint64_t decode_errors = 0;  // malformed/truncated/oversized frames
  std::uint64_t timeouts = 0;       // read-deadline closes
  std::uint64_t overloaded = 0;     // responses carrying backpressure
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Load replies whose report the pool's memo shares between clients:
  /// encoded once, then copied from the server's encode cache.
  std::uint64_t shared_replies = 0;
  /// Reply bytes queued in connection buffers, not yet sent (gauge).
  std::uint64_t buffered_out = 0;
};

/// Completion-driven socket front end over a SessionPool. One
/// acceptor+IO thread owns every connection and sleeps in poll(2) until a
/// socket or a completed request needs it. It decodes every complete frame
/// of a read into pool submit_* calls inside one SessionPool::Admission
/// (so admission, memoization, and backpressure are the pool's —
/// unchanged — and each touched shard is woken once per read), and writes
/// responses AS THEY COMPLETE: each command's completion queues its ticket
/// for the IO thread and writes the wake pipe only when that queue was
/// empty. Responses are tagged by request sequence number — a slow
/// shrinkwrap never blocks a later query on the same connection
/// (out-of-order completion is the contract; clients match on seq).
///
/// Encode once: a Load reply whose report the pool shares between clients
/// (the one object every model-free memo hit returns, and a re-priced hit
/// on a fresh fork) is encoded the first time and served from a cache
/// keyed by the report's identity afterwards. The cache pins the reports
/// it holds, so an address cannot be reused by another report, and keeps
/// at most max_frame_bytes of encoded payload. Reports nothing else holds
/// (re-priced hits on a fork an earlier load warmed, loads on diverged
/// forks) are encoded straight into the reply and not cached.
class WireServer {
 public:
  /// Binds and starts serving immediately. Throws WireError if the
  /// address cannot be bound. The pool must outlive the server.
  explicit WireServer(SessionPool& pool, WireConfig config = {});
  ~WireServer();  // graceful stop()

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// The bound port (the actual one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, finish in-flight requests and
  /// flush their responses (for at most 10 s, then the stragglers are
  /// force-closed), close every connection, then drain the pool.
  /// Idempotent; safe to call while a remote Shutdown frame is doing the
  /// same thing.
  void stop();

  /// Block until the server has stopped (a remote Shutdown frame or a
  /// concurrent stop()).
  void wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  WireStats stats() const;

 private:
  struct Connection;

  /// A pool future per request kind; the IO thread reads the one a
  /// completion names, which is ready by then.
  using Reply =
      std::variant<std::future<std::shared_ptr<const loader::LoadReport>>,
                   std::future<std::vector<loader::LoadReport>>,
                   std::future<core::Session::WhatIfReport>,
                   std::future<shrinkwrap::WrapReport>,
                   std::future<QueryResult>, std::future<void>>;
  struct InFlight {
    std::uint64_t connection = 0;  // Connection::id (never reused)
    std::uint64_t seq = 0;
    WireKind kind = WireKind::Load;
    Reply reply;
  };
  struct Encoded {
    std::shared_ptr<const loader::LoadReport> pin;
    std::string bytes;
  };

  void io_loop();
  void accept_ready();
  void read_ready(Connection& conn);
  bool accepting_reads(const Connection& conn) const;
  /// Admit the complete frames buffered on `conn`; false = close it.
  bool parse_frames(Connection& conn, SessionPool::Admission& admission);
  void dispatch(Connection& conn, SessionPool::Admission& admission,
                WireKind kind, ClientId client, std::uint64_t seq,
                std::string payload);
  void post_completion(std::uint64_t ticket);  // pool worker threads
  void take_completions();
  void answer(Connection& conn, InFlight& request);
  void put_load(std::string& out,
                std::shared_ptr<const loader::LoadReport> report);
  void settle_connections();
  bool flush_writes(Connection& conn);  // false = peer gone, close
  void respond(Connection& conn, WireStatus status, WireKind kind,
               std::uint64_t seq, std::string_view payload);
  void close_connection(std::uint64_t id);
  void wake();

  SessionPool& pool_;
  WireConfig config_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Completed tickets, pushed by pool workers and taken by the IO thread.
  std::mutex completions_mutex_;
  std::vector<std::uint64_t> completions_;

  // Owned exclusively by the IO thread after construction.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 1;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;  // by ticket
  std::uint64_t next_ticket_ = 1;
  std::vector<std::uint64_t> ready_;  // tickets being answered
  std::unordered_map<const loader::LoadReport*, Encoded> encoded_;
  std::size_t encoded_bytes_ = 0;

  // Counters are atomics: written by the IO thread, read by stats().
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> shared_replies_{0};
  std::atomic<std::uint64_t> buffered_out_{0};

  std::mutex join_mutex_;  // serializes the join in stop()/wait()
  std::thread io_thread_;
};

// ---- client ----------------------------------------------------------------

/// Blocking client for one connection. Typed helpers do a full round trip
/// and decode; send()/recv_response() are the pipelining primitives the
/// out-of-order tests use (send N requests, then collect responses in
/// whatever order the server finishes them — recv_for() stashes frames
/// for other sequence numbers).
class WireClient {
 public:
  /// Connects (getaddrinfo; numeric IPs and names both work). Throws
  /// WireError on failure. Each blocking recv gives up after 30 s.
  WireClient(const std::string& host, std::uint16_t port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // ---- typed round trips (throw Overloaded / WireError on failure) --------
  loader::LoadReport load(ClientId client, const std::string& exe = {});
  std::vector<loader::LoadReport> load_many(ClientId client,
                                            std::vector<std::string> exes);
  core::Session::WhatIfReport whatif(ClientId client,
                                     const std::string& exe = {});
  shrinkwrap::WrapReport shrinkwrap(ClientId client,
                                    const std::string& exe = {});
  QueryResult query(ClientId client);
  void reset(ClientId client);
  /// Ask the server to shut down gracefully (responds before stopping).
  void shutdown();

  /// One full round trip returning the raw response frame (what the
  /// byte-identity tests compare against encode_* of in-process results).
  WireResponse call(WireKind kind, ClientId client,
                    std::string_view payload = {});

  // ---- pipelining primitives ----------------------------------------------
  /// Write one request frame; returns its sequence number.
  std::uint64_t send(WireKind kind, ClientId client,
                     std::string_view payload = {});
  /// Read the next response frame off the socket (any seq).
  WireResponse recv_response();
  /// Read until the response for `seq` arrives; responses for other
  /// sequence numbers are stashed and returned by their own recv_for().
  WireResponse recv_for(std::uint64_t seq);

 private:
  void write_all(std::string_view bytes);

  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  /// Received bytes; those before read_pos_ are consumed. Compacted only
  /// when a refill needs room, so pipelined replies are never memmoved
  /// once per frame.
  std::string read_buffer_;
  std::size_t read_pos_ = 0;
  std::unordered_map<std::uint64_t, WireResponse> stash_;
};

}  // namespace depchaos::svc
