#ifndef AEDB_NET_SERVER_H_
#define AEDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/reactor/connection.h"
#include "net/reactor/exec_pool.h"
#include "server/database.h"

namespace aedb::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = pick an ephemeral port; the bound port is available from port()
  /// after Start() (tests and the loopback bench rely on this).
  uint16_t port = 0;
  int backlog = 64;
  /// Mid-frame stall bound: a client that goes silent inside a frame is
  /// disconnected after this long. Costs a timer-sweep check, never a
  /// thread (mid-frame disconnect robustness).
  uint32_t read_timeout_ms = 30'000;
  /// Zero-progress flush bound: a peer that accepts no response bytes for
  /// this long is presumed dead.
  uint32_t write_timeout_ms = 30'000;
  /// Frames claiming a larger payload are rejected before allocation.
  uint32_t max_payload = kDefaultMaxPayload;
  /// Cap on concurrently served connections (0 = unlimited). Excess accepts
  /// get a typed kOverloaded error frame and an immediate close instead of
  /// a silent accept-and-starve; see connections_rejected.
  uint32_t max_connections = 0;
  /// Retry-after hint (milliseconds) carried by connection rejections.
  uint32_t overload_retry_after_ms = 20;

  // ----- event-driven I/O subsystem -----

  /// epoll event-loop threads. One is right for most hosts (the loops only
  /// shuffle bytes; execution happens on the worker pool); connections are
  /// assigned round-robin when more than one.
  uint32_t io_threads = 1;
  /// Base execution workers consuming the run queue (Database::Execute,
  /// attestation, DDL — everything that may block lives here).
  uint32_t exec_threads = 4;
  /// Elastic ceiling for the worker pool. Workers parked in lock waits must
  /// not starve the request that would release them (often the lock
  /// holder's own next statement), so the pool grows up to this bound
  /// before the run queue starts shedding.
  uint32_t max_exec_threads = 32;
  /// Bound on decoded-but-not-yet-executing requests. A full queue answers
  /// with a typed kOverloaded frame straight from the event loop.
  uint32_t run_queue_depth = 512;
  /// Per-connection cap on buffered unsent response bytes; a reader slower
  /// than this is disconnected (slow_reader_disconnects). 0 = auto
  /// (max_payload + 1 MiB, i.e. "one full response plus change").
  size_t write_buffer_cap = 0;
  /// Reap connections idle (between frames) longer than this. 0 = never:
  /// idle pools are legitimate, the default serves them for free.
  uint32_t idle_timeout_ms = 0;
  /// A connection must complete its handshake within this bound or it is
  /// reaped (pre-handshake sockets are the cheapest thing to hoard).
  uint32_t handshake_timeout_ms = 30'000;
};

/// Per-server counters (monotonic; read with relaxed ordering — use
/// SnapshotStats() for a single coherent read).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  /// Framing-level failures (bad magic/version/length, truncation,
  /// mid-frame EOF or stall).
  std::atomic<uint64_t> protocol_errors{0};
  /// Requests that executed but returned a non-OK Status.
  std::atomic<uint64_t> request_errors{0};
  /// Query frames stamped with a non-zero retry attempt — driver recovery
  /// traffic as seen from the server side.
  std::atomic<uint64_t> retries_seen{0};
  /// Successful kAttest round trips (enclave sessions minted). Grows past
  /// the connection count when clients re-attest after an enclave restart.
  std::atomic<uint64_t> sessions_attested{0};
  /// Connections turned away at accept time with a typed kOverloaded frame
  /// (max_connections cap or the net/accept_reject fault point).
  std::atomic<uint64_t> connections_rejected{0};

  // ----- event-loop gauges -----

  /// epoll_wait returns summed over all I/O threads.
  std::atomic<uint64_t> epoll_wakeups{0};
  /// Deepest the run queue (decoded requests awaiting a worker) has been.
  std::atomic<uint64_t> run_queue_highwater{0};
  /// Requests shed with a typed kOverloaded because the run queue was full.
  std::atomic<uint64_t> run_queue_sheds{0};
  /// Most execution workers ever live at once (elastic growth watermark).
  std::atomic<uint64_t> exec_threads_peak{0};
  /// Idle connections reaped by the idle_timeout_ms sweep.
  std::atomic<uint64_t> idle_reaps{0};
  /// Connections cut for not consuming their responses (write_buffer_cap).
  std::atomic<uint64_t> slow_reader_disconnects{0};
  /// Connections reaped for never completing a handshake.
  std::atomic<uint64_t> handshake_timeouts{0};
};

/// One coherent, race-free copy of every server counter (satisfies "read
/// the stats once, reason about them together" — e.g. asserting
/// frames_out >= frames_in - protocol_errors without the counters moving
/// between loads).
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;
  uint64_t request_errors = 0;
  uint64_t retries_seen = 0;
  uint64_t sessions_attested = 0;
  uint64_t connections_rejected = 0;
  uint64_t epoll_wakeups = 0;
  uint64_t run_queue_highwater = 0;
  uint64_t run_queue_sheds = 0;
  uint64_t exec_threads_peak = 0;
  uint64_t idle_reaps = 0;
  uint64_t slow_reader_disconnects = 0;
  uint64_t handshake_timeouts = 0;
};

/// \brief Event-driven TCP front end for a `server::Database`.
///
/// A small set of epoll I/O threads drives every connection as a
/// non-blocking state machine (reactor::Connection): reads are decoded
/// incrementally into frames, one request per connection executes at a time
/// (EPOLLIN is parked while it does — the kernel socket buffer is the
/// backpressure), responses are buffered and flushed on EPOLLOUT. Decoded
/// requests cross a bounded run queue into an elastic execution worker pool
/// where everything that may block — Database::Execute with its WAL fsyncs
/// and lock waits, attestation RSA — lives; I/O threads never block. A full
/// run queue answers with a typed kOverloaded + retry-after straight from
/// the event loop. Idle connections cost one epoll registration, so tens of
/// thousands of live sessions fit in a handful of threads (the paper's
/// SQL Server deployment shape: huge session counts, few schedulers).
///
/// Framing errors (bad magic, oversized length, truncated frame) poison the
/// byte stream, so the server answers with a best-effort kError frame and
/// closes that connection. Request-level failures (unknown message type,
/// malformed payload, non-OK Database status) answer kError and keep the
/// connection alive.
class Server {
 public:
  Server(server::SqlBackend* db, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, spawns the I/O loops and the worker pool. Idempotent
  /// failure: on error nothing is running and Start may be retried.
  Status Start();

  /// Graceful shutdown: stops accepting, finishes in-flight requests,
  /// closes every connection, joins all threads. Safe to call twice.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound TCP port (valid after Start()).
  uint16_t port() const { return port_; }
  /// The server's own counters. The database's counters are read from
  /// SqlBackend::Stats().
  const ServerStats& stats() const {
    RefreshGauges();
    return stats_;
  }
  ServerStatsSnapshot SnapshotStats() const;

 private:
  struct IoShard;
  struct AcceptHandler;
  friend struct IoShard;
  friend struct AcceptHandler;

  /// What an execution worker hands back to the event loop.
  struct RequestOutcome {
    Bytes response;
    bool keep_open = true;
    bool handshaken = false;  ///< this request completed the handshake
  };

  // ----- acceptor (runs on shard 0's loop thread) -----
  void DoAccept();
  void AdoptConnection(IoShard* shard, int fd, uint64_t conn_id);
  void RejectConnection(IoShard* shard, int fd, uint64_t conn_id);

  // ----- connection delegate paths (run on the owning loop thread) -----
  bool OnFrame(IoShard* shard, reactor::Connection* conn,
               const FrameHeader& header, Bytes payload);
  void OnProtocolError(IoShard* shard, reactor::Connection* conn,
                       const Status& error);
  void OnConnClosed(IoShard* shard, reactor::Connection* conn,
                    reactor::CloseReason reason);
  /// Periodic timeout sweep for one shard (ticker).
  void SweepShard(IoShard* shard);

  /// Runs on an execution worker: decodes the request payload, runs it
  /// against the database and encodes the response frame (kError frames for
  /// failures). Blocking is allowed here and only here.
  RequestOutcome ExecuteRequest(MsgType type, const Bytes& payload,
                                uint64_t conn_id);

  reactor::Connection::Options ConnOptions() const;
  /// Copies the reactor's live gauges (run queue, exec threads, epoll
  /// wakeups) into stats_.
  void RefreshGauges() const;

  server::SqlBackend* db_;
  ServerConfig config_;
  mutable ServerStats stats_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::vector<std::unique_ptr<IoShard>> shards_;
  std::unique_ptr<reactor::ExecPool> pool_;
  std::unique_ptr<AcceptHandler> accept_handler_;
  uint64_t next_connection_id_ = 1;  // acceptor only (shard 0 loop thread)
  size_t next_shard_ = 0;            // round-robin cursor, acceptor only
};

}  // namespace aedb::net

#endif  // AEDB_NET_SERVER_H_
