#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fault/fault.h"

namespace aedb::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void AppendErrorFrame(Bytes* out, const Status& status) {
  Bytes payload;
  EncodeStatusPayload(&payload, status);
  AppendFrame(out, MsgType::kError, payload);
}

}  // namespace

/// One epoll loop plus the connections it owns. The maps are touched only
/// on the loop's own thread (delegate callbacks, posted completions, the
/// ticker all run there), so they need no lock.
struct Server::IoShard : public reactor::ConnectionDelegate {
  Server* server = nullptr;
  reactor::EventLoop loop;
  std::unordered_map<uint64_t, reactor::Connection*> conns;
  /// Connections that were turned away at accept: they exist only to flush
  /// a typed kOverloaded frame and drain briefly. Never counted active.
  std::unordered_map<uint64_t, reactor::Connection*> rejects;

  bool OnFrame(reactor::Connection* conn, const FrameHeader& header,
               Bytes payload) override {
    return server->OnFrame(this, conn, header, std::move(payload));
  }
  void OnProtocolError(reactor::Connection* conn,
                       const Status& error) override {
    server->OnProtocolError(this, conn, error);
  }
  void OnClosed(reactor::Connection* conn,
                reactor::CloseReason reason) override {
    server->OnConnClosed(this, conn, reason);
  }
  void OnBytesIn(size_t n) override {
    server->stats_.bytes_in.fetch_add(n, std::memory_order_relaxed);
  }
};

/// The listening socket's event handler; lives on shard 0's loop.
struct Server::AcceptHandler : public reactor::EventHandler {
  explicit AcceptHandler(Server* s) : server(s) {}
  void OnEvents(uint32_t) override { server->DoAccept(); }
  Server* server;
};

Server::Server(server::SqlBackend* db, ServerConfig config)
    : db_(db), config_(std::move(config)) {}

Server::~Server() { Stop(); }

reactor::Connection::Options Server::ConnOptions() const {
  reactor::Connection::Options opts;
  opts.max_payload = config_.max_payload;
  opts.write_buffer_cap = config_.write_buffer_cap != 0
                              ? config_.write_buffer_cap
                              : config_.max_payload + (1u << 20);
  opts.read_timeout_ms = config_.read_timeout_ms;
  opts.write_timeout_ms = config_.write_timeout_ms;
  opts.idle_timeout_ms = config_.idle_timeout_ms;
  opts.handshake_timeout_ms = config_.handshake_timeout_ms;
  return opts;
}

Status Server::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " + config_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno("bind " + config_.bind_address + ":" +
                      std::to_string(config_.port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, config_.backlog) < 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  reactor::ExecPool::Options pool_opts;
  pool_opts.base_threads = config_.exec_threads != 0 ? config_.exec_threads : 1;
  pool_opts.max_threads = config_.max_exec_threads;
  pool_opts.queue_depth = config_.run_queue_depth;
  pool_ = std::make_unique<reactor::ExecPool>(pool_opts);

  // Sweep granularity: a quarter of the tightest timeout, within [10, 100]
  // ms. Connection deadlines are therefore enforced within ~1.25x their
  // nominal value in the worst case, at negligible idle cost.
  uint64_t tightest = config_.read_timeout_ms != 0 ? config_.read_timeout_ms
                                                   : 30'000;
  auto tighten = [&](uint32_t v) {
    if (v != 0 && v < tightest) tightest = v;
  };
  tighten(config_.write_timeout_ms);
  tighten(config_.handshake_timeout_ms);
  tighten(config_.idle_timeout_ms);
  uint32_t tick_ms =
      static_cast<uint32_t>(std::min<uint64_t>(100, std::max<uint64_t>(10, tightest / 4)));

  uint32_t io_threads = config_.io_threads != 0 ? config_.io_threads : 1;
  for (uint32_t i = 0; i < io_threads; ++i) {
    auto shard = std::make_unique<IoShard>();
    shard->server = this;
    IoShard* raw = shard.get();
    Status st = shard->loop.Start(tick_ms, [this, raw] { SweepShard(raw); });
    if (!st.ok()) {
      shards_.clear();
      pool_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    shards_.push_back(std::move(shard));
  }

  accept_handler_ = std::make_unique<AcceptHandler>(this);
  Status st = shards_[0]->loop.Add(listen_fd_, EPOLLIN, accept_handler_.get());
  if (!st.ok()) {
    for (auto& shard : shards_) shard->loop.Stop();
    shards_.clear();
    pool_.reset();
    accept_handler_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  running_.store(false, std::memory_order_release);
  if (shards_.empty() && pool_ == nullptr) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }

  // 1. Retire the listener on its own loop thread (closing it from here
  //    could race an in-flight DoAccept against kernel fd reuse).
  if (listen_fd_ >= 0 && !shards_.empty()) {
    std::promise<void> done;
    auto fut = done.get_future();
    bool posted = shards_[0]->loop.Post([this, &done] {
      (void)shards_[0]->loop.Del(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      done.set_value();
    });
    if (posted) {
      fut.wait();
    } else {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // 2. Drain the execution pool: in-flight requests finish and post their
  //    completions (the loops are still running to take them); queued-but-
  //    unstarted work is dropped — its connections die in step 3 anyway.
  if (pool_) {
    stats_.run_queue_highwater.store(pool_->queue_highwater(),
                                     std::memory_order_relaxed);
    stats_.run_queue_sheds.store(pool_->queue_rejected(),
                                 std::memory_order_relaxed);
    stats_.exec_threads_peak.store(pool_->peak_threads(),
                                   std::memory_order_relaxed);
    pool_->Stop();
  }

  // 3. Close every connection on its own loop, then stop the loops. The
  //    close-all task is posted before Stop so the loop runs it on its way
  //    out.
  for (auto& shard : shards_) {
    IoShard* raw = shard.get();
    (void)raw->loop.Post([this, raw] {
      std::vector<reactor::Connection*> all;
      all.reserve(raw->conns.size() + raw->rejects.size());
      for (auto& [id, c] : raw->conns) all.push_back(c);
      for (auto& [id, c] : raw->rejects) all.push_back(c);
      for (auto* c : all) c->Close(reactor::CloseReason::kServerStop);
    });
  }
  for (auto& shard : shards_) {
    stats_.epoll_wakeups.fetch_add(shard->loop.wakeups(),
                                   std::memory_order_relaxed);
    shard->loop.Stop();
    // The loop thread is joined; anything the close-all task missed (it can
    // be dropped if the loop was already exiting) is freed here.
    for (auto& [id, c] : shard->conns) delete c;
    for (auto& [id, c] : shard->rejects) delete c;
    shard->conns.clear();
    shard->rejects.clear();
  }
  shards_.clear();
  pool_.reset();
  accept_handler_.reset();
}

// ---------------------------------------------------------------------------
// Accept path (shard 0 loop thread)
// ---------------------------------------------------------------------------

void Server::DoAccept() {
  for (;;) {
    if (listen_fd_ < 0) return;
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained the backlog) or listener closed
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    uint64_t conn_id = next_connection_id_++;

    // Admission at the connection level: turn surplus connections away with
    // a typed kOverloaded frame instead of accept-and-starve. The polite
    // reject (write frame, half-close, bounded drain) rides this same event
    // loop as a short-lived state machine — no thread is ever parked on a
    // rejected client, so the acceptor keeps admitting legitimate
    // connections at full speed precisely when the server is at its cap.
    bool reject =
        config_.max_connections > 0 &&
        stats_.connections_active.load(std::memory_order_relaxed) >=
            config_.max_connections;
    fault::FaultSpec spec;
    if (AEDB_FAULT_FIRED("net/accept_reject", &spec)) reject = true;
    if (reject) {
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      RejectConnection(shards_[0].get(), fd, conn_id);
      continue;
    }

    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
    IoShard* shard = shards_[next_shard_++ % shards_.size()].get();
    if (shard == shards_[0].get()) {
      AdoptConnection(shard, fd, conn_id);
    } else if (!shard->loop.Post([this, shard, fd, conn_id] {
                 AdoptConnection(shard, fd, conn_id);
               })) {
      ::close(fd);
      stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Server::AdoptConnection(IoShard* shard, int fd, uint64_t conn_id) {
  auto* conn =
      new reactor::Connection(&shard->loop, fd, conn_id, ConnOptions(), shard);
  if (!conn->Register().ok()) {
    delete conn;  // closes fd
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  shard->conns[conn_id] = conn;
}

void Server::RejectConnection(IoShard* shard, int fd, uint64_t conn_id) {
  auto* conn =
      new reactor::Connection(&shard->loop, fd, conn_id, ConnOptions(), shard);
  if (!conn->Register().ok()) {
    delete conn;
    return;
  }
  shard->rejects[conn_id] = conn;
  Bytes err;
  AppendErrorFrame(&err, Status::Overloaded(AppendRetryAfterHint(
                             "server connection limit reached",
                             config_.overload_retry_after_ms)));
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(err.size(), std::memory_order_relaxed);
  // Half-close and drain briefly after the flush: if we closed with the
  // client's handshake bytes unread, the kernel could RST and destroy the
  // queued error frame before the client sees its typed rejection. The
  // drain is doubly bounded (bytes and a deadline enforced by the sweep),
  // so a client that keeps streaming junk cannot hold the state machine
  // beyond the budget.
  if (conn->Send(std::move(err))) {
    conn->CloseAfterFlush(reactor::CloseReason::kRequestClose);
  }
}

// ---------------------------------------------------------------------------
// Connection delegate paths (owning loop thread)
// ---------------------------------------------------------------------------

bool Server::OnFrame(IoShard* shard, reactor::Connection* conn,
                     const FrameHeader& header, Bytes payload) {
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);

  if (!conn->handshaken() && header.type != MsgType::kHandshake) {
    stats_.request_errors.fetch_add(1, std::memory_order_relaxed);
    Bytes err;
    AppendErrorFrame(&err, Status::FailedPrecondition(
                               "first frame on a connection must be Handshake"));
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_out.fetch_add(err.size(), std::memory_order_relaxed);
    if (conn->Send(std::move(err))) {
      conn->CloseAfterFlush(reactor::CloseReason::kRequestClose);
    }
    return false;
  }

  uint64_t conn_id = conn->id();
  MsgType type = header.type;
  bool submitted = pool_->TrySubmit([this, shard, conn_id, type,
                                     payload = std::move(payload)] {
    RequestOutcome outcome = ExecuteRequest(type, payload, conn_id);

    // Fault points on the response path (no-ops unless armed; see fault.h).
    // They sleep, which is exactly why requests execute here and not on an
    // I/O thread.
    fault::FaultSpec spec;
    if (type == MsgType::kHandshake &&
        AEDB_FAULT_FIRED("net/handshake_stall", &spec)) {
      // Hold the handshake reply long enough for the client's read timeout
      // to expire (arg = stall in ms, default 100).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec.arg != 0 ? spec.arg : 100));
    }
    if (AEDB_FAULT_FIRED("net/delay_response", &spec)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec.arg != 0 ? spec.arg : 50));
    }
    size_t drop_prefix = 0;
    bool drop = false;
    if (!outcome.response.empty() &&
        AEDB_FAULT_FIRED("net/drop_mid_frame", &spec)) {
      // Write a strict prefix of the response frame (arg = bytes, default
      // half) and hang up: the client observes a mid-frame disconnect.
      drop = true;
      drop_prefix = spec.arg != 0 && spec.arg < outcome.response.size()
                        ? static_cast<size_t>(spec.arg)
                        : outcome.response.size() / 2;
    }

    // Deliver the completion on the connection's loop. The connection may
    // have died while we executed (timeout sweep, client reset, Stop); the
    // lookup by id makes that a clean drop rather than a dangling pointer.
    (void)shard->loop.Post([this, shard, conn_id, drop, drop_prefix,
                            outcome = std::move(outcome)]() mutable {
      auto it = shard->conns.find(conn_id);
      if (it == shard->conns.end()) return;
      reactor::Connection* conn = it->second;
      if (outcome.handshaken) conn->MarkHandshaken();
      if (drop) {
        stats_.bytes_out.fetch_add(drop_prefix, std::memory_order_relaxed);
        conn->SendPrefixAndClose(std::move(outcome.response), drop_prefix);
        return;
      }
      stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_out.fetch_add(outcome.response.size(),
                                 std::memory_order_relaxed);
      if (!conn->Send(std::move(outcome.response))) return;
      if (!outcome.keep_open) {
        conn->CloseAfterFlush(reactor::CloseReason::kRequestClose);
        return;
      }
      conn->Resume();
    });
  });

  if (!submitted) {
    // Run queue full (and the elastic pool already at its ceiling): shed
    // with a typed kOverloaded + retry-after, straight from the event loop.
    // The connection stays open and keeps reading — the client backs off.
    stats_.request_errors.fetch_add(1, std::memory_order_relaxed);
    Bytes err;
    AppendErrorFrame(&err, Status::Overloaded(AppendRetryAfterHint(
                               "server run queue full",
                               config_.overload_retry_after_ms)));
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_out.fetch_add(err.size(), std::memory_order_relaxed);
    return conn->Send(std::move(err));
  }
  return false;  // park: one request in flight per connection
}

void Server::OnProtocolError(IoShard* shard, reactor::Connection* conn,
                             const Status& error) {
  (void)shard;
  // The stream is out of sync; tell the peer why and hang up.
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  Bytes err;
  AppendErrorFrame(&err, error);
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(err.size(), std::memory_order_relaxed);
  if (conn->Send(std::move(err))) {
    conn->CloseAfterFlush(reactor::CloseReason::kDecodeError);
  }
}

void Server::OnConnClosed(IoShard* shard, reactor::Connection* conn,
                          reactor::CloseReason reason) {
  if (shard->rejects.erase(conn->id()) != 0) return;
  if (shard->conns.erase(conn->id()) == 0) return;
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  switch (reason) {
    case reactor::CloseReason::kEofMidFrame:
    case reactor::CloseReason::kReadTimeout:
      // The decode-error flavour was already counted in OnProtocolError.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    case reactor::CloseReason::kIdleTimeout:
      stats_.idle_reaps.fetch_add(1, std::memory_order_relaxed);
      break;
    case reactor::CloseReason::kHandshakeTimeout:
      stats_.handshake_timeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    case reactor::CloseReason::kSlowReader:
      stats_.slow_reader_disconnects.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

void Server::SweepShard(IoShard* shard) {
  auto now = reactor::Connection::Clock::now();
  // Collect first, close after: Close() erases from the maps via OnClosed.
  std::vector<std::pair<reactor::Connection*, reactor::CloseReason>> doomed;
  auto scan = [&](auto& map) {
    for (auto& [id, conn] : map) {
      reactor::CloseReason reason;
      if (conn->ExpiredDeadline(now, &reason)) doomed.emplace_back(conn, reason);
    }
  };
  scan(shard->conns);
  scan(shard->rejects);
  for (auto& [conn, reason] : doomed) conn->Close(reason);
}

// ---------------------------------------------------------------------------
// Request execution (worker pool)
// ---------------------------------------------------------------------------

Server::RequestOutcome Server::ExecuteRequest(MsgType type,
                                              const Bytes& payload_bytes,
                                              uint64_t conn_id) {
  RequestOutcome out;
  Slice payload(payload_bytes);
  Bytes* response = &out.response;

  auto reply_error = [&](const Status& st) {
    stats_.request_errors.fetch_add(1, std::memory_order_relaxed);
    AppendErrorFrame(response, st);
  };
  auto reply = [&](MsgType t, const Bytes& body) {
    AppendFrame(response, t, body);
  };
  auto reply_status = [&](const Status& st) {
    if (st.ok()) {
      reply(MsgType::kOk, {});
    } else {
      reply_error(st);
    }
  };

  switch (type) {
    case MsgType::kHandshake: {
      auto req = HandshakeReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        out.keep_open = false;
        return out;
      }
      if (req->client_version != kProtocolVersion) {
        reply_error(Status::NotSupported(
            "client protocol version " + std::to_string(req->client_version) +
            " not supported"));
        out.keep_open = false;
        return out;
      }
      out.handshaken = true;
      HandshakeResp resp;
      resp.server_version = kProtocolVersion;
      resp.connection_id = conn_id;
      resp.max_payload = config_.max_payload;
      resp.shard_count = db_ != nullptr ? db_->shard_count() : 1;
      reply(MsgType::kHandshakeAck, resp.Encode());
      return out;
    }

    case MsgType::kPing: {
      reply(MsgType::kPong, payload.ToBytes());
      return out;
    }

    case MsgType::kQuery: {
      auto req = QueryReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      if (req->retry != 0) {
        stats_.retries_seen.fetch_add(1, std::memory_order_relaxed);
      }
      {
        // Worker-side internal failure: answer with a typed error frame
        // (never a silent close) so the driver can classify retryability.
        fault::FaultSpec spec;
        if (AEDB_FAULT_FIRED("net/worker_error", &spec)) {
          reply_error(spec.status.code() == StatusCode::kInternal
                          ? Status::Unavailable("injected worker failure")
                          : spec.status);
          return out;
        }
      }
      auto rs = db_->Execute(req->sql, req->params, req->txn, req->session_id,
                             req->deadline_ms);
      if (!rs.ok()) {
        reply_error(rs.status());
        return out;
      }
      Bytes body;
      EncodeResultSet(&body, *rs);
      reply(MsgType::kResultSet, body);
      return out;
    }

    case MsgType::kQueryNamed: {
      auto req = QueryNamedReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      if (req->retry != 0) {
        stats_.retries_seen.fetch_add(1, std::memory_order_relaxed);
      }
      {
        fault::FaultSpec spec;
        if (AEDB_FAULT_FIRED("net/worker_error", &spec)) {
          reply_error(spec.status.code() == StatusCode::kInternal
                          ? Status::Unavailable("injected worker failure")
                          : spec.status);
          return out;
        }
      }
      auto rs = db_->ExecuteNamed(req->sql, req->params, req->txn,
                                  req->session_id, req->deadline_ms);
      if (!rs.ok()) {
        reply_error(rs.status());
        return out;
      }
      Bytes body;
      EncodeResultSet(&body, *rs);
      reply(MsgType::kResultSet, body);
      return out;
    }

    case MsgType::kDdl: {
      auto req = DdlReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      reply_status(req->shard == kDdlAllShards
                       ? db_->ExecuteDdl(req->sql, req->session_id)
                       : db_->ExecuteDdlOnShard(req->shard, req->sql,
                                                req->session_id));
      return out;
    }

    case MsgType::kDescribe: {
      auto req = DescribeReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      auto d = db_->DescribeParameterEncryption(req->sql,
                                                req->client_dh_public);
      if (!d.ok()) {
        reply_error(d.status());
        return out;
      }
      Bytes body;
      EncodeDescribeResult(&body, *d);
      reply(MsgType::kDescribeResp, body);
      return out;
    }

    case MsgType::kAttest: {
      auto req = DescribeReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      auto d = db_->AttestShard(req->shard, req->client_dh_public);
      if (!d.ok()) {
        reply_error(d.status());
        return out;
      }
      stats_.sessions_attested.fetch_add(1, std::memory_order_relaxed);
      Bytes body;
      EncodeDescribeResult(&body, *d);
      reply(MsgType::kDescribeResp, body);
      return out;
    }

    case MsgType::kBeginTxn: {
      Bytes body;
      PutU64(&body, db_->BeginTransaction());
      reply(MsgType::kTxnResp, body);
      return out;
    }

    case MsgType::kCommitTxn:
    case MsgType::kRollbackTxn: {
      size_t off = 0;
      auto txn = GetU64(payload, &off);
      if (!txn.ok()) {
        reply_error(txn.status());
        return out;
      }
      reply_status(type == MsgType::kCommitTxn ? db_->CommitTransaction(*txn)
                                               : db_->RollbackTransaction(*txn));
      return out;
    }

    case MsgType::kGetKeyDescription: {
      size_t off = 0;
      auto cek_id = GetU32(payload, &off);
      if (!cek_id.ok()) {
        reply_error(cek_id.status());
        return out;
      }
      auto key = db_->GetKeyDescription(*cek_id);
      if (!key.ok()) {
        reply_error(key.status());
        return out;
      }
      Bytes body;
      EncodeKeyDescription(&body, *key);
      reply(MsgType::kKeyDescriptionResp, body);
      return out;
    }

    case MsgType::kForwardKeys:
    case MsgType::kForwardAuthorization: {
      auto req = ForwardReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      reply_status(type == MsgType::kForwardKeys
                       ? db_->ForwardKeysToShard(req->shard, req->session_id,
                                                 req->nonce, req->sealed)
                       : db_->ForwardAuthorizationToShard(
                             req->shard, req->session_id, req->nonce,
                             req->sealed));
      return out;
    }

    case MsgType::kColumnEncryption: {
      auto req = ColumnReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      auto enc = db_->ColumnEncryption(req->table, req->column);
      if (!enc.ok()) {
        reply_error(enc.status());
        return out;
      }
      Bytes body;
      EncodeEncryptionType(&body, *enc);
      reply(MsgType::kEncryptionTypeResp, body);
      return out;
    }

    case MsgType::kGetCmk: {
      size_t off = 0;
      auto name = DecodeString(payload, &off);
      if (!name.ok()) {
        reply_error(name.status());
        return out;
      }
      auto cmk = db_->catalog().GetCmk(*name);
      if (!cmk.ok()) {
        reply_error(cmk.status());
        return out;
      }
      Bytes body;
      PutLengthPrefixed(&body, (*cmk)->Serialize());
      reply(MsgType::kCmkResp, body);
      return out;
    }

    case MsgType::kCekIdByName: {
      size_t off = 0;
      auto name = DecodeString(payload, &off);
      if (!name.ok()) {
        reply_error(name.status());
        return out;
      }
      auto id = db_->catalog().CekIdByName(*name);
      if (!id.ok()) {
        reply_error(id.status());
        return out;
      }
      Bytes body;
      PutU32(&body, *id);
      reply(MsgType::kCekIdResp, body);
      return out;
    }

    case MsgType::kAlterColumnMetadata: {
      auto req = ColumnReq::Decode(payload);
      if (!req.ok()) {
        reply_error(req.status());
        return out;
      }
      if (!req->has_spec) {
        reply_error(Status::InvalidArgument(
            "AlterColumnMetadata requires an encryption spec"));
        return out;
      }
      reply_status(db_->AlterColumnMetadataForClientTool(
          req->table, req->column, req->spec));
      return out;
    }

    default:
      // Unknown request type: answer cleanly and keep the connection; the
      // framing itself was valid so the stream is still in sync.
      reply_error(Status::NotSupported("unknown message type " +
                                       std::to_string(static_cast<int>(type))));
      return out;
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void Server::RefreshGauges() const {
  // Reactor gauges (the Stop path latches them into stats_ before the pool
  // and loops are torn down, so post-shutdown reads stay truthful).
  if (pool_) {
    stats_.run_queue_highwater.store(pool_->queue_highwater(),
                                     std::memory_order_relaxed);
    stats_.run_queue_sheds.store(pool_->queue_rejected(),
                                 std::memory_order_relaxed);
    stats_.exec_threads_peak.store(pool_->peak_threads(),
                                   std::memory_order_relaxed);
  }
  if (!shards_.empty()) {
    uint64_t wakeups = 0;
    for (const auto& shard : shards_) wakeups += shard->loop.wakeups();
    stats_.epoll_wakeups.store(wakeups, std::memory_order_relaxed);
  }
}

ServerStatsSnapshot Server::SnapshotStats() const {
  RefreshGauges();
  ServerStatsSnapshot s;
  s.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_active =
      stats_.connections_active.load(std::memory_order_relaxed);
  s.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  s.frames_out = stats_.frames_out.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  s.protocol_errors = stats_.protocol_errors.load(std::memory_order_relaxed);
  s.request_errors = stats_.request_errors.load(std::memory_order_relaxed);
  s.retries_seen = stats_.retries_seen.load(std::memory_order_relaxed);
  s.sessions_attested = stats_.sessions_attested.load(std::memory_order_relaxed);
  s.connections_rejected =
      stats_.connections_rejected.load(std::memory_order_relaxed);
  s.epoll_wakeups = stats_.epoll_wakeups.load(std::memory_order_relaxed);
  s.run_queue_highwater =
      stats_.run_queue_highwater.load(std::memory_order_relaxed);
  s.run_queue_sheds = stats_.run_queue_sheds.load(std::memory_order_relaxed);
  s.exec_threads_peak = stats_.exec_threads_peak.load(std::memory_order_relaxed);
  s.idle_reaps = stats_.idle_reaps.load(std::memory_order_relaxed);
  s.slow_reader_disconnects =
      stats_.slow_reader_disconnects.load(std::memory_order_relaxed);
  s.handshake_timeouts =
      stats_.handshake_timeouts.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aedb::net
