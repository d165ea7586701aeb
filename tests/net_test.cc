#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "client/driver.h"
#include "crypto/drbg.h"
#include "net/protocol.h"
#include "net/reactor/event_loop.h"
#include "net/reactor/frame_decoder.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "server/database.h"
#include "tpcc/tpcc.h"

namespace aedb {
namespace {

using client::Driver;
using client::DriverOptions;
using net::MsgType;
using types::Value;

// ===========================================================================
// Pure codec tests (no sockets)
// ===========================================================================

TEST(ProtocolCodec, FrameHeaderRoundTrip) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice(std::string_view("abc")));
  ASSERT_EQ(frame.size(), net::kFrameHeaderSize + 3);
  auto header = net::DecodeFrameHeader(frame, net::kDefaultMaxPayload);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, MsgType::kPing);
  EXPECT_EQ(header->version, net::kProtocolVersion);
  EXPECT_EQ(header->payload_size, 3u);
}

TEST(ProtocolCodec, FrameHeaderRejectsBadMagic) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  frame[0] ^= 0xFF;
  auto header = net::DecodeFrameHeader(frame, net::kDefaultMaxPayload);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolCodec, FrameHeaderRejectsBadVersion) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  frame[4] = 99;
  auto header = net::DecodeFrameHeader(frame, net::kDefaultMaxPayload);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kNotSupported);
}

TEST(ProtocolCodec, FrameHeaderRejectsReservedBits) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  frame[6] = 1;
  EXPECT_FALSE(net::DecodeFrameHeader(frame, net::kDefaultMaxPayload).ok());
}

TEST(ProtocolCodec, FrameHeaderRejectsOversizedLengthBeforeAllocation) {
  // A hostile 4 GiB length prefix must be rejected from the 12 header bytes
  // alone — no allocation may depend on it.
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  frame[8] = frame[9] = frame[10] = frame[11] = 0xFF;
  auto header = net::DecodeFrameHeader(frame, net::kDefaultMaxPayload);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

TEST(ProtocolCodec, FrameHeaderRejectsTruncation) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  for (size_t n = 0; n < net::kFrameHeaderSize; ++n) {
    EXPECT_FALSE(
        net::DecodeFrameHeader(Slice(frame.data(), n), net::kDefaultMaxPayload)
            .ok())
        << "accepted a " << n << "-byte header";
  }
}

TEST(ProtocolCodec, StatusPayloadRoundTripsEveryCode) {
  const Status statuses[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::AlreadyExists("c"),   Status::Corruption("d"),
      Status::NotSupported("e"),    Status::FailedPrecondition("f"),
      Status::OutOfRange("g"),      Status::Internal("h"),
      Status::SecurityError("i"),   Status::PermissionDenied("j"),
      Status::KeyNotInEnclave("k"), Status::ReplayDetected("l"),
      Status::TypeCheckError("m"),
  };
  for (const Status& st : statuses) {
    Bytes payload;
    net::EncodeStatusPayload(&payload, st);
    Status decoded;
    ASSERT_TRUE(net::DecodeStatusPayload(payload, &decoded).ok());
    EXPECT_EQ(decoded.code(), st.code());
    EXPECT_EQ(decoded.message(), st.message());
  }
}

// ===========================================================================
// Incremental frame decoder (the event loop's streaming read path)
// ===========================================================================

using net::reactor::FrameDecoder;

Bytes Concat(std::initializer_list<Bytes> parts) {
  Bytes all;
  for (const Bytes& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

TEST(FrameDecoderTest, OneByteAtATimeYieldsFramesExactlyAtBoundaries) {
  const Bytes f1 = net::EncodeFrame(MsgType::kPing, Slice(std::string_view("hello")));
  const Bytes f2 = net::EncodeFrame(MsgType::kQuery, Slice(std::string_view("")));
  const Bytes f3 =
      net::EncodeFrame(MsgType::kHandshake, Slice(std::string_view("xyzzy!")));
  const Bytes stream = Concat({f1, f2, f3});
  const size_t boundaries[] = {f1.size(), f1.size() + f2.size(), stream.size()};

  FrameDecoder dec;
  net::FrameHeader header;
  Bytes payload;
  size_t frames = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    dec.Feed(&stream[i], 1);
    auto poll = dec.Next(&header, &payload);
    if (i + 1 == boundaries[frames]) {
      // The byte that completes a frame must surface it immediately…
      ASSERT_EQ(poll, FrameDecoder::Poll::kFrame) << "at byte " << i;
      ++frames;
      // …and exactly one frame: the very next poll wants more bytes.
      EXPECT_EQ(dec.Next(&header, &payload), FrameDecoder::Poll::kNeedMore);
    } else {
      ASSERT_EQ(poll, FrameDecoder::Poll::kNeedMore) << "at byte " << i;
    }
  }
  ASSERT_EQ(frames, 3u);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_FALSE(dec.has_partial_frame());
}

TEST(FrameDecoderTest, SplitAtEveryOffsetRoundTrips) {
  const Bytes f1 = net::EncodeFrame(MsgType::kPing, Slice(std::string_view("abcd")));
  const Bytes f2 = net::EncodeFrame(MsgType::kPong, Slice(std::string_view("wxyz")));
  const Bytes stream = Concat({f1, f2});
  // Every header/payload boundary in a two-frame stream, including 0 and end.
  for (size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    dec.Feed(stream.data(), split);
    std::vector<std::pair<MsgType, Bytes>> got;
    net::FrameHeader header;
    Bytes payload;
    while (dec.Next(&header, &payload) == FrameDecoder::Poll::kFrame) {
      got.emplace_back(header.type, payload);
    }
    dec.Feed(stream.data() + split, stream.size() - split);
    while (dec.Next(&header, &payload) == FrameDecoder::Poll::kFrame) {
      got.emplace_back(header.type, payload);
    }
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0].first, MsgType::kPing);
    EXPECT_EQ(got[0].second, Bytes({'a', 'b', 'c', 'd'}));
    EXPECT_EQ(got[1].first, MsgType::kPong);
    EXPECT_EQ(got[1].second, Bytes({'w', 'x', 'y', 'z'}));
  }
}

TEST(FrameDecoderTest, PartialFramePredicateTracksStreamState) {
  const Bytes frame = net::EncodeFrame(MsgType::kPing, Slice(std::string_view("pp")));
  FrameDecoder dec;
  EXPECT_FALSE(dec.has_partial_frame());  // empty: idle, not stalled
  // A strict prefix of the header is a stall…
  dec.Feed(frame.data(), net::kFrameHeaderSize - 1);
  EXPECT_TRUE(dec.has_partial_frame());
  // …as is a full header still waiting for payload…
  dec.Feed(frame.data() + net::kFrameHeaderSize - 1, 2);
  EXPECT_TRUE(dec.has_partial_frame());
  // …but a complete, not-yet-consumed frame is backpressure, not a stall.
  dec.Feed(frame.data() + net::kFrameHeaderSize + 1,
           frame.size() - net::kFrameHeaderSize - 1);
  EXPECT_FALSE(dec.has_partial_frame());
  net::FrameHeader header;
  Bytes payload;
  ASSERT_EQ(dec.Next(&header, &payload), FrameDecoder::Poll::kFrame);
  EXPECT_FALSE(dec.has_partial_frame());
}

TEST(FrameDecoderTest, HostileLengthPrefixRejectedFromHeaderBytesAlone) {
  Bytes frame = net::EncodeFrame(MsgType::kPing, Slice());
  frame[8] = frame[9] = frame[10] = frame[11] = 0xFF;  // ~4 GiB claim
  FrameDecoder dec;
  dec.Feed(frame.data(), net::kFrameHeaderSize);
  net::FrameHeader header;
  Bytes payload;
  ASSERT_EQ(dec.Next(&header, &payload), FrameDecoder::Poll::kError);
  EXPECT_EQ(dec.error().code(), StatusCode::kOutOfRange);
  // The 12 buffered header bytes are all this cost.
  EXPECT_EQ(dec.buffered(), net::kFrameHeaderSize);
  EXPECT_TRUE(dec.broken());
  // Sticky: feeding a perfectly valid frame afterwards cannot resynchronize.
  Bytes good = net::EncodeFrame(MsgType::kPing, Slice(std::string_view("ok")));
  dec.Feed(good.data(), good.size());
  EXPECT_EQ(dec.Next(&header, &payload), FrameDecoder::Poll::kError);
}

TEST(FrameDecoderTest, MutationFuzzOnPartialFramesMatchesBlockingValidator) {
  // Deterministic fuzz: corrupt one header byte at a time, deliver the frame
  // in two arbitrary pieces, and require the streaming decoder to agree
  // byte-for-byte with the blocking-path validator (DecodeFrameHeader) on
  // accept vs reject. Payload-byte mutations must always decode (payload is
  // opaque at this layer).
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next_rand = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const Bytes base =
      net::EncodeFrame(MsgType::kQuery, Slice(std::string_view("select 1")));
  for (int iter = 0; iter < 512; ++iter) {
    Bytes mutated = base;
    size_t pos = next_rand() % mutated.size();
    uint8_t bit = static_cast<uint8_t>(1u << (next_rand() % 8));
    mutated[pos] ^= bit;
    size_t split = next_rand() % (mutated.size() + 1);

    bool header_valid =
        net::DecodeFrameHeader(Slice(mutated.data(), net::kFrameHeaderSize),
                               net::kDefaultMaxPayload)
            .ok();

    FrameDecoder dec;
    dec.Feed(mutated.data(), split);
    net::FrameHeader header;
    Bytes payload;
    auto first = dec.Next(&header, &payload);
    if (!header_valid && split >= net::kFrameHeaderSize) {
      ASSERT_EQ(first, FrameDecoder::Poll::kError) << "iter " << iter;
      continue;
    }
    if (first == FrameDecoder::Poll::kFrame) {
      // A length-shrinking mutation (or split == size) completed the frame
      // inside the first piece already.
      EXPECT_EQ(payload.size(), header.payload_size) << "iter " << iter;
      continue;
    }
    dec.Feed(mutated.data() + split, mutated.size() - split);
    auto second = dec.Next(&header, &payload);
    if (!header_valid) {
      ASSERT_EQ(second, FrameDecoder::Poll::kError) << "iter " << iter;
      continue;
    }
    // Header survived the mutation (type byte flip, payload flip, or a
    // length flip that still fits): the decoder must hand the frame over
    // once enough bytes arrived, possibly needing the declared extra.
    if (second == FrameDecoder::Poll::kFrame) {
      EXPECT_EQ(payload.size(), header.payload_size) << "iter " << iter;
    } else {
      // A length mutation enlarged the claim: mid-frame, stalled.
      ASSERT_EQ(second, FrameDecoder::Poll::kNeedMore) << "iter " << iter;
      EXPECT_TRUE(dec.has_partial_frame()) << "iter " << iter;
    }
  }
}

sql::ResultSet SampleResultSet() {
  sql::ResultSet rs;
  rs.columns = {"id", "name", "balance", "blob"};
  rs.column_enc = {types::EncryptionType::Plaintext(),
                   types::EncryptionType::Encrypted(types::EncKind::kDeterministic,
                                                    7, false),
                   types::EncryptionType::Encrypted(types::EncKind::kRandomized,
                                                    9, true),
                   types::EncryptionType::Plaintext()};
  rs.rows.push_back({Value::Int32(1), Value::String("alice"),
                     Value::Double(3.25), Value::Binary({0x00, 0xFF, 0x10})});
  rs.rows.push_back({Value::Null(types::TypeId::kInt32), Value::String(""),
                     Value::Int64(-42), Value::Bool(true)});
  return rs;
}

// An idle loop wakes for its ticks, not in between: the wait for the next
// tick rounds up, so the loop does not spin on zero-timeout waits through
// the last partial millisecond of every tick period.
TEST(EventLoopTest, IdleLoopWakesOnlyForItsTicks) {
  net::reactor::EventLoop loop;
  std::atomic<uint64_t> ticks{0};
  ASSERT_TRUE(loop.Start(/*tick_ms=*/10, [&] { ticks.fetch_add(1); }).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  loop.Stop();
  EXPECT_GE(ticks.load(), 5u);
  EXPECT_LE(loop.wakeups(), 4 * ticks.load() + 8)
      << "ticks=" << ticks.load();
}

TEST(ProtocolCodec, ResultSetRoundTrip) {
  sql::ResultSet rs = SampleResultSet();
  Bytes body;
  net::EncodeResultSet(&body, rs);
  auto decoded = net::DecodeResultSet(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->columns, rs.columns);
  ASSERT_EQ(decoded->rows.size(), rs.rows.size());
  for (size_t r = 0; r < rs.rows.size(); ++r) {
    for (size_t c = 0; c < rs.columns.size(); ++c) {
      EXPECT_TRUE(decoded->rows[r][c] == rs.rows[r][c])
          << "row " << r << " col " << c;
    }
  }
  for (size_t c = 0; c < rs.column_enc.size(); ++c) {
    EXPECT_TRUE(decoded->column_enc[c] == rs.column_enc[c]);
  }
}

TEST(ProtocolCodec, QueryNamedReqRoundTrip) {
  net::QueryNamedReq req;
  req.sql = "SELECT * FROM T WHERE a = @x";
  req.params = {{"x", Value::Int64(99)}, {"y", Value::String("s")}};
  req.txn = 17;
  req.session_id = 23;
  auto decoded = net::QueryNamedReq::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sql, req.sql);
  ASSERT_EQ(decoded->params.size(), 2u);
  EXPECT_EQ(decoded->params[0].first, "x");
  EXPECT_TRUE(decoded->params[1].second == Value::String("s"));
  EXPECT_EQ(decoded->txn, 17u);
  EXPECT_EQ(decoded->session_id, 23u);
}

TEST(ProtocolCodec, DescribeResultRoundTripWithAttestation) {
  server::DescribeResult d;
  server::DescribeResult::ParamInfo p;
  p.name = "ssn";
  p.type = types::TypeId::kString;
  p.enc = types::EncryptionType::Encrypted(types::EncKind::kRandomized, 3, true);
  d.params.push_back(p);
  server::KeyDescription key;
  key.cek_id = 3;
  key.cek.name = "CEK1";
  keys::CekValue v;
  v.cmk_name = "CMK1";
  v.encrypted_value = {1, 2, 3};
  v.signature = {4, 5};
  key.cek.values.push_back(v);
  key.cmk.name = "CMK1";
  key.cmk.provider_name = "vault";
  key.cmk.key_path = "kv/x";
  key.cmk.enclave_enabled = true;
  key.cmk.signature = {9, 9};
  d.keys.push_back(key);
  d.requires_enclave = true;
  d.enclave_cek_ids = {3};
  d.attestation_included = true;
  d.health_certificate.host_signing_public = {1};
  d.health_certificate.hgs_signature = {2};
  d.attestation.report_bytes = {3, 3};
  d.attestation.report_signature = {4};
  d.attestation.enclave_public_key = {5};
  d.attestation.enclave_dh_public = {6, 6};
  d.attestation.dh_signature = {7};
  d.attestation.session_id = 11;

  Bytes body;
  net::EncodeDescribeResult(&body, d);
  auto decoded = net::DecodeDescribeResult(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->params.size(), 1u);
  EXPECT_EQ(decoded->params[0].name, "ssn");
  EXPECT_TRUE(decoded->params[0].enc == p.enc);
  ASSERT_EQ(decoded->keys.size(), 1u);
  EXPECT_EQ(decoded->keys[0].cmk.key_path, "kv/x");
  EXPECT_TRUE(decoded->keys[0].cmk.enclave_enabled);
  EXPECT_TRUE(decoded->requires_enclave);
  EXPECT_EQ(decoded->enclave_cek_ids, std::vector<uint32_t>{3});
  ASSERT_TRUE(decoded->attestation_included);
  EXPECT_EQ(decoded->attestation.session_id, 11u);
  EXPECT_EQ(decoded->attestation.enclave_dh_public, (Bytes{6, 6}));
}

/// Fuzz-style robustness: every truncated prefix and a batch of single-byte
/// mutations of a valid encoding must decode to a clean error or a valid
/// value — never crash, hang, or trip ASan/UBSan.
TEST(ProtocolCodec, TruncatedAndMutatedPayloadsNeverCrash) {
  sql::ResultSet rs = SampleResultSet();
  Bytes body;
  net::EncodeResultSet(&body, rs);
  for (size_t n = 0; n < body.size(); ++n) {
    (void)net::DecodeResultSet(Slice(body.data(), n));
  }
  server::DescribeResult d;
  d.requires_enclave = true;
  Bytes dbody;
  net::EncodeDescribeResult(&dbody, d);
  for (size_t n = 0; n < dbody.size(); ++n) {
    (void)net::DecodeDescribeResult(Slice(dbody.data(), n));
  }
  // Deterministic single-byte mutations (position * 131, value + position).
  for (size_t i = 0; i < body.size(); ++i) {
    Bytes mutated = body;
    mutated[i] = static_cast<uint8_t>(mutated[i] + 1 + (i * 131) % 250);
    (void)net::DecodeResultSet(mutated);
  }
  for (size_t i = 0; i < 64; ++i) {
    Bytes garbage(i, static_cast<uint8_t>(i * 37 + 1));
    (void)net::DecodeResultSet(garbage);
    (void)net::DecodeDescribeResult(garbage);
    (void)net::QueryNamedReq::Decode(garbage);
    (void)net::QueryReq::Decode(garbage);
    (void)net::ColumnReq::Decode(garbage);
    (void)net::ForwardReq::Decode(garbage);
    (void)net::HandshakeReq::Decode(garbage);
  }
}

// ===========================================================================
// Server fixture
// ===========================================================================

class NetTest : public ::testing::Test {
 protected:
  static constexpr const char* kVaultPath = "kv/net-test";

  void SetUp() override {
    vault_ = std::make_unique<keys::InMemoryKeyVault>();
    ASSERT_TRUE(vault_->CreateKey(kVaultPath, 1024).ok());
    ASSERT_TRUE(registry_.Register(vault_.get()).ok());

    crypto::HmacDrbg drbg(crypto::SecureRandom(48),
                          Slice(std::string_view("net-author")));
    author_key_ = crypto::GenerateRsaKey(1024, &drbg);
    image_ = enclave::EnclaveImage::MakeEsImage(1, author_key_);
    hgs_ = std::make_unique<attestation::HostGuardianService>();

    server::ServerOptions opts;
    opts.engine.lock_timeout = std::chrono::milliseconds(200);
    db_ = std::make_unique<server::Database>(opts, hgs_.get(), &image_);
    hgs_->RegisterTcgLog(db_->platform()->tcg_log());

    net::ServerConfig config;
    config.read_timeout_ms = 2000;
    config.write_timeout_ms = 2000;
    server_ = std::make_unique<net::Server>(db_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<net::SocketTransport> ConnectTransport() {
    net::SocketTransport::Options topts;
    topts.port = server_->port();
    topts.timeout_ms = 5000;
    auto t = net::SocketTransport::Connect(topts);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(t).value() : nullptr;
  }

  std::unique_ptr<Driver> MakeSocketDriver() {
    auto transport = ConnectTransport();
    if (!transport) return nullptr;
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(std::move(transport), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  std::unique_ptr<Driver> MakeInProcessDriver() {
    DriverOptions dopts;
    dopts.enclave_policy.trusted_author_id = image_.AuthorId();
    return std::make_unique<Driver>(db_.get(), &registry_,
                                    hgs_->signing_public(), dopts);
  }

  std::unique_ptr<keys::InMemoryKeyVault> vault_;
  keys::KeyProviderRegistry registry_;
  crypto::RsaPrivateKey author_key_;
  enclave::EnclaveImage image_;
  std::unique_ptr<attestation::HostGuardianService> hgs_;
  std::unique_ptr<server::Database> db_;
  std::unique_ptr<net::Server> server_;
};

/// Raw TCP client for sending malformed byte streams.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  bool connected() const { return connected_; }

  bool Send(Slice data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t w = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  /// Reads one response frame; returns false on EOF/timeout.
  bool ReadFrame(net::MsgType* type, Bytes* payload) {
    Bytes header(net::kFrameHeaderSize);
    if (!ReadFull(header.data(), header.size())) return false;
    auto h = net::DecodeFrameHeader(header, net::kDefaultMaxPayload);
    if (!h.ok()) return false;
    payload->resize(h->payload_size);
    if (h->payload_size > 0 && !ReadFull(payload->data(), payload->size())) {
      return false;
    }
    *type = h->type;
    return true;
  }

  /// True when the server has closed the connection (clean EOF).
  bool ReadEof() {
    uint8_t byte;
    ssize_t r = ::recv(fd_, &byte, 1, 0);
    return r == 0;
  }

  bool Handshake() {
    net::HandshakeReq req;
    if (!Send(net::EncodeFrame(MsgType::kHandshake, req.Encode()))) return false;
    net::MsgType type;
    Bytes payload;
    return ReadFrame(&type, &payload) && type == MsgType::kHandshakeAck;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool ReadFull(uint8_t* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

// ===========================================================================
// Handshake, framing and robustness
// ===========================================================================

TEST_F(NetTest, HandshakeAssignsConnectionIdsAndPingWorks) {
  auto t1 = ConnectTransport();
  auto t2 = ConnectTransport();
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(t1->connection_id(), t2->connection_id());
  EXPECT_TRUE(t1->Ping().ok());
  EXPECT_TRUE(t2->Ping().ok());
  EXPECT_GE(server_->stats().connections_accepted.load(), 2u);
  EXPECT_GE(server_->stats().frames_in.load(), 4u);
  EXPECT_GE(server_->stats().frames_out.load(), 4u);
}

TEST_F(NetTest, FirstFrameMustBeHandshake) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send(net::EncodeFrame(MsgType::kPing, Slice())));
  net::MsgType type;
  Bytes payload;
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  Status decoded;
  ASSERT_TRUE(net::DecodeStatusPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(conn.ReadEof());
}

TEST_F(NetTest, TruncatedHeaderThenDisconnectLeavesServerHealthy) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    ASSERT_TRUE(conn.Send(Slice(std::string_view("AEDB\x01"))));
    conn.Close();  // mid-header disconnect
  }
  // Server must survive and keep serving new connections.
  auto t = ConnectTransport();
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->Ping().ok());
}

TEST_F(NetTest, MidFramePayloadDisconnectLeavesServerHealthy) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    ASSERT_TRUE(conn.Handshake());
    // Header promises 100 payload bytes; send only 10 and vanish.
    Bytes frame;
    net::AppendFrame(&frame, MsgType::kQuery, Bytes(100, 0xAB));
    frame.resize(net::kFrameHeaderSize + 10);
    ASSERT_TRUE(conn.Send(frame));
    conn.Close();
  }
  for (int i = 0; i < 50 && server_->stats().protocol_errors.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().protocol_errors.load(), 1u);
  auto t = ConnectTransport();
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->Ping().ok());
}

TEST_F(NetTest, OversizedLengthPrefixIsRejectedWithCleanError) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());
  Bytes header;
  PutU32(&header, net::kProtocolMagic);
  header.push_back(net::kProtocolVersion);
  header.push_back(static_cast<uint8_t>(MsgType::kQuery));
  PutU16(&header, 0);
  PutU32(&header, 0xFFFFFFFFu);  // 4 GiB claim
  ASSERT_TRUE(conn.Send(header));
  net::MsgType type;
  Bytes payload;
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  Status decoded;
  ASSERT_TRUE(net::DecodeStatusPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(conn.ReadEof());  // stream is poisoned → server hangs up
  auto t = ConnectTransport();
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->Ping().ok());
}

TEST_F(NetTest, BadMagicClosesConnectionCleanly) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  Bytes garbage(net::kFrameHeaderSize, 0x5A);
  ASSERT_TRUE(conn.Send(garbage));
  net::MsgType type;
  Bytes payload;
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_TRUE(conn.ReadEof());
}

TEST_F(NetTest, UnknownMessageTypeAnswersErrorAndKeepsConnection) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());
  ASSERT_TRUE(
      conn.Send(net::EncodeFrame(static_cast<MsgType>(60), Slice())));
  net::MsgType type;
  Bytes payload;
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  Status decoded;
  ASSERT_TRUE(net::DecodeStatusPayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kNotSupported);
  // Framing stayed valid, so the connection must still serve requests.
  ASSERT_TRUE(conn.Send(net::EncodeFrame(MsgType::kPing, Slice())));
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kPong);
}

TEST_F(NetTest, MalformedRequestPayloadAnswersErrorAndKeepsConnection) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Handshake());
  Bytes garbage(17, 0xEE);
  ASSERT_TRUE(conn.Send(net::EncodeFrame(MsgType::kQueryNamed, garbage)));
  net::MsgType type;
  Bytes payload;
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  ASSERT_TRUE(conn.Send(net::EncodeFrame(MsgType::kPing, Slice())));
  ASSERT_TRUE(conn.ReadFrame(&type, &payload));
  EXPECT_EQ(type, MsgType::kPong);
}

/// Fuzz-style: random-ish byte blasts at the server must never hang or kill
/// it — every connection ends with the server still accepting.
TEST_F(NetTest, GarbageStreamsNeverWedgeTheServer) {
  for (int round = 0; round < 16; ++round) {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    Bytes blast(64 + round * 13);
    for (size_t i = 0; i < blast.size(); ++i) {
      blast[i] = static_cast<uint8_t>((round * 251 + i * 97) & 0xFF);
    }
    conn.Send(blast);
    conn.Close();
  }
  auto t = ConnectTransport();
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->Ping().ok());
}

TEST_F(NetTest, StopWhileClientConnectedShutsDownGracefully) {
  auto t = ConnectTransport();
  ASSERT_TRUE(t);
  EXPECT_TRUE(t->Ping().ok());
  server_->Stop();
  // The transport observes a clean error, not a hang.
  Status st = t->Ping();
  EXPECT_FALSE(st.ok());
  // And a second Stop is harmless.
  server_->Stop();
}

// ===========================================================================
// End-to-end: AE driver over the wire
// ===========================================================================

TEST_F(NetTest, EncryptedQueryOverSocketMatchesInProcess) {
  auto sock_driver = MakeSocketDriver();
  ASSERT_TRUE(sock_driver);
  ASSERT_TRUE(sock_driver
                  ->ProvisionCmk("NetCMK", vault_->name(), kVaultPath,
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(sock_driver->ProvisionCek("NetCEK", "NetCMK").ok());
  Status st = sock_driver->ExecuteDdl(
      "CREATE TABLE Secrets (id INT NOT NULL, "
      "ssn VARCHAR(16) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = NetCEK, "
      "ENCRYPTION_TYPE = Deterministic, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'), "
      "note VARCHAR(40) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = NetCEK, "
      "ENCRYPTION_TYPE = Randomized, "
      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))");
  ASSERT_TRUE(st.ok()) << st.ToString();

  for (int i = 0; i < 5; ++i) {
    auto r = sock_driver->Query(
        "INSERT INTO Secrets (id, ssn, note) VALUES (@id, @ssn, @note)",
        {{"id", Value::Int32(i)},
         {"ssn", Value::String("ssn-" + std::to_string(i))},
         {"note", Value::String("note for " + std::to_string(i))}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // DET predicate over the wire: the driver encrypts @ssn client-side.
  auto over_socket = sock_driver->Query(
      "SELECT id, ssn, note FROM Secrets WHERE ssn = @ssn",
      {{"ssn", Value::String("ssn-3")}});
  ASSERT_TRUE(over_socket.ok()) << over_socket.status().ToString();

  auto inproc_driver = MakeInProcessDriver();
  ASSERT_TRUE(inproc_driver);
  auto in_process = inproc_driver->Query(
      "SELECT id, ssn, note FROM Secrets WHERE ssn = @ssn",
      {{"ssn", Value::String("ssn-3")}});
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

  ASSERT_EQ(over_socket->rows.size(), 1u);
  ASSERT_EQ(in_process->rows.size(), 1u);
  for (size_t c = 0; c < over_socket->columns.size(); ++c) {
    EXPECT_TRUE(over_socket->rows[0][c] == in_process->rows[0][c]);
  }
  EXPECT_EQ(over_socket->rows[0][1].str(), "ssn-3");
  EXPECT_EQ(over_socket->rows[0][2].str(), "note for 3");
}

TEST_F(NetTest, TransactionsWorkOverSocket) {
  auto driver = MakeSocketDriver();
  ASSERT_TRUE(driver);
  ASSERT_TRUE(driver->ExecuteDdl("CREATE TABLE Accts (id INT, bal INT)").ok());
  uint64_t txn = driver->Begin();
  ASSERT_NE(txn, 0u);
  ASSERT_TRUE(driver
                  ->Query("INSERT INTO Accts (id, bal) VALUES (@i, @b)",
                          {{"i", Value::Int32(1)}, {"b", Value::Int32(100)}},
                          txn)
                  .ok());
  ASSERT_TRUE(driver->Rollback(txn).ok());
  auto empty = driver->Query("SELECT id FROM Accts");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->rows.size(), 0u);

  txn = driver->Begin();
  ASSERT_TRUE(driver
                  ->Query("INSERT INTO Accts (id, bal) VALUES (@i, @b)",
                          {{"i", Value::Int32(2)}, {"b", Value::Int32(50)}},
                          txn)
                  .ok());
  ASSERT_TRUE(driver->Commit(txn).ok());
  auto one = driver->Query("SELECT id FROM Accts");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->rows.size(), 1u);
}

// ===========================================================================
// Concurrent sessions
// ===========================================================================

TEST_F(NetTest, ConcurrentSocketSessionsKeepNonceAndLockIsolation) {
  // Provision an enclave-enabled key and a RND column so every session runs
  // the full attest → install-CEK → encrypted-DML path (per-session nonces).
  auto admin = MakeSocketDriver();
  ASSERT_TRUE(admin);
  ASSERT_TRUE(admin
                  ->ProvisionCmk("ConcCMK", vault_->name(), kVaultPath,
                                 /*enclave_enabled=*/true)
                  .ok());
  ASSERT_TRUE(admin->ProvisionCek("ConcCEK", "ConcCMK").ok());
  ASSERT_TRUE(admin
                  ->ExecuteDdl(
                      "CREATE TABLE Ledger (worker INT, seq INT, "
                      "memo VARCHAR(32) ENCRYPTED WITH ("
                      "COLUMN_ENCRYPTION_KEY = ConcCEK, "
                      "ENCRYPTION_TYPE = Randomized, "
                      "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))")
                  .ok());
  ASSERT_TRUE(
      admin->ExecuteDdl("CREATE TABLE Tally (id INT, total INT)").ok());
  ASSERT_TRUE(admin
                  ->Query("INSERT INTO Tally (id, total) VALUES (@i, @t)",
                          {{"i", Value::Int32(1)}, {"t", Value::Int32(0)}})
                  .ok());

  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 12;
  std::vector<std::unique_ptr<Driver>> drivers;
  for (int w = 0; w < kWorkers; ++w) {
    auto d = MakeSocketDriver();
    ASSERT_TRUE(d);
    drivers.push_back(std::move(d));
  }

  std::vector<std::thread> threads;
  std::vector<Status> failures(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Driver* d = drivers[w].get();
      for (int i = 0; i < kOpsPerWorker; ++i) {
        // Encrypted insert: exercises this session's enclave channel.
        auto ins = d->Query(
            "INSERT INTO Ledger (worker, seq, memo) VALUES (@w, @s, @m)",
            {{"w", Value::Int32(w)},
             {"s", Value::Int32(i)},
             {"m", Value::String("w" + std::to_string(w) + "#" +
                                 std::to_string(i))}});
        if (!ins.ok()) {
          failures[w] = ins.status();
          return;
        }
        // LIKE over the RND column runs inside the enclave: this session
        // must attest and forward its CEK over its own nonce'd channel.
        auto probe = d->Query(
            "SELECT seq FROM Ledger WHERE worker = @w AND memo LIKE @p",
            {{"w", Value::Int32(w)},
             {"p", Value::String("w" + std::to_string(w) + "#%")}});
        if (!probe.ok()) {
          failures[w] = probe.status();
          return;
        }
        if (probe->rows.size() != static_cast<size_t>(i + 1)) {
          failures[w] = Status::Internal("enclave LIKE returned wrong rows");
          return;
        }
        // Contended read-modify-write under the lock manager; aborts on
        // lock timeouts are retried, lost updates would corrupt the total.
        for (int attempt = 0;; ++attempt) {
          auto upd = d->Query("UPDATE Tally SET total = total + @one "
                              "WHERE id = @i",
                              {{"one", Value::Int32(1)},
                               {"i", Value::Int32(1)}});
          if (upd.ok()) break;
          if (attempt > 200) {
            failures[w] = upd.status();
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(failures[w].ok()) << "worker " << w << ": "
                                  << failures[w].ToString();
  }

  // Every session attested independently (distinct, nonzero enclave
  // sessions — nonce streams are per-session, so sharing one would have
  // tripped replay detection under the concurrent load above).
  std::set<uint64_t> session_ids;
  for (auto& d : drivers) {
    EXPECT_NE(d->session_id(), 0u);
    session_ids.insert(d->session_id());
  }
  EXPECT_EQ(session_ids.size(), static_cast<size_t>(kWorkers));

  // All rows present and decryptable (read through a fresh session).
  auto rows = admin->Query("SELECT worker, seq, memo FROM Ledger");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(),
            static_cast<size_t>(kWorkers * kOpsPerWorker));
  auto total = admin->Query("SELECT total FROM Tally WHERE id = @i",
                            {{"i", Value::Int32(1)}});
  ASSERT_TRUE(total.ok());
  ASSERT_EQ(total->rows.size(), 1u);
  EXPECT_EQ(total->rows[0][0].i32(), kWorkers * kOpsPerWorker);
}

// ===========================================================================
// TPC-C over the wire
// ===========================================================================

TEST_F(NetTest, TpccRunsOverSocketAndMatchesInProcess) {
  tpcc::TpccConfig config;
  config.warehouses = 1;
  config.customers_per_district = 10;
  config.items = 50;
  config.initial_orders_per_district = 3;
  config.encryption = tpcc::Encryption::kPlaintext;

  auto loader_driver = MakeInProcessDriver();
  ASSERT_TRUE(loader_driver);
  tpcc::TpccLoader loader(loader_driver.get(), config);
  ASSERT_TRUE(loader.CreateSchema().ok());
  ASSERT_TRUE(loader.Load().ok());

  auto sock_driver = MakeSocketDriver();
  ASSERT_TRUE(sock_driver);
  tpcc::TpccTerminal terminal(sock_driver.get(), config, /*seed=*/7);
  for (int i = 0; i < 25; ++i) {
    Status st = terminal.RunOne();
    ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.ToString();
  }
  EXPECT_EQ(terminal.committed() + terminal.aborted(), 25u);
  EXPECT_GT(terminal.committed(), 0u);

  // The wire path must observe the exact same data as the in-process path.
  const std::string probe =
      "SELECT D_NEXT_O_ID, D_YTD FROM District WHERE D_W_ID = @w AND "
      "D_ID = @d";
  for (int d = 1; d <= config.districts_per_warehouse; ++d) {
    auto over_socket = sock_driver->Query(
        probe, {{"w", Value::Int32(1)}, {"d", Value::Int32(d)}});
    auto in_process = loader_driver->Query(
        probe, {{"w", Value::Int32(1)}, {"d", Value::Int32(d)}});
    ASSERT_TRUE(over_socket.ok());
    ASSERT_TRUE(in_process.ok());
    ASSERT_EQ(over_socket->rows.size(), in_process->rows.size());
    for (size_t c = 0; c < over_socket->columns.size(); ++c) {
      EXPECT_TRUE(over_socket->rows[0][c] == in_process->rows[0][c]);
    }
  }
}

}  // namespace
}  // namespace aedb
