// Wire-protocol serialization tests: every job-server message type
// round-trips through its envelope, and hostile bytes — truncated frames,
// corrupted payloads, bad magic, oversize or lying lengths, short message
// bodies, and a seeded mutation-fuzz loop over all of them — surface as clean
// errors (false / nullopt), never as crashes, over-reads, or garbage decoded
// into engine state.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/serialize/byte_buffer.h"

namespace blaze::net {
namespace {

// A connected fd pair; WriteFrame/ReadFrame only need stream semantics.
struct FdPair {
  int fds[2] = {-1, -1};
  FdPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~FdPair() {
    for (int fd : fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

// Builds the exact on-wire bytes of one frame so tests can vandalize them.
std::vector<uint8_t> RawFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  const uint32_t magic = kFrameMagic;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  out.resize(12 + payload.size());
  std::memcpy(out.data(), &magic, 4);
  std::memcpy(out.data() + 4, &len, 4);
  std::memcpy(out.data() + 8, payload.data(), payload.size());
  std::memcpy(out.data() + 8 + payload.size(), &crc, 4);
  return out;
}

void SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

TEST(FrameTest, RoundTripsPayloads) {
  FdPair pair;
  for (const size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{64 * 1024}}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    ASSERT_TRUE(WriteFrame(pair.fds[0], payload));
    std::vector<uint8_t> got;
    std::string error;
    ASSERT_TRUE(ReadFrame(pair.fds[1], &got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
}

TEST(FrameTest, CleanEofReadsAsEof) {
  FdPair pair;
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_EQ(error, "eof");
}

TEST(FrameTest, RejectsBadMagic) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes[0] ^= 0xFF;
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(FrameTest, RejectsOversizeLength) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  const uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data() + 4, &huge, 4);  // lie about the payload length
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("bound"), std::string::npos) << error;
}

TEST(FrameTest, LyingLengthDoesNotAllocateTheClaim) {
  // A peer that claims the maximum frame size and then hangs up after a few
  // bytes must cost one read chunk, not a 1 GiB zero-filled buffer.
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  const uint32_t claim = kMaxFrameBytes;
  std::memcpy(bytes.data() + 4, &claim, 4);
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_LE(got.capacity(), size_t{kFrameReadChunk});
}

TEST(FrameTest, RejectsTruncatedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3, 4, 5, 6, 7, 8});
  bytes.resize(bytes.size() - 7);  // cut into the payload
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsTruncatedTrailer) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes.resize(bytes.size() - 2);  // cut into the CRC trailer
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsCorruptedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({10, 20, 30, 40});
  bytes[9] ^= 0x01;  // flip one payload bit; CRC must catch it
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(FrameTest, ListenConnectRoundTrip) {
  uint16_t port = 0;
  std::string error;
  const int listen_fd = ListenLocal(0, &port, /*attempts=*/10, &error);
  ASSERT_GE(listen_fd, 0) << error;
  ASSERT_GT(port, 0);

  std::thread server([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(conn, &payload));
    ASSERT_TRUE(WriteFrame(conn, payload));  // echo
    ::close(conn);
  });

  const int fd = ConnectLocal(port, /*attempts=*/3, /*timeout_ms=*/2000, &error);
  ASSERT_GE(fd, 0) << error;
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(WriteFrame(fd, payload));
  std::vector<uint8_t> echo;
  ASSERT_TRUE(ReadFrame(fd, &echo, &error)) << error;
  EXPECT_EQ(echo, payload);
  ::close(fd);
  server.join();
  ::close(listen_fd);
}

// --- message round-trips ----------------------------------------------------

// Decodes an envelope produced by EncodeEnvelope back into header + body.
template <typename Msg>
std::optional<Msg> DecodeEnvelope(const std::vector<uint8_t>& bytes, MsgType want_type,
                                  uint64_t want_request_id) {
  ByteSource src(bytes);
  const auto header = MessageHeader::Decode(src);
  if (!header || header->type != want_type || header->request_id != want_request_id) {
    return std::nullopt;
  }
  return Msg::Decode(src);
}

JobSubmitMsg SampleSubmit() {
  JobSubmitMsg msg;
  msg.tenant = "analytics";
  msg.workload = "pagerank";
  msg.iterations = 12;
  return msg;
}

JobSubmitRespMsg SampleSubmitResp() {
  JobSubmitRespMsg msg;
  msg.accepted = false;
  msg.server_job_id = 1LL << 40;
  msg.error = "unknown workload";
  return msg;
}

JobStatusMsg SampleStatus() {
  JobStatusMsg msg;
  msg.server_job_id = 77;
  return msg;
}

JobStatusRespMsg SampleStatusResp() {
  JobStatusRespMsg msg;
  msg.known = true;
  msg.state = "done";
  msg.detail = "rank sum 4096.000";
  msg.elapsed_ms = 43.25;
  return msg;
}

TenantStatRow SampleRow(const std::string& name, uint64_t base) {
  TenantStatRow row;
  row.name = name;
  row.share_bytes = base + 1;
  row.used_bytes = base + 2;
  row.borrowed_bytes = base + 3;
  row.jobs_running = static_cast<int32_t>(base % 7) + 1;
  row.jobs_queued = static_cast<int32_t>(base % 5) + 2;
  row.jobs_completed = base + 4;
  row.jobs_rejected = base + 5;
  row.cache_hits = base + 6;
  row.cache_misses = base + 7;
  return row;
}

TenantStatsRespMsg SampleStatsResp() {
  TenantStatsRespMsg msg;
  msg.tenants = {SampleRow("quiet", 100), SampleRow("churn", 1ULL << 33),
                 SampleRow("", 0)};
  return msg;
}

void ExpectRowEq(const TenantStatRow& got, const TenantStatRow& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.share_bytes, want.share_bytes);
  EXPECT_EQ(got.used_bytes, want.used_bytes);
  EXPECT_EQ(got.borrowed_bytes, want.borrowed_bytes);
  EXPECT_EQ(got.jobs_running, want.jobs_running);
  EXPECT_EQ(got.jobs_queued, want.jobs_queued);
  EXPECT_EQ(got.jobs_completed, want.jobs_completed);
  EXPECT_EQ(got.jobs_rejected, want.jobs_rejected);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
}

TEST(MessageTest, JobSubmitRoundTrip) {
  const JobSubmitMsg msg = SampleSubmit();
  const auto bytes = EncodeEnvelope(MsgType::kJobSubmit, 42, msg);
  const auto got = DecodeEnvelope<JobSubmitMsg>(bytes, MsgType::kJobSubmit, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tenant, "analytics");
  EXPECT_EQ(got->workload, "pagerank");
  EXPECT_EQ(got->iterations, 12);
}

TEST(MessageTest, JobSubmitRespRoundTrip) {
  const JobSubmitRespMsg msg = SampleSubmitResp();
  const auto bytes = EncodeEnvelope(MsgType::kJobSubmitResp, 1, msg);
  const auto got = DecodeEnvelope<JobSubmitRespMsg>(bytes, MsgType::kJobSubmitResp, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->accepted);
  EXPECT_EQ(got->server_job_id, 1LL << 40);
  EXPECT_EQ(got->error, "unknown workload");
}

TEST(MessageTest, JobStatusRoundTrip) {
  const auto bytes = EncodeEnvelope(MsgType::kJobStatus, 5, SampleStatus());
  const auto got = DecodeEnvelope<JobStatusMsg>(bytes, MsgType::kJobStatus, 5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->server_job_id, 77);
}

TEST(MessageTest, JobStatusRespRoundTrip) {
  const auto bytes = EncodeEnvelope(MsgType::kJobStatusResp, 6, SampleStatusResp());
  const auto got = DecodeEnvelope<JobStatusRespMsg>(bytes, MsgType::kJobStatusResp, 6);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->known);
  EXPECT_EQ(got->state, "done");
  EXPECT_EQ(got->detail, "rank sum 4096.000");
  EXPECT_DOUBLE_EQ(got->elapsed_ms, 43.25);
}

TEST(MessageTest, TenantStatsRoundTrip) {
  const auto bytes = EncodeEnvelope(MsgType::kTenantStats, 7, TenantStatsMsg{});
  EXPECT_TRUE(DecodeEnvelope<TenantStatsMsg>(bytes, MsgType::kTenantStats, 7).has_value());
}

TEST(MessageTest, TenantStatsRespMultiRowRoundTrip) {
  const TenantStatsRespMsg msg = SampleStatsResp();
  const auto bytes = EncodeEnvelope(MsgType::kTenantStatsResp, 8, msg);
  const auto got = DecodeEnvelope<TenantStatsRespMsg>(bytes, MsgType::kTenantStatsResp, 8);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->tenants.size(), msg.tenants.size());
  for (size_t i = 0; i < msg.tenants.size(); ++i) {
    ExpectRowEq(got->tenants[i], msg.tenants[i]);
  }
}

TEST(MessageTest, TenantStatsRespEmptyRoundTrip) {
  const auto bytes = EncodeEnvelope(MsgType::kTenantStatsResp, 9, TenantStatsRespMsg{});
  const auto got = DecodeEnvelope<TenantStatsRespMsg>(bytes, MsgType::kTenantStatsResp, 9);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->tenants.empty());
}

// --- malformed bodies -------------------------------------------------------

// Every strict prefix of a valid encoding must decode to nullopt — not crash,
// not read out of bounds. Each cut is copied into its own exactly-sized
// buffer so an over-read is a heap overflow under ASan.
template <typename Msg>
void ExpectTruncationsFailCleanly(const Msg& msg, MsgType type) {
  const auto bytes = EncodeEnvelope(type, 77, msg);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    ByteSource src(prefix);
    const auto header = MessageHeader::Decode(src);
    if (!header.has_value()) {
      continue;  // cut fell inside the header — already a clean failure
    }
    EXPECT_FALSE(Msg::Decode(src).has_value())
        << MsgTypeName(type) << " decoded from a " << cut << "-byte prefix of "
        << bytes.size() << " bytes";
  }
}

TEST(MessageTest, TruncatedBodiesFailCleanly) {
  ExpectTruncationsFailCleanly(SampleSubmit(), MsgType::kJobSubmit);
  ExpectTruncationsFailCleanly(SampleSubmitResp(), MsgType::kJobSubmitResp);
  ExpectTruncationsFailCleanly(SampleStatus(), MsgType::kJobStatus);
  ExpectTruncationsFailCleanly(SampleStatusResp(), MsgType::kJobStatusResp);
  // Empty body: every strict prefix cuts the header itself.
  ExpectTruncationsFailCleanly(TenantStatsMsg{}, MsgType::kTenantStats);
  ExpectTruncationsFailCleanly(SampleStatsResp(), MsgType::kTenantStatsResp);
}

TEST(MessageTest, LyingLengthPrefixFailsCleanly) {
  // A string length prefix claiming more bytes than the body carries must
  // not over-read. Craft: header + varint(1000) + 3 actual bytes.
  {
    ByteSink sink;
    MessageHeader{MsgType::kJobSubmit, 1}.EncodeTo(sink);
    sink.WriteVarint(1000);  // tenant length lie
    sink.WritePod<uint8_t>('a');
    sink.WritePod<uint8_t>('b');
    sink.WritePod<uint8_t>('c');
    const auto bytes = sink.TakeData();
    ByteSource src(bytes);
    ASSERT_TRUE(MessageHeader::Decode(src).has_value());
    EXPECT_FALSE(JobSubmitMsg::Decode(src).has_value());
  }
  // The same lie in the second string of a status response.
  {
    ByteSink sink;
    MessageHeader{MsgType::kJobStatusResp, 2}.EncodeTo(sink);
    sink.WritePod<uint8_t>(1);  // known
    WriteString(sink, "done");
    sink.WriteVarint(1ULL << 40);  // detail length lie
    sink.WritePod<double>(1.0);
    const auto bytes = sink.TakeData();
    ByteSource src(bytes);
    ASSERT_TRUE(MessageHeader::Decode(src).has_value());
    EXPECT_FALSE(JobStatusRespMsg::Decode(src).has_value());
  }
  // A row count far beyond the rows the body carries.
  for (const uint64_t claim : {uint64_t{2}, uint64_t{4096}, uint64_t{1} << 50}) {
    ByteSink sink;
    MessageHeader{MsgType::kTenantStatsResp, 3}.EncodeTo(sink);
    sink.WriteVarint(claim);
    const TenantStatsRespMsg one{{SampleRow("only", 9)}};
    ByteSink rows;
    one.EncodeTo(rows);
    const auto row_bytes = rows.TakeData();
    sink.WriteRaw(row_bytes.data() + 1, row_bytes.size() - 1);  // skip count 1
    const auto bytes = sink.TakeData();
    ByteSource src(bytes);
    ASSERT_TRUE(MessageHeader::Decode(src).has_value());
    EXPECT_FALSE(TenantStatsRespMsg::Decode(src).has_value()) << "claim " << claim;
  }
}

TEST(MessageTest, EmptySourceHeaderFailsCleanly) {
  std::vector<uint8_t> empty;
  ByteSource src(empty);
  EXPECT_FALSE(MessageHeader::Decode(src).has_value());
}

TEST(MessageTest, HeaderRejectsUnassignedTypes) {
  for (int raw = 0; raw <= 255; ++raw) {
    ByteSink sink;
    sink.WritePod<uint8_t>(static_cast<uint8_t>(raw));
    sink.WritePod<uint64_t>(1);
    const auto bytes = sink.TakeData();
    ByteSource src(bytes);
    const bool assigned = raw >= static_cast<int>(kFirstMsgType) &&
                          raw <= static_cast<int>(kLastMsgType);
    EXPECT_EQ(MessageHeader::Decode(src).has_value(), assigned) << "type " << raw;
  }
}

TEST(MessageTest, MsgTypeNamesCoverProtocol) {
  for (int raw = static_cast<int>(kFirstMsgType); raw <= static_cast<int>(kLastMsgType);
       ++raw) {
    const char* name = MsgTypeName(static_cast<MsgType>(raw));
    EXPECT_STRNE(name, "");
    EXPECT_STRNE(name, "unknown") << "type " << raw;
  }
}

// --- adversarial-bytes loop -------------------------------------------------

// Runs every surviving decoder over `body`. Each must return a value or
// nullopt; a decoder that succeeds must also re-encode to bytes that decode
// to the same encoding again (no state the encoder cannot represent).
template <typename Msg>
void DecodeAny(const std::vector<uint8_t>& body) {
  ByteSource src(body);
  const auto got = Msg::Decode(src);
  if (!got.has_value()) {
    return;
  }
  ByteSink first;
  got->EncodeTo(first);
  const auto first_bytes = first.TakeData();
  ByteSource again(first_bytes);
  const auto reparsed = Msg::Decode(again);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(again.remaining(), 0u);
  ByteSink second;
  reparsed->EncodeTo(second);
  EXPECT_EQ(second.TakeData(), first_bytes);
}

void DecodeEverything(const std::vector<uint8_t>& envelope) {
  ByteSource src(envelope);
  if (MessageHeader::Decode(src).has_value()) {
    // The body is copied into an exactly-sized buffer: an over-read past the
    // end is a heap overflow under ASan rather than a silent read.
    const std::vector<uint8_t> body(envelope.end() - static_cast<ptrdiff_t>(src.remaining()),
                                    envelope.end());
    DecodeAny<JobSubmitMsg>(body);
    DecodeAny<JobSubmitRespMsg>(body);
    DecodeAny<JobStatusMsg>(body);
    DecodeAny<JobStatusRespMsg>(body);
    DecodeAny<TenantStatsMsg>(body);
    DecodeAny<TenantStatsRespMsg>(body);
  }
}

// Overwrites bytes at `pos` with a varint encoding of a large or off-by-few
// value: the shape of a lying length or count prefix.
void PlantLyingVarint(Rng& rng, std::vector<uint8_t>& bytes, size_t pos) {
  uint64_t value = 0;
  switch (rng.NextU64(3)) {
    case 0: value = rng.NextU64(64) + 1; break;              // slightly long
    case 1: value = rng.NextU64(uint64_t{1} << 32); break;   // huge
    default: value = ~uint64_t{0} - rng.NextU64(16); break;  // near 2^64
  }
  ByteSink sink;
  sink.WriteVarint(value);
  const auto varint = sink.TakeData();
  for (size_t i = 0; i < varint.size() && pos + i < bytes.size(); ++i) {
    bytes[pos + i] = varint[i];
  }
}

// One to four random mutations: byte flips, truncation, lying varints.
std::vector<uint8_t> Mutate(Rng& rng, std::vector<uint8_t> bytes) {
  const uint64_t rounds = rng.NextU64(4) + 1;
  for (uint64_t r = 0; r < rounds && !bytes.empty(); ++r) {
    const size_t pos = static_cast<size_t>(rng.NextU64(bytes.size()));
    switch (rng.NextU64(3)) {
      case 0:
        bytes[pos] ^= static_cast<uint8_t>(rng.NextU64(255) + 1);
        break;
      case 1:
        bytes.resize(pos);
        break;
      default:
        PlantLyingVarint(rng, bytes, pos);
        break;
    }
  }
  return bytes;
}

// Frame-level vandalism on top of the body mutations: flips anywhere in the
// frame (magic, length, payload, CRC), truncation, and length-field lies.
std::vector<uint8_t> MutateFrame(Rng& rng, std::vector<uint8_t> frame) {
  switch (rng.NextU64(4)) {
    case 0:
      frame[rng.NextU64(frame.size())] ^= static_cast<uint8_t>(rng.NextU64(255) + 1);
      break;
    case 1:
      frame.resize(rng.NextU64(frame.size()));
      break;
    case 2: {
      uint32_t len = 0;
      std::memcpy(&len, frame.data() + 4, 4);
      switch (rng.NextU64(3)) {
        case 0: len += static_cast<uint32_t>(rng.NextU64(16)) + 1; break;
        case 1: len = len == 0 ? 0 : len - 1; break;
        default: len = static_cast<uint32_t>(rng.NextU64(uint64_t{kMaxFrameBytes} + 2));
      }
      std::memcpy(frame.data() + 4, &len, 4);
      break;
    }
    default:
      break;  // intact frame: the body mutation alone must be survived
  }
  return frame;
}

TEST(WireFuzzTest, MutatedBytesDecodeOrFailCleanly) {
  const std::vector<std::vector<uint8_t>> corpus = {
      EncodeEnvelope(MsgType::kJobSubmit, 1, SampleSubmit()),
      EncodeEnvelope(MsgType::kJobSubmitResp, 2, SampleSubmitResp()),
      EncodeEnvelope(MsgType::kJobStatus, 3, SampleStatus()),
      EncodeEnvelope(MsgType::kJobStatusResp, 4, SampleStatusResp()),
      EncodeEnvelope(MsgType::kTenantStats, 5, TenantStatsMsg{}),
      EncodeEnvelope(MsgType::kTenantStatsResp, 6, SampleStatsResp()),
  };
  Rng rng(0xB1A2E5EEDULL);
  constexpr int kIterations = 4000;
  int frames_accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::vector<uint8_t>& seed = corpus[rng.NextU64(corpus.size())];
    const std::vector<uint8_t> envelope = Mutate(rng, seed);
    DecodeEverything(envelope);

    // The same bytes through the framing layer: whatever ReadFrame accepts
    // must be exactly what was framed, and then goes through the decoders.
    const std::vector<uint8_t> frame = MutateFrame(rng, RawFrame(envelope));
    FdPair pair;
    if (!frame.empty()) {
      SendRaw(pair.fds[0], frame);
    }
    pair.CloseWriter();
    std::vector<uint8_t> payload;
    std::string error;
    if (ReadFrame(pair.fds[1], &payload, &error)) {
      ++frames_accepted;
      EXPECT_EQ(payload, envelope) << "iteration " << i;
      DecodeEverything(payload);
    } else {
      EXPECT_FALSE(error.empty()) << "iteration " << i;
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "first failure at iteration " << i;
    }
  }
  // The loop must exercise both outcomes, or it is not testing anything.
  EXPECT_GT(frames_accepted, 0);
  EXPECT_LT(frames_accepted, kIterations);
}

}  // namespace
}  // namespace blaze::net
