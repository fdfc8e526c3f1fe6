// Binary-frame corruption matrix: every way a frame can arrive broken —
// bad magic, reserved bits, unknown type, truncated header, length over
// the cap, checksum mismatch, peer vanishing mid-frame — is detected
// before a payload byte is trusted, and any framing error poisons the
// reader permanently (there is no resync point in a length-prefixed
// stream).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "util/fnv1a.h"
#include "util/check.h"
#include "wire/frame.h"

namespace rebert::wire {
namespace {

Frame read_one(FrameReader& reader) {
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kFrame)
      << error;
  return frame;
}

TEST(FrameTest, RoundTripPreservesTypePayloadAndRawBytes) {
  const std::string encoded = encode_frame(FrameType::kRequest, "hello");
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes + 5);

  FrameReader reader;
  reader.feed(encoded);
  const Frame frame = read_one(reader);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.payload, "hello");
  EXPECT_EQ(frame.raw, encoded);  // what a relay forwards verbatim
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, EmptyPayloadIsAValidFrame) {
  FrameReader reader;
  reader.feed(encode_frame(FrameType::kHelloAck, ""));
  const Frame frame = read_one(reader);
  EXPECT_EQ(frame.type, FrameType::kHelloAck);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, DribbledBytesYieldFramesOnlyWhenComplete) {
  // A frame arriving one byte at a time must produce kNeedMore until the
  // last byte lands — the reader never guesses at a partial payload.
  const std::string encoded = encode_frame(FrameType::kResponse, "payload");
  FrameReader reader;
  Frame frame;
  std::string error;
  for (std::size_t i = 0; i + 1 < encoded.size(); ++i) {
    reader.feed(encoded.data() + i, 1);
    EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kNeedMore);
  }
  reader.feed(encoded.data() + encoded.size() - 1, 1);
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.payload, "payload");
}

TEST(FrameTest, TwoFramesInOneFeedComeOutInOrder) {
  FrameReader reader;
  reader.feed(encode_frame(FrameType::kRequest, "first") +
              encode_frame(FrameType::kResponse, "second"));
  EXPECT_EQ(read_one(reader).payload, "first");
  EXPECT_EQ(read_one(reader).payload, "second");
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kNeedMore);
}

TEST(FrameTest, BadMagicPoisonsTheReader) {
  std::string encoded = encode_frame(FrameType::kRequest, "x");
  encoded[0] = 'h';  // what a text client's first byte would look like
  FrameReader reader;
  reader.feed(encoded);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Poisoned: even a pristine frame afterwards is refused, because the
  // stream position can no longer be trusted.
  reader.feed(encode_frame(FrameType::kRequest, "fine"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
}

TEST(FrameTest, ReservedBitsRejected) {
  std::string encoded = encode_frame(FrameType::kRequest, "x");
  encoded[2] = 1;  // u16 reserved at bytes 2..3
  FrameReader reader;
  reader.feed(encoded);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
  EXPECT_NE(error.find("reserved"), std::string::npos) << error;
}

TEST(FrameTest, UnknownTypeRejected) {
  std::string encoded = encode_frame(FrameType::kRequest, "x");
  encoded[1] = 99;
  FrameReader reader;
  reader.feed(encoded);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
  EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST(FrameTest, LengthOverCapRejectedWithoutWaitingForPayload) {
  // The length field is validated from the header alone: a hostile length
  // must be refused immediately, not after buffering gigabytes.
  std::string encoded = encode_frame(FrameType::kRequest, "x");
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&encoded[4], &huge, sizeof(huge));  // u32 payload_len
  FrameReader reader;
  reader.feed(encoded.data(), kFrameHeaderBytes);  // header only
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

TEST(FrameTest, ChecksumMismatchRejected) {
  std::string encoded = encode_frame(FrameType::kRequest, "payload");
  encoded[kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(encoded);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(FrameTest, MidFrameDisconnectLeavesBytesBuffered) {
  // The reader cannot see EOF, but its owner can: buffered() > 0 when the
  // connection closes is the "peer vanished mid-frame" signal both the
  // server and Client act on.
  const std::string encoded = encode_frame(FrameType::kRequest, "payload");
  FrameReader reader;
  reader.feed(encoded.data(), encoded.size() - 2);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kNeedMore);
  EXPECT_GT(reader.buffered(), 0u);

  reader.reset();
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, ResetClearsPoisoning) {
  std::string bad = encode_frame(FrameType::kRequest, "x");
  bad[0] = 0;
  FrameReader reader;
  reader.feed(bad);
  Frame frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kError);

  // reset() is what Client::close() calls so a reconnect starts clean.
  reader.reset();
  reader.feed(encode_frame(FrameType::kResponse, "ok"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.payload, "ok");
}

TEST(FrameTest, EncodeRefusesOversizedPayload) {
  const std::string big(kMaxFramePayload + 1, 'a');
  EXPECT_THROW((void)encode_frame(FrameType::kRequest, big),
               util::CheckError);
}

TEST(FrameTest, HelloRoundTripCarriesTheVersion) {
  FrameReader reader;
  reader.feed(encode_hello());
  const Frame hello = read_one(reader);
  EXPECT_EQ(hello.type, FrameType::kHello);
  std::uint16_t version = 0;
  std::string error;
  ASSERT_TRUE(decode_hello_payload(hello.payload, &version, &error))
      << error;
  EXPECT_EQ(version, kWireVersion);

  reader.feed(encode_hello_ack());
  EXPECT_EQ(read_one(reader).type, FrameType::kHelloAck);
}

TEST(FrameTest, HelloPayloadValidation) {
  std::uint16_t version = 0;
  std::string error;
  EXPECT_FALSE(decode_hello_payload("short", &version, &error));
  const std::string wrong_tag("XXWP\x01\x00\x00\x00", 8);
  EXPECT_FALSE(decode_hello_payload(wrong_tag, &version, &error));
  EXPECT_NE(error.find("tag"), std::string::npos) << error;
}

TEST(FrameTest, ChecksumIsPinnedFnv1a) {
  // The frame checksum is FNV-1a over the payload; pinning it to known
  // values keeps frames from peers built before or after any refactor of
  // the hash verifiable.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(util::fnv1a(data.data(), data.size()), 8360034000264797104ULL);
  EXPECT_EQ(util::fnv1a(nullptr, 0), 14695981039346656037ULL);
  const std::string frame = encode_frame(FrameType::kRequest, data);
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, frame.data() + 8, sizeof(checksum));
  EXPECT_EQ(checksum, 8360034000264797104ULL);
}

}  // namespace
}  // namespace rebert::wire
