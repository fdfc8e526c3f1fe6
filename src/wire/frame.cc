#include "wire/frame.h"

#include <cstring>

#include "util/check.h"
#include "util/fnv1a.h"

namespace rebert::wire {

namespace {

/// The on-stream header. Packed: the layout IS the format, so the struct
/// must match the documented byte offsets exactly.
struct __attribute__((__packed__)) FrameHeader {
  std::uint8_t magic;
  std::uint8_t type;
  std::uint16_t reserved;
  std::uint32_t payload_len;
  std::uint64_t checksum;
};
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes,
              "frame header layout drifted from the wire format");

struct __attribute__((__packed__)) HelloPayload {
  char tag[4];
  std::uint16_t version;
  std::uint16_t reserved;
};
constexpr char kHelloTag[4] = {'R', 'B', 'W', 'P'};

std::string encode_hello_frame(FrameType type) {
  HelloPayload hello{};
  std::memcpy(hello.tag, kHelloTag, sizeof(kHelloTag));
  hello.version = kWireVersion;
  hello.reserved = 0;
  return encode_frame(
      type, std::string_view(reinterpret_cast<const char*>(&hello),
                             sizeof(hello)));
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  REBERT_CHECK_MSG(payload.size() <= kMaxFramePayload,
                   "wire frame payload of " + std::to_string(payload.size()) +
                       " bytes exceeds the " +
                       std::to_string(kMaxFramePayload) + "-byte cap");
  FrameHeader header{};
  header.magic = kFrameMagic;
  header.type = static_cast<std::uint8_t>(type);
  header.reserved = 0;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.checksum = util::fnv1a(payload.data(), payload.size());
  std::string frame;
  frame.reserve(sizeof(header) + payload.size());
  frame.append(reinterpret_cast<const char*>(&header), sizeof(header));
  frame.append(payload);
  return frame;
}

FrameReader::Status FrameReader::fail(std::string message,
                                      std::string* error) {
  failed_ = true;
  error_ = std::move(message);
  if (error) *error = error_;
  return Status::kError;
}

FrameReader::Status FrameReader::next(Frame* frame, std::string* error) {
  if (failed_) {
    if (error) *error = error_;
    return Status::kError;
  }
  if (buffer_.size() < kFrameHeaderBytes) return Status::kNeedMore;

  FrameHeader header;
  std::memcpy(&header, buffer_.data(), sizeof(header));
  if (header.magic != kFrameMagic)
    return fail("bad frame magic 0x" + std::to_string(header.magic) +
                    " (stream desynchronized or not a wire frame)",
                error);
  if (header.reserved != 0)
    return fail("frame reserved bits set (corrupt header)", error);
  if (header.type < static_cast<std::uint8_t>(FrameType::kHello) ||
      header.type > static_cast<std::uint8_t>(FrameType::kError))
    return fail("unknown frame type " + std::to_string(header.type), error);
  if (header.payload_len > kMaxFramePayload)
    return fail("frame payload length " + std::to_string(header.payload_len) +
                    " exceeds the " + std::to_string(kMaxFramePayload) +
                    "-byte cap",
                error);

  const std::size_t total =
      kFrameHeaderBytes + static_cast<std::size_t>(header.payload_len);
  if (buffer_.size() < total) return Status::kNeedMore;

  const char* payload = buffer_.data() + kFrameHeaderBytes;
  if (util::fnv1a(payload, header.payload_len) != header.checksum)
    return fail("frame checksum mismatch (corrupt payload)", error);

  frame->type = static_cast<FrameType>(header.type);
  frame->payload.assign(payload, header.payload_len);
  frame->raw.assign(buffer_.data(), total);
  buffer_.erase(0, total);
  return Status::kFrame;
}

std::string encode_hello() { return encode_hello_frame(FrameType::kHello); }

std::string encode_hello_ack() {
  return encode_hello_frame(FrameType::kHelloAck);
}

bool decode_hello_payload(std::string_view payload, std::uint16_t* version,
                          std::string* error) {
  HelloPayload hello;
  if (payload.size() != sizeof(hello)) {
    if (error)
      *error = "hello payload is " + std::to_string(payload.size()) +
               " bytes (want " + std::to_string(sizeof(hello)) + ")";
    return false;
  }
  std::memcpy(&hello, payload.data(), sizeof(hello));
  if (std::memcmp(hello.tag, kHelloTag, sizeof(kHelloTag)) != 0) {
    if (error) *error = "hello tag mismatch (not a wire protocol hello)";
    return false;
  }
  if (hello.reserved != 0) {
    if (error) *error = "hello reserved bits set";
    return false;
  }
  if (version) *version = hello.version;
  return true;
}

std::string encode_protocol_error(std::string_view message) {
  return encode_frame(FrameType::kError, message);
}

}  // namespace rebert::wire
