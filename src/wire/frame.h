// Binary wire framing — the length-prefixed, checksummed envelope under
// the serving runtime's binary protocol.
//
// Every frame is a fixed 16-byte packed header followed by payload bytes:
//
//   u8   magic        0xAB — deliberately non-printable, so the first byte
//                     of a connection distinguishes binary from the text
//                     protocol (no text verb can start with it)
//   u8   type         FrameType
//   u16  reserved     must be zero
//   u32  payload_len  <= kMaxFramePayload
//   u64  checksum     FNV-1a over the payload bytes
//
// Fields are native-endian (the project targets little-endian hosts only;
// same policy as the RBPC / RBTW artifact formats — see DESIGN.md "Wire
// format & artifact layout"). Decoding validates magic, reserved bits,
// type range, the length cap, and the checksum before a single payload
// byte is trusted; one malformed frame poisons the stream (the reader
// stays failed), because after a framing error the byte stream has no
// recoverable synchronization point.
//
// Negotiation: a client that wants binary opens with a kHello frame
// ("RBWP" tag + version); the server answers kHelloAck and the connection
// speaks frames from then on. Connections that open with anything else are
// served as newline text — old clients and humans never see a frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rebert::wire {

inline constexpr unsigned char kFrameMagic = 0xAB;
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Hard cap on a single frame's payload. Requests and responses are a few
/// hundred bytes; anything near the cap is a hostile or corrupt stream.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,     // client -> server: protocol negotiation
  kHelloAck = 2,  // server -> client: negotiation accepted
  kRequest = 3,   // encoded wire::Request (message.h)
  kResponse = 4,  // encoded wire::Response (message.h)
  kError = 5,     // protocol-level failure; payload is a text diagnosis
};

/// One decoded, checksum-verified frame. `raw` is the exact frame bytes
/// (header + payload) as they appeared on the stream — what the router
/// forwards verbatim so a relay never re-encodes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
  std::string raw;
};

/// Assemble one complete frame (header + payload). Checks the payload cap
/// via util::CheckError — callers build payloads, so an oversized one is a
/// programming error, not input.
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame decoder for a byte stream. feed() appends received
/// bytes; next() yields complete verified frames. After any framing error
/// (bad magic, reserved bits set, unknown type, length over cap, checksum
/// mismatch) the reader is poisoned: every further next() reports the same
/// error and the connection must be dropped.
class FrameReader {
 public:
  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // *frame filled with the next verified frame
    kError,     // stream poisoned; *error explains
  };

  void feed(const char* data, std::size_t size) {
    buffer_.append(data, size);
  }
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  Status next(Frame* frame, std::string* error);

  /// Bytes received but not yet consumed by a complete frame. Non-zero at
  /// connection EOF means the peer vanished mid-frame.
  std::size_t buffered() const { return buffer_.size(); }

  void reset() {
    buffer_.clear();
    error_.clear();
    failed_ = false;
  }

 private:
  Status fail(std::string message, std::string* error);

  std::string buffer_;
  std::string error_;
  bool failed_ = false;
};

/// Negotiation frames. The hello payload is a packed {tag "RBWP",
/// u16 version, u16 reserved}; decode_hello_payload validates tag and
/// reserved bits and reports the peer's version.
std::string encode_hello();
std::string encode_hello_ack();
bool decode_hello_payload(std::string_view payload, std::uint16_t* version,
                          std::string* error);

/// A kError frame carrying a one-line diagnosis (sent before dropping a
/// connection that broke framing).
std::string encode_protocol_error(std::string_view message);

}  // namespace rebert::wire
