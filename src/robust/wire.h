// EINTR-safe fd plumbing and CRC-framed messaging for process boundaries.
//
// Two consumers:
//   - the checkpoint loader, whose reads must survive signal interruption
//     (the service installs non-SA_RESTART handlers, so any blocking read
//     in the process can come back short with EINTR), and
//   - the supervised-worker result pipe (src/serve): a dying worker can
//     tear its final write at any byte, so the result travels in a single
//     CRC-framed message — the supervisor either validates a complete
//     frame or classifies the job from the worker's exit status, never
//     trusting garbage and never hanging on a half-written frame.
//
// Frame layout (little-endian): magic u32 'MLWF' | payloadLen u64 |
// crc32(payload) u32 | payload. parseFrame() throws Error(kParseError) on
// any damage; the byte codec (WireWriter / WireReader) is the same
// little-endian discipline the checkpoint format uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/status.h"

namespace mlpart::robust {

// ------------------------------------------------------------- byte codec

/// Little-endian append-only byte writer (payload construction).
struct WireWriter {
    std::vector<std::uint8_t> bytes;

    void u8(std::uint8_t v) { bytes.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
};

/// Bounds-checked reader over a validated payload. Throws
/// Error(kParseError) on truncation — a frame that passed its CRC can
/// still carry a hostile or version-skewed payload.
struct WireReader {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    std::size_t pos = 0;

    [[nodiscard]] std::size_t remaining() const { return size - pos; }
    void need(std::size_t n) const;
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();
};

// ----------------------------------------------------- EINTR-safe syscalls

/// write(2) until every byte is out, retrying EINTR-interrupted and short
/// writes. Returns a non-ok Status on any other error (EPIPE included —
/// callers talking to a dying peer must not throw).
[[nodiscard]] Status writeFull(int fd, const void* data, std::size_t size);

/// read(2) until `size` bytes arrived, EOF, or a real error. Returns the
/// byte count delivered (< size means EOF); retries EINTR. Throws
/// Error(kInternal) on a real read error.
[[nodiscard]] std::size_t readFull(int fd, void* data, std::size_t size);

/// Reads the whole file through open(2)/read(2) with EINTR retry — the
/// stream-free path the checkpoint loader uses so a signal-heavy host
/// (the service) cannot produce spurious short reads. Throws
/// Error(kParseError) when the file cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> readFileBytes(const std::string& path);

// --------------------------------------------------------------- framing

/// Wraps `payload` in a magic + length + CRC32 frame.
[[nodiscard]] std::vector<std::uint8_t> buildFrame(const std::vector<std::uint8_t>& payload);

/// Validates a complete frame and returns its payload. Throws
/// Error(kParseError) on bad magic, impossible length, truncation
/// (torn write), trailing bytes, or CRC mismatch.
[[nodiscard]] std::vector<std::uint8_t> parseFrame(const std::uint8_t* data, std::size_t size);

/// Frame header size in bytes (magic + length + crc).
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Checks the magic of the kFrameHeaderBytes-byte frame header at `header`
/// and returns the payload length it declares — what a pipe reader needs
/// to know how many more bytes make up the frame. Throws
/// Error(kParseError) on bad magic or a length above `maxPayload`.
[[nodiscard]] std::uint64_t framePayloadLength(const std::uint8_t* header,
                                               std::uint64_t maxPayload);

} // namespace mlpart::robust
