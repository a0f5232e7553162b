// EINTR-safe fd plumbing, the little-endian byte codec, and the one CRC
// frame every durable or cross-process format is built from (DESIGN.md §8):
//
//   magic u32 | tag u32 | len u64 | crc32(tag, len, payload) u32 | payload
//
// Each format — checkpoint, serve journal, persisted result cache, worker
// pipes — passes its own magic and gives `tag` its own meaning; the CRC
// covers every field a reader acts on. appendFrame() is the only frame
// writer and scanFrames() the only reader, so a format keeps only its
// policy for a damaged stream. A dying worker can tear its pipe write at
// any byte, so a pipe message is exactly one frame: the supervisor either
// validates it or classifies the job from the worker's exit status.
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
    /// u64 length, then the bytes.
    void blob(const std::vector<std::uint8_t>& b) {
        u64(b.size());
        bytes.insert(bytes.end(), b.begin(), b.end());
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
    std::vector<std::uint8_t> blob();

    /// Reads a u8-encoded enum whose valid values are 0..`max`. Anything
    /// above throws Error(kParseError, "<what> <value>").
    template <class E>
    E enumU8(E max, const char* what) {
        const std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(max)) badEnum(what, v);
        return static_cast<E>(v);
    }

private:
    [[noreturn]] static void badEnum(const char* what, std::uint8_t v);
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

/// Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).
/// `seed` chains incremental computations: pass a previous result to
/// continue it over another buffer.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Frame header size in bytes (magic + tag + len + crc).
inline constexpr std::size_t kFrameHeaderBytes = 20;

/// Appends one frame carrying `payload` under `magic` and `tag` to `out`.
void appendFrame(std::vector<std::uint8_t>& out, std::uint32_t magic, std::uint32_t tag,
                 const std::uint8_t* payload, std::size_t size);
inline void appendFrame(std::vector<std::uint8_t>& out, std::uint32_t magic,
                        std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
    appendFrame(out, magic, tag, payload.data(), payload.size());
}

/// One frame that passed every check: a view into the scanned buffer.
struct Frame {
    std::uint32_t tag = 0;
    const std::uint8_t* payload = nullptr;
    std::size_t size = 0;

    [[nodiscard]] WireReader reader() const { return {payload, size, 0}; }
    /// One past the frame's last byte.
    [[nodiscard]] const std::uint8_t* end() const { return payload + size; }
};

/// Why a scan stopped.
enum class FrameStop : std::uint8_t {
    kEnd,         ///< every byte belongs to a valid frame
    kBadMagic,    ///< foreign, older-format or shifted data
    kOverCap,     ///< declared length above the caller's cap
    kTruncated,   ///< header or payload cut short (torn write)
    kCrcMismatch, ///< bit rot or a torn write
};

/// The longest valid prefix of a byte stream.
struct FrameScan {
    std::vector<Frame> frames;  ///< in stream order
    std::size_t validBytes = 0; ///< bytes `frames` cover, from the start
    FrameStop stop = FrameStop::kEnd;
    std::string why; ///< what stopped the scan and where ("" at kEnd)
};

/// Scans `data` forward frame by frame and stops at the first frame with
/// a foreign magic, a length above `maxPayload`, too few bytes, or a CRC
/// mismatch. Never throws on content; never allocates for a declared
/// length it has not checked against the bytes present.
[[nodiscard]] FrameScan scanFrames(const std::uint8_t* data, std::size_t size,
                                   std::uint32_t magic, std::uint64_t maxPayload);

// ------------------------------------------------------------ worker pipes

/// Wraps `payload` in one pipe frame (magic 'MLW2', tag 0).
[[nodiscard]] std::vector<std::uint8_t> buildFrame(const std::vector<std::uint8_t>& payload);

/// Returns the payload of the one pipe frame that makes up all of `data`.
/// Throws Error(kParseError) on bad magic, impossible length, truncation
/// (torn write), trailing bytes, or CRC mismatch.
[[nodiscard]] std::vector<std::uint8_t> parseFrame(const std::uint8_t* data, std::size_t size);

/// Checks the magic of the kFrameHeaderBytes-byte pipe frame header at
/// `header` and returns the payload length it declares — what a pipe
/// reader needs to know how many more bytes make up the frame. Throws
/// Error(kParseError) on bad magic or a length above `maxPayload`.
[[nodiscard]] std::uint64_t framePayloadLength(const std::uint8_t* header,
                                               std::uint64_t maxPayload);

} // namespace mlpart::robust
