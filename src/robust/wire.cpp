#include "robust/wire.h"

#include <cerrno>
#include <cstring>

#include "robust/checkpoint.h" // crc32

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#else
#include <fstream>
#include <iterator>
#endif

namespace mlpart::robust {

namespace {

constexpr std::uint32_t kFrameMagic = 0x46574C4DU; // "MLWF" little-endian

// A frame bigger than this is hostile or damaged — result payloads are a
// few hundred bytes; even one carrying a full partition blob stays far
// below it.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 32;

[[noreturn]] void frameError(const std::string& message) {
    throw Error(StatusCode::kParseError, "wire: " + message);
}

} // namespace

// ------------------------------------------------------------- byte codec

void WireWriter::f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void WireReader::need(std::size_t n) const {
    if (n > remaining())
        frameError("payload truncated (wanted " + std::to_string(n) + " more bytes, " +
                   std::to_string(remaining()) + " left)");
}

std::uint8_t WireReader::u8() {
    need(1);
    return data[pos++];
}

std::uint32_t WireReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
}

std::uint64_t WireReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
}

double WireReader::f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string WireReader::str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
}

// ----------------------------------------------------- EINTR-safe syscalls

#if !defined(_WIN32)

Status writeFull(int fd, const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, p + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Status::error(StatusCode::kInternal,
                                 std::string("wire: write failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::okStatus();
}

std::size_t readFull(int fd, void* data, std::size_t size) {
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::read(fd, p + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw Error(StatusCode::kInternal,
                        std::string("wire: read failed: ") + std::strerror(errno));
        }
        if (n == 0) break; // EOF
        off += static_cast<std::size_t>(n);
    }
    return off;
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
    int fd;
    do {
        fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        throw Error(StatusCode::kParseError,
                    "wire: cannot open " + path + ": " + std::strerror(errno));
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            ::close(fd);
            throw Error(StatusCode::kParseError,
                        "wire: read from " + path + " failed: " + std::strerror(err));
        }
        if (n == 0) break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    return bytes;
}

#else // _WIN32: stream fallback (the serve layer itself is POSIX-only)

Status writeFull(int, const void*, std::size_t) {
    return Status::error(StatusCode::kInternal, "wire: fd IO unsupported on this platform");
}

std::size_t readFull(int, void*, std::size_t) {
    throw Error(StatusCode::kInternal, "wire: fd IO unsupported on this platform");
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error(StatusCode::kParseError, "wire: cannot open " + path);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

#endif

// --------------------------------------------------------------- framing

std::vector<std::uint8_t> buildFrame(const std::vector<std::uint8_t>& payload) {
    WireWriter out;
    out.bytes.reserve(kFrameHeaderBytes + payload.size());
    out.u32(kFrameMagic);
    out.u64(payload.size());
    out.u32(crc32(payload.data(), payload.size()));
    out.bytes.insert(out.bytes.end(), payload.begin(), payload.end());
    return std::move(out.bytes);
}

std::uint64_t framePayloadLength(const std::uint8_t* header, std::uint64_t maxPayload) {
    WireReader in{header, kFrameHeaderBytes};
    if (in.u32() != kFrameMagic) frameError("bad frame magic");
    const std::uint64_t len = in.u64();
    if (len > maxPayload)
        frameError("implausible frame length " + std::to_string(len) + " (cap " +
                   std::to_string(maxPayload) + ")");
    return len;
}

std::vector<std::uint8_t> parseFrame(const std::uint8_t* data, std::size_t size) {
    if (size == 0) frameError("empty frame (worker wrote nothing)");
    if (size < kFrameHeaderBytes)
        frameError("frame header truncated (" + std::to_string(size) + " bytes)");
    const std::uint64_t len = framePayloadLength(data, kMaxFrameBytes);
    WireReader in{data, size, kFrameHeaderBytes - 4}; // at the crc, after magic + length
    const std::uint32_t crc = in.u32();
    if (len > in.remaining())
        frameError("frame truncated (torn write: declares " + std::to_string(len) +
                   " payload bytes, " + std::to_string(in.remaining()) + " present)");
    if (len < in.remaining())
        frameError("trailing bytes after frame payload");
    if (crc != crc32(data + in.pos, static_cast<std::size_t>(len)))
        frameError("frame CRC mismatch (torn or corrupted write)");
    return std::vector<std::uint8_t>(data + in.pos, data + in.pos + len);
}

} // namespace mlpart::robust
