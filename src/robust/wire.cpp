#include "robust/wire.h"

#include <array>
#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#else
#include <fstream>
#include <iterator>
#endif

namespace mlpart::robust {

namespace {

constexpr std::uint32_t kPipeMagic = 0x32574C4DU; // "MLW2" little-endian

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

std::vector<std::uint8_t> WireReader::blob() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> b(data + pos, data + pos + n);
    pos += static_cast<std::size_t>(n);
    return b;
}

void WireReader::badEnum(const char* what, std::uint8_t v) {
    throw Error(StatusCode::kParseError, std::string(what) + " " + std::to_string(v));
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

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

namespace {

void storeLe(std::uint8_t* p, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// The CRC covers tag, len and payload: everything after the magic.
std::uint32_t frameCrc(const std::uint8_t* header, const std::uint8_t* payload,
                       std::size_t size) {
    return crc32(payload, size, crc32(header + 4, kFrameHeaderBytes - 8));
}

// Checks the frame starting at `p` with `left` bytes available. Fills
// `frame` and returns kEnd when it is valid; otherwise names the damage.
FrameStop checkFrame(const std::uint8_t* p, std::size_t left, std::uint32_t magic,
                     std::uint64_t maxPayload, Frame& frame, std::string& why) {
    // The magic goes first so that even a short foreign file is named as
    // foreign rather than as torn.
    if (left >= 4 && WireReader{p, 4}.u32() != magic) {
        why = "bad magic (foreign or older-format data)";
        return FrameStop::kBadMagic;
    }
    if (left < kFrameHeaderBytes) {
        why = "frame header truncated (" + std::to_string(left) + " of " +
              std::to_string(kFrameHeaderBytes) + " bytes)";
        return FrameStop::kTruncated;
    }
    WireReader header{p, kFrameHeaderBytes, 4};
    frame.tag = header.u32();
    const std::uint64_t len = header.u64();
    const std::uint32_t crc = header.u32();
    if (len > maxPayload) {
        why = "implausible frame length " + std::to_string(len) + " (cap " +
              std::to_string(maxPayload) + ")";
        return FrameStop::kOverCap;
    }
    if (len > left - kFrameHeaderBytes) {
        why = "frame truncated (torn write: declares " + std::to_string(len) +
              " payload bytes, " + std::to_string(left - kFrameHeaderBytes) + " present)";
        return FrameStop::kTruncated;
    }
    frame.payload = p + kFrameHeaderBytes;
    frame.size = static_cast<std::size_t>(len);
    if (frameCrc(p, frame.payload, frame.size) != crc) {
        why = "CRC mismatch (bit rot or torn write)";
        return FrameStop::kCrcMismatch;
    }
    return FrameStop::kEnd;
}

} // namespace

void appendFrame(std::vector<std::uint8_t>& out, std::uint32_t magic, std::uint32_t tag,
                 const std::uint8_t* payload, std::size_t size) {
    const std::size_t at = out.size();
    out.resize(at + kFrameHeaderBytes);
    std::uint8_t* header = out.data() + at;
    storeLe(header, magic, 4);
    storeLe(header + 4, tag, 4);
    storeLe(header + 8, size, 8);
    storeLe(header + 16, frameCrc(header, payload, size), 4);
    out.insert(out.end(), payload, payload + size);
}

FrameScan scanFrames(const std::uint8_t* data, std::size_t size, std::uint32_t magic,
                     std::uint64_t maxPayload) {
    FrameScan scan;
    while (scan.validBytes < size) {
        Frame f;
        scan.stop = checkFrame(data + scan.validBytes, size - scan.validBytes, magic,
                               maxPayload, f, scan.why);
        if (scan.stop != FrameStop::kEnd) {
            scan.why += " at byte " + std::to_string(scan.validBytes);
            break;
        }
        scan.frames.push_back(f);
        scan.validBytes = static_cast<std::size_t>(f.end() - data);
    }
    return scan;
}

// ------------------------------------------------------------ worker pipes

std::vector<std::uint8_t> buildFrame(const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> out;
    appendFrame(out, kPipeMagic, 0, payload);
    return out;
}

std::uint64_t framePayloadLength(const std::uint8_t* header, std::uint64_t maxPayload) {
    const FrameScan scan = scanFrames(header, kFrameHeaderBytes, kPipeMagic, maxPayload);
    if (scan.stop == FrameStop::kBadMagic || scan.stop == FrameStop::kOverCap)
        frameError(scan.why);
    return WireReader{header, kFrameHeaderBytes, 8}.u64();
}

std::vector<std::uint8_t> parseFrame(const std::uint8_t* data, std::size_t size) {
    if (size == 0) frameError("empty frame (worker wrote nothing)");
    const FrameScan scan = scanFrames(data, size, kPipeMagic, kMaxFrameBytes);
    if (scan.frames.empty()) frameError(scan.why);
    if (scan.validBytes != size || scan.frames.size() != 1)
        frameError("trailing bytes after frame payload");
    const Frame& f = scan.frames.front();
    return std::vector<std::uint8_t>(f.payload, f.end());
}

} // namespace mlpart::robust
