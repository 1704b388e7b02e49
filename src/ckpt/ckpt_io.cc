#include "src/ckpt/ckpt_io.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/ckpt/crc32.h"
#include "src/common/sim_error.h"

namespace cmpsim::ckpt {

// ---------------------------------------------------------------- Encoder

void
Encoder::u16(std::uint16_t v)
{
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
}

void
Encoder::u32(std::uint32_t v)
{
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
}

void
Encoder::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
Encoder::dbl(double v)
{
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%a", v);
    str(std::string_view(buf, static_cast<std::size_t>(n)));
}

void
Encoder::str(std::string_view s)
{
    u16(static_cast<std::uint16_t>(s.size()));
    bytes_.append(s.data(), s.size());
}

void
Encoder::raw(const void *data, std::size_t len)
{
    bytes_.append(static_cast<const char *>(data), len);
}

// ---------------------------------------------------------------- Decoder

void
Decoder::need(std::size_t n) const
{
    if (bytes_.size() - pos_ < n)
        throw CorruptCheckpoint("checkpoint section truncated");
}

std::uint8_t
Decoder::u8()
{
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint16_t
Decoder::u16()
{
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t
Decoder::u32()
{
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
}

std::uint64_t
Decoder::u64()
{
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

double
Decoder::dbl()
{
    const std::string s = str();
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == s.c_str())
        throw CorruptCheckpoint("malformed hexfloat in checkpoint");
    return v;
}

std::string
Decoder::str()
{
    const std::uint16_t n = u16();
    need(n);
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
}

void
Decoder::raw(void *out, std::size_t len)
{
    need(len);
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
}

void
Decoder::expectEnd(const char *what) const
{
    if (pos_ != bytes_.size())
        throw CorruptCheckpoint(std::string("trailing bytes in ") +
                                what + " section");
}

// ------------------------------------------------------------- container

std::string
packFile(std::uint64_t fingerprint,
         const std::vector<Section> &sections)
{
    Encoder e;
    e.raw(kMagic, sizeof kMagic);
    e.u32(kFormatVersion);
    e.u64(fingerprint);
    e.u32(static_cast<std::uint32_t>(sections.size()));
    for (const Section &s : sections) {
        e.str(s.name);
        e.u64(s.payload.size());
        e.raw(s.payload.data(), s.payload.size());
        e.u32(crc32(s.payload.data(), s.payload.size()));
    }
    std::string out = e.take();
    const std::uint32_t whole = crc32(out.data(), out.size());
    Encoder tail;
    tail.u32(whole);
    out += tail.take();
    return out;
}

ParsedFile
parseFile(std::string_view bytes)
{
    if (bytes.size() < sizeof kMagic + 4 + 8 + 4 + 4)
        throw CorruptCheckpoint("checkpoint file truncated");
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        throw CorruptCheckpoint("bad checkpoint magic");

    // Whole-file CRC first: it detects truncation and bit flips
    // anywhere, independent of the format version.
    const std::string_view body = bytes.substr(0, bytes.size() - 4);
    Decoder tail(bytes.substr(bytes.size() - 4));
    if (crc32(body.data(), body.size()) != tail.u32())
        throw CorruptCheckpoint("checkpoint whole-file CRC mismatch");

    Decoder d(body);
    char magic[sizeof kMagic];
    d.raw(magic, sizeof magic);
    const std::uint32_t version = d.u32();
    if (version != kFormatVersion)
        throw ConfigError("config.restore",
                          "unsupported checkpoint format version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kFormatVersion) + ")");

    ParsedFile file;
    file.fingerprint = d.u64();
    const std::uint32_t count = d.u32();
    file.sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        s.name = d.str();
        const std::uint64_t len = d.u64();
        s.payload.resize(len);
        d.raw(s.payload.data(), len);
        const std::uint32_t crc = d.u32();
        if (crc32(s.payload.data(), s.payload.size()) != crc)
            throw CorruptCheckpoint("checkpoint section '" + s.name +
                                    "' CRC mismatch");
        file.sections.push_back(std::move(s));
    }
    d.expectEnd("container");
    return file;
}

std::string
transcode(std::string_view bytes)
{
    const ParsedFile file = parseFile(bytes);
    return packFile(file.fingerprint, file.sections);
}

} // namespace cmpsim::ckpt
