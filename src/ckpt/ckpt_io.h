/**
 * @file
 * Checkpoint container I/O (DESIGN.md §13).
 *
 * On-disk layout (all integers little-endian):
 *
 *     magic   "CMPSIMCK"                      8 bytes
 *     u32     format version (kFormatVersion)
 *     u64     pointSpec fingerprint
 *     u32     section count
 *     per section:
 *         u16 + bytes   section name
 *         u64           payload length
 *         bytes         payload
 *         u32           CRC-32 of the payload
 *     u32     CRC-32 of everything above (whole-file)
 *
 * Corruption (bad magic, truncation, CRC mismatch) throws
 * CorruptCheckpoint so the restore controller can fall back to the
 * previous good snapshot; a good-CRC file with an unsupported format
 * version throws ConfigError immediately — that file is not corrupt,
 * it is simply not ours to read, and silently "falling back" would
 * resume from stale state.
 *
 * Doubles are stored as length-prefixed `%a` hexfloat strings (the
 * journal's idiom) so they round-trip bit-exactly and the container
 * stays trivially portable across compilers.
 */

#ifndef CMPSIM_CKPT_CKPT_IO_H
#define CMPSIM_CKPT_CKPT_IO_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>


namespace cmpsim::ckpt {

inline constexpr char kMagic[8] = {'C', 'M', 'P', 'S',
                                   'I', 'M', 'C', 'K'};
inline constexpr std::uint32_t kFormatVersion = 2;

/**
 * Structural damage in a checkpoint file: bad magic, truncation, or a
 * CRC mismatch. Distinct from ConfigError so the restore controller
 * can fall back to the `.prev` snapshot on corruption while refusing
 * fingerprint/version mismatches outright.
 */
class CorruptCheckpoint : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Append-only byte-buffer writer for section payloads. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Bit-exact double as a length-prefixed %a hexfloat string. */
    void dbl(double v);
    /** Length-prefixed (u16) byte string. */
    void str(std::string_view s);
    /** Raw bytes, caller-framed. */
    void raw(const void *data, std::size_t len);

    const std::string &bytes() const { return bytes_; }
    std::string take() { return std::move(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Cursor over a section payload; every underrun or malformed field
 * throws CorruptCheckpoint (structural damage inside a section that
 * passed its CRC can only come from an encoder/decoder mismatch, but
 * the failure mode is the same: the file cannot be trusted).
 */
class Decoder
{
  public:
    explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t u8();
    bool boolean() { return u8() != 0; }
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double dbl();
    std::string str();
    void raw(void *out, std::size_t len);

    /** Throw unless the payload was consumed exactly. */
    void expectEnd(const char *what) const;

  private:
    void need(std::size_t n) const;

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

struct Section
{
    std::string name;
    std::string payload;
};

struct ParsedFile
{
    std::uint64_t fingerprint = 0;
    std::vector<Section> sections;
};

/** Serialize a full checkpoint container (header + CRCs). */
std::string packFile(std::uint64_t fingerprint,
                     const std::vector<Section> &sections);

/**
 * Parse and verify a container. Throws CorruptCheckpoint on
 * structural damage, ConfigError("config.restore") on an unsupported
 * format version.
 */
ParsedFile parseFile(std::string_view bytes);

/** Parse then re-pack: the `ckpt.roundtrip` audit's identity check. */
std::string transcode(std::string_view bytes);

} // namespace cmpsim::ckpt

#endif // CMPSIM_CKPT_CKPT_IO_H
