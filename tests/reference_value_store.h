/**
 * @file
 * Reference model of ValueStore for differential tests: an ordered
 * std::map from line address to bytes, no memo, no filter. Segment
 * counts are recomputed from the data on every call, so a stale memo
 * in the real store shows up as a mismatch.
 */

#ifndef CMPSIM_TESTS_REFERENCE_VALUE_STORE_H
#define CMPSIM_TESTS_REFERENCE_VALUE_STORE_H

#include <map>
#include <string>
#include <vector>

#include "src/ckpt/ckpt_io.h"
#include "src/common/line_data.h"
#include "src/compression/compressor.h"
#include "src/mem/value_store.h"

namespace cmpsim {

class ReferenceValueStore
{
  public:
    explicit ReferenceValueStore(const Compressor &c) : compressor_(c) {}

    bool hasLine(Addr addr) const { return lines_.count(lineAddr(addr)); }

    LineData
    line(Addr addr) const
    {
        const auto it = lines_.find(lineAddr(addr));
        return it == lines_.end() ? LineData{} : it->second;
    }

    void
    setLine(Addr addr, const LineData &data)
    {
        if (journaling_)
            journal_.push_back({addr, data, 0, true});
        lines_[lineAddr(addr)] = data;
    }

    void
    writeWord(Addr addr, std::uint32_t value)
    {
        if (journaling_)
            journal_.push_back({addr, LineData{}, value, false});
        setLineWord(lines_[lineAddr(addr)], lineOffset(addr) / 4, value);
    }

    unsigned
    segments(Addr addr) const
    {
        return compressor_.compressedSegments(line(addr));
    }

    std::size_t lineCount() const { return lines_.size(); }

    void
    startJournal()
    {
        journal_.clear();
        journaling_ = true;
    }

    std::vector<ValueStore::Op>
    takeJournal()
    {
        journaling_ = false;
        return std::move(journal_);
    }

    /** The checkpoint "values" section body, from first principles. */
    std::string
    encode() const
    {
        ckpt::Encoder e;
        e.u64(lines_.size());
        for (const auto &[addr, data] : lines_) {
            e.u64(addr);
            e.raw(data.data(), kLineBytes);
        }
        return e.take();
    }

  private:
    const Compressor &compressor_;
    std::map<Addr, LineData> lines_;
    bool journaling_ = false;
    std::vector<ValueStore::Op> journal_;
};

} // namespace cmpsim

#endif // CMPSIM_TESTS_REFERENCE_VALUE_STORE_H
