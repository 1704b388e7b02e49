#include "src/mem/value_store.h"

#include <gtest/gtest.h>

#include "src/ckpt/checkpoint.h"
#include "src/common/random.h"
#include "src/compression/fpc.h"
#include "tests/reference_value_store.h"

namespace cmpsim {
namespace {

class ValueStoreTest : public ::testing::Test
{
  protected:
    FpcCompressor fpc;
    ValueStore store{fpc};
};

TEST_F(ValueStoreTest, UntouchedLinesReadZero)
{
    EXPECT_FALSE(store.hasLine(0x1000));
    EXPECT_EQ(store.line(0x1000), zeroLine());
    // Zero lines compress to one segment under FPC.
    EXPECT_EQ(store.segments(0x1000), 1u);
}

TEST_F(ValueStoreTest, SetLineRoundTrip)
{
    LineData d{};
    setLineWord(d, 3, 0xdeadbeef);
    store.setLine(0x2040, d);
    EXPECT_TRUE(store.hasLine(0x2040));
    EXPECT_EQ(store.line(0x2047), d); // any addr within the line
    EXPECT_EQ(lineWord(store.line(0x2040), 3), 0xdeadbeefu);
}

TEST_F(ValueStoreTest, WriteWordUpdatesLineAndSize)
{
    // All-zero line: 1 segment. Make every word raw: size grows.
    EXPECT_EQ(store.segments(0x3000), 1u);
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        store.writeWord(0x3000 + i * 4, 0x89abcdefu + i * 1097);
    EXPECT_EQ(store.segments(0x3000), kSegmentsPerLine);
}

TEST_F(ValueStoreTest, SegmentsMemoInvalidatedOnWrite)
{
    store.writeWord(0x4000, 5); // Se4 word + 15 zeros: tiny
    const unsigned small = store.segments(0x4000);
    EXPECT_EQ(small, 1u);
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        store.writeWord(0x4000 + i * 4, 0xf0e1d2c3u ^ (i * 0x9e3779b9u));
    EXPECT_GT(store.segments(0x4000), small);
}

TEST_F(ValueStoreTest, LinesAreIndependent)
{
    store.writeWord(0x5000, 1);
    store.writeWord(0x5040, 2);
    EXPECT_EQ(lineWord(store.line(0x5000), 0), 1u);
    EXPECT_EQ(lineWord(store.line(0x5040), 0), 2u);
    EXPECT_EQ(store.lineCount(), 2u);
}

TEST_F(ValueStoreTest, SegmentsMatchCompressorDirectly)
{
    LineData d{};
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        setLineWord(d, i, i % 2 ? 100u : 0u);
    store.setLine(0x6000, d);
    EXPECT_EQ(store.segments(0x6000), fpc.compress(d).segments);
}

// ---- Differential test against the std::map reference store --------

/** A line payload whose FPC size spans 1..8 segments: zero, narrow,
 *  repeated or raw words, mixed per line. */
LineData
randomLine(Random &rng)
{
    LineData d{};
    const unsigned kind = static_cast<unsigned>(rng.below(4));
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        std::uint32_t w = 0;
        switch (kind) {
          case 0: w = rng.below(8) == 0 ? static_cast<std::uint32_t>(
                                              rng.below(16)) : 0;
                  break;
          case 1: w = static_cast<std::uint32_t>(rng.below(256)); break;
          case 2: w = 0x01010101u * static_cast<std::uint32_t>(
                                        rng.below(256));
                  break;
          default: w = static_cast<std::uint32_t>(rng.next()); break;
        }
        setLineWord(d, i, w);
    }
    return d;
}

/** Addresses from a growing pool of lines: mostly lines already seen,
 *  sometimes a new one (next in a sequential run, or a far region),
 *  always at a random word of the line. */
class AddrPool
{
  public:
    Addr
    draw(Random &rng, unsigned new_per_mille)
    {
        Addr line;
        if (lines_.empty() || rng.below(1000) < new_per_mille) {
            if (rng.below(4) == 0)
                next_ = (rng.next() & 0xfffffffc0ull) | (1ull << 40);
            line = next_;
            next_ += kLineBytes;
            lines_.push_back(line);
        } else {
            line = lines_[rng.below(lines_.size())];
        }
        return line + rng.below(kWordsPerLine) * 4;
    }

    const std::vector<Addr> &lines() const { return lines_; }

  private:
    Addr next_ = 0x10000;
    std::vector<Addr> lines_;
};

void
expectSameOps(const std::vector<ValueStore::Op> &a,
              const std::vector<ValueStore::Op> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].whole_line, b[i].whole_line) << i;
        if (a[i].whole_line)
            EXPECT_EQ(a[i].data, b[i].data) << i;
        else
            EXPECT_EQ(a[i].word, b[i].word) << i;
    }
}

std::string
encodeStore(const ValueStore &vs)
{
    ckpt::Encoder e;
    CheckpointCodec::encodeValues(e, vs);
    return e.take();
}

/** Drive @p n random operations through both stores, comparing every
 *  result as it comes back. */
void
driveBoth(ValueStore &real, ReferenceValueStore &ref, AddrPool &pool,
          Random &rng, unsigned n, unsigned new_per_mille)
{
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = pool.draw(rng, new_per_mille);
        switch (rng.below(7)) {
          case 0: {
            const LineData d = randomLine(rng);
            real.setLine(a, d);
            ref.setLine(a, d);
            break;
          }
          case 1: {
            const auto w = static_cast<std::uint32_t>(
                rng.below(2) ? rng.below(64) : rng.next());
            real.writeWord(a, w);
            ref.writeWord(a, w);
            break;
          }
          case 2:
            ASSERT_EQ(real.line(a), ref.line(a)) << std::hex << a;
            break;
          case 3:
            ASSERT_EQ(real.hasLine(a), ref.hasLine(a)) << std::hex << a;
            break;
          case 4: {
            // First touch: the generator runs exactly when the
            // reference has no value for the line.
            const LineData d = randomLine(rng);
            bool made = false;
            real.setLineIfAbsent(a, [&] {
                made = true;
                return d;
            });
            ASSERT_EQ(made, !ref.hasLine(a)) << std::hex << a;
            if (made)
                ref.setLine(a, d);
            break;
          }
          default:
            ASSERT_EQ(real.segments(a), ref.segments(a)) << std::hex << a;
            break;
        }
        ASSERT_EQ(real.lineCount(), ref.lineCount());
    }
}

TEST(ValueStoreDiffTest, MatchesReferenceAcrossGrowthJournalAndCheckpoint)
{
    FpcCompressor fpc;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        AddrPool pool;
        ValueStore real(fpc);
        ReferenceValueStore ref(fpc);

        // Insert-heavy first, then reuse-heavy: the store grows
        // through many doublings (tens of thousands of lines), then
        // settles into hits.
        driveBoth(real, ref, pool, rng, 60000, 600);
        driveBoth(real, ref, pool, rng, 40000, 20);
        for (const Addr line : pool.lines()) {
            ASSERT_EQ(real.line(line), ref.line(line));
            ASSERT_EQ(real.segments(line), ref.segments(line));
        }

        // Checkpoint round trip: save -> load -> save is byte-stable
        // and equals the reference's sorted encoding.
        const std::string saved = encodeStore(real);
        ASSERT_EQ(saved, ref.encode());
        ValueStore twin(fpc);
        ckpt::Decoder d(saved);
        CheckpointCodec::decodeValues(d, twin);
        d.expectEnd("values");
        ASSERT_EQ(encodeStore(twin), saved);
        ASSERT_EQ(twin.lineCount(), real.lineCount());

        // Journal: record a mixed stream on both, compare the
        // journals, then replay into the restored twin, which must
        // end up identical to the recording store.
        real.startJournal();
        ref.startJournal();
        driveBoth(real, ref, pool, rng, 20000, 100);
        const std::vector<ValueStore::Op> ops = real.takeJournal();
        expectSameOps(ops, ref.takeJournal());
        twin.applyOps(ops);
        ASSERT_EQ(encodeStore(twin), encodeStore(real));
        ASSERT_EQ(encodeStore(real), ref.encode());
        for (const Addr line : pool.lines())
            ASSERT_EQ(twin.segments(line), ref.segments(line));

        // Loading over a populated store replaces it entirely.
        ckpt::Decoder again(saved);
        CheckpointCodec::decodeValues(again, real);
        ASSERT_EQ(encodeStore(real), saved);
    }
}

TEST(ValueStoreDiffTest, LineReferencesSurviveGrowth)
{
    FpcCompressor fpc;
    ValueStore store(fpc);
    Random rng(7);
    LineData d = randomLine(rng);
    store.setLine(0x40, d);
    const LineData &held = store.line(0x40);
    for (Addr a = 0x1000; a < 0x1000 + 100000 * kLineBytes; a += kLineBytes)
        store.writeWord(a, static_cast<std::uint32_t>(a));
    EXPECT_EQ(held, d);
    EXPECT_EQ(&held, &store.line(0x40));
}

} // namespace
} // namespace cmpsim
