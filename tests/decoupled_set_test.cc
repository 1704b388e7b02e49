#include "src/cache/decoupled_set.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "tests/reference_lru_set.h"

namespace cmpsim {
namespace {

TagEntry
makeEntry(Addr line, unsigned segments = kSegmentsPerLine)
{
    TagEntry e;
    e.line = line;
    e.valid = true;
    e.segments = static_cast<std::uint8_t>(segments);
    return e;
}

TEST(DecoupledSetTest, InsertAndFind)
{
    DecoupledSet set(8, 32);
    EXPECT_TRUE(set.insert(makeEntry(0x100)).empty());
    EXPECT_NE(set.find(0x100), nullptr);
    EXPECT_EQ(set.find(0x200), nullptr);
    EXPECT_EQ(set.validCount(), 1u);
    EXPECT_EQ(set.usedSegments(), 8u);
}

TEST(DecoupledSetTest, UncompressedCapacityIsFourLines)
{
    // The paper's compressed-L2 geometry: 8 tags, 32 segments.
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(set.insert(makeEntry(a << kLineShift)).empty());
    // Fifth uncompressed line evicts the LRU (line 0).
    const auto evicted = set.insert(makeEntry(4 << kLineShift));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 0u);
    EXPECT_EQ(set.validCount(), 4u);
}

TEST(DecoupledSetTest, CompressedLinesDoubleCapacity)
{
    DecoupledSet set(8, 32);
    // Eight 4-segment lines fit exactly: capacity doubled.
    for (Addr a = 0; a < 8; ++a)
        EXPECT_TRUE(set.insert(makeEntry(a << kLineShift, 4)).empty());
    EXPECT_EQ(set.validCount(), 8u);
    EXPECT_EQ(set.usedSegments(), 32u);
    // A ninth line must evict even though segments would be free after
    // eviction: tags are exhausted.
    const auto evicted = set.insert(makeEntry(8 << kLineShift, 1));
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(DecoupledSetTest, LruOrderRespectsTouch)
{
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 4; ++a)
        set.insert(makeEntry(a << kLineShift));
    set.touch(0); // line 0 becomes MRU; line 1 now LRU
    const auto evicted = set.insert(makeEntry(100 << kLineShift));
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 1u << kLineShift);
}

TEST(DecoupledSetTest, EvictionLeavesVictimTag)
{
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 5; ++a)
        set.insert(makeEntry(a << kLineShift));
    // Line 0 was evicted; its address remains as a victim tag.
    EXPECT_TRUE(set.victimTagMatch(0));
    EXPECT_FALSE(set.victimTagMatch(3 << kLineShift));
    EXPECT_GE(set.victimTagCount(), 1u);
}

TEST(DecoupledSetTest, MultipleEvictionsForOneBigInsert)
{
    DecoupledSet set(8, 32);
    // Fill with eight 4-segment lines, then insert an 8-segment line:
    // needs two evictions for segments.
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    const auto evicted = set.insert(makeEntry(0x9000, 8));
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_EQ(set.usedSegments(), 6u * 4 + 8);
}

TEST(DecoupledSetTest, SegmentAccountingInvariant)
{
    Random rng(7);
    DecoupledSet set(8, 32);
    for (int i = 0; i < 2000; ++i) {
        const Addr line = rng.below(64) << kLineShift;
        if (set.find(line)) {
            if (rng.chance(0.3))
                set.resize(line, static_cast<unsigned>(rng.inRange(1, 8)));
            else if (rng.chance(0.1))
                set.invalidate(line);
            else
                set.touch(line);
        } else {
            set.insert(
                makeEntry(line, static_cast<unsigned>(rng.inRange(1, 8))));
        }
        // Invariants: budget respected, accounting exact.
        unsigned sum = 0, valid = 0;
        for (const auto &e : set.entries()) {
            if (e.valid) {
                sum += e.segments;
                ++valid;
            }
        }
        ASSERT_EQ(sum, set.usedSegments());
        ASSERT_EQ(valid, set.validCount());
        ASSERT_LE(sum, 32u);
        ASSERT_LE(valid, 8u);
    }
}

TEST(DecoupledSetTest, ResizeShrinkFreesSegments)
{
    DecoupledSet set(8, 32);
    set.insert(makeEntry(0x100, 8));
    EXPECT_TRUE(set.resize(0x100, 2).empty());
    EXPECT_EQ(set.usedSegments(), 2u);
    EXPECT_EQ(set.find(0x100)->segments, 2u);
}

TEST(DecoupledSetTest, ResizeGrowEvictsOthersNotSelf)
{
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    // Grow the MRU line (7): needs 4 more segments -> evict LRU (0).
    set.touch(7 << kLineShift);
    const auto evicted = set.resize(7 << kLineShift, 8);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].line, 0u);
    EXPECT_NE(set.find(7 << kLineShift), nullptr);
}

TEST(DecoupledSetTest, ResizeGrowLruLineDoesNotEvictSelf)
{
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    // Line 0 is LRU; growing it must evict other lines.
    const auto evicted = set.resize(0, 8);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_NE(evicted[0].line, 0u);
    EXPECT_NE(set.find(0), nullptr);
    EXPECT_EQ(set.find(0)->segments, 8u);
}

TEST(DecoupledSetTest, InvalidateKeepsVictimTag)
{
    DecoupledSet set(8, 32);
    auto e = makeEntry(0x340, 4);
    e.dirty = true;
    set.insert(e);
    const TagEntry prior = set.invalidate(0x340);
    EXPECT_TRUE(prior.valid);
    EXPECT_TRUE(prior.dirty);
    EXPECT_EQ(set.find(0x340), nullptr);
    EXPECT_TRUE(set.victimTagMatch(0x340));
    EXPECT_EQ(set.usedSegments(), 0u);
}

TEST(DecoupledSetTest, InvalidateAbsentLineReturnsEmpty)
{
    DecoupledSet set(4, 32);
    EXPECT_FALSE(set.invalidate(0x123000).valid);
}

TEST(DecoupledSetTest, AnyValidPrefetchTracksBits)
{
    DecoupledSet set(8, 32);
    set.insert(makeEntry(0x100));
    EXPECT_FALSE(set.anyValidPrefetch());
    auto e = makeEntry(0x200);
    e.prefetch = true;
    set.insert(e);
    EXPECT_TRUE(set.anyValidPrefetch());
    set.invalidate(0x200);
    EXPECT_FALSE(set.anyValidPrefetch());
}

TEST(DecoupledSetTest, ExtraVictimTagsSurviveFullValidSet)
{
    // 12 tags but only 8 lines of data: 4 permanent victim-tag slots,
    // the paper's uncompressed-adaptive configuration.
    DecoupledSet set(12, 64);
    for (Addr a = 0; a < 8; ++a)
        set.insert(makeEntry(a << kLineShift));
    // Evict 0..3 by inserting 4 more.
    for (Addr a = 8; a < 12; ++a)
        set.insert(makeEntry(a << kLineShift));
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(set.victimTagMatch(a << kLineShift));
}

TEST(DecoupledSetTest, FindTouchReFindReturnsFreshPointer)
{
    // The invalidation hazard the lint heuristic guards against:
    // touch() rotates the entry vector, so a pointer from before the
    // touch dangles. The supported idiom is find -> touch -> re-find;
    // the re-found entry must carry the same state at MRU position.
    DecoupledSet set(8, 32);
    auto e = makeEntry(0x100, 4);
    e.dirty = true;
    set.insert(e);
    set.insert(makeEntry(0x200, 4));
    set.insert(makeEntry(0x300, 4));

    TagEntry *before = set.find(0x100);
    ASSERT_NE(before, nullptr);
    EXPECT_EQ(set.validStackDepth(0x100), 2);

    set.touch(0x100);
    TagEntry *after = set.find(0x100);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->line, 0x100u);
    EXPECT_TRUE(after->dirty);
    EXPECT_EQ(after->segments, 4u);
    EXPECT_EQ(set.validStackDepth(0x100), 0);

    // Mutations through the re-found pointer must land on the entry
    // find() keeps returning.
    after->prefetch = true;
    EXPECT_TRUE(set.find(0x100)->prefetch);
    EXPECT_EQ(set.usedSegments(), 12u);
}

TEST(DecoupledSetTest, InvalidateKeepsValidEntriesInMruPrefix)
{
    // Invalidating a mid-stack line must not strand valid entries
    // behind the new victim tag (the audited valid-prefix invariant).
    DecoupledSet set(8, 32);
    for (Addr a = 1; a <= 4; ++a)
        set.insert(makeEntry(a << kLineShift, 4));
    set.invalidate(2 << kLineShift); // mid-stack

    bool seen_invalid = false;
    for (const auto &e : set.entries()) {
        if (!e.valid)
            seen_invalid = true;
        else
            EXPECT_FALSE(seen_invalid)
                << "valid line behind a victim tag";
    }
    // Relative LRU order of survivors is preserved: 4 MRU ... 1 LRU.
    EXPECT_EQ(set.validStackDepth(4 << kLineShift), 0);
    EXPECT_EQ(set.validStackDepth(3 << kLineShift), 1);
    EXPECT_EQ(set.validStackDepth(1 << kLineShift), 2);
    // The victim tag still matches.
    EXPECT_TRUE(set.victimTagMatch(2 << kLineShift));
}

TEST(DecoupledSetTest, ValidStackDepth)
{
    DecoupledSet set(8, 64);
    set.insert(makeEntry(0x100));
    set.insert(makeEntry(0x200));
    set.insert(makeEntry(0x300));
    EXPECT_EQ(set.validStackDepth(0x300), 0);
    EXPECT_EQ(set.validStackDepth(0x200), 1);
    EXPECT_EQ(set.validStackDepth(0x100), 2);
    EXPECT_EQ(set.validStackDepth(0x999), -1);
}

// ---- Differential test against the reference compressed-set LRU ----

void
expectSameTag(const TagEntry &a, const TagEntry &b, const char *what)
{
    EXPECT_EQ(a.line, b.line) << what;
    EXPECT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.dirty, b.dirty) << what;
    EXPECT_EQ(a.prefetch, b.prefetch) << what;
    EXPECT_EQ(a.pf_source, b.pf_source) << what;
    EXPECT_EQ(a.was_compressed, b.was_compressed) << what;
    EXPECT_EQ(a.segments, b.segments) << what;
    EXPECT_EQ(a.sharers, b.sharers) << what;
    EXPECT_EQ(a.owner, b.owner) << what;
}

/** @p a is the real set's list (EvictionList or tag stack), @p b the
 *  reference model's vector. */
template <typename List>
void
expectSameTags(const List &a, const std::vector<TagEntry> &b,
               const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameTag(a[i], b[i], what);
}

/** A random live line state, as the L1/L2 would insert it. */
TagEntry
randomEntry(Random &rng, Addr line, bool compressed)
{
    TagEntry e = makeEntry(
        line, compressed ? static_cast<unsigned>(rng.inRange(1, 8))
                         : kSegmentsPerLine);
    e.dirty = rng.below(4) == 0;
    e.prefetch = rng.below(4) == 0;
    e.pf_source = e.prefetch ? PfSource::L2 : PfSource::None;
    e.was_compressed = rng.below(2) == 0;
    e.sharers = static_cast<std::uint16_t>(rng.below(16));
    e.owner = static_cast<std::int8_t>(rng.below(3)) - 1;
    return e;
}

TEST(DecoupledSetDiffTest, MatchesReferenceLruOnRandomStreams)
{
    struct Shape
    {
        unsigned tags, budget;
        bool compressed;
    };
    // Compressed L2, uncompressed L2 with a victim tag, L1 with one.
    for (const Shape shape : {Shape{8, 32, true}, Shape{9, 64, false},
                              Shape{5, 32, false}}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE(testing::Message()
                         << shape.tags << "/" << shape.budget << " seed "
                         << seed);
            Random rng(seed);
            DecoupledSet real(shape.tags, shape.budget);
            ReferenceLruSet ref(shape.tags, shape.budget);
            // A few more lines than tags, so hits, victim-tag matches
            // and evictions all recur.
            const unsigned universe = shape.tags + 6;
            for (unsigned step = 0; step < 20000; ++step) {
                const Addr line = rng.below(universe) << kLineShift;
                TagEntry *r = real.find(line);
                TagEntry *m = ref.find(line);
                ASSERT_EQ(r != nullptr, m != nullptr) << step;
                switch (rng.below(6)) {
                  case 0:
                  case 1:
                    if (r == nullptr) {
                        const TagEntry e =
                            randomEntry(rng, line, shape.compressed);
                        expectSameTags(real.insert(e), ref.insert(e),
                                       "insert evictions");
                    } else {
                        real.touch(line);
                        ref.touch(line);
                    }
                    break;
                  case 2:
                    if (r != nullptr && shape.compressed) {
                        const auto seg =
                            static_cast<unsigned>(rng.inRange(1, 8));
                        expectSameTags(real.resize(line, seg),
                                       ref.resize(line, seg),
                                       "resize evictions");
                    }
                    break;
                  case 3:
                    expectSameTag(real.invalidate(line),
                                  ref.invalidate(line), "invalidate");
                    break;
                  case 4:
                    if (r != nullptr) {
                        // In-place state changes through find(), as
                        // the caches make them.
                        r->dirty = m->dirty = true;
                        r->prefetch = m->prefetch = false;
                        r->pf_source = m->pf_source = PfSource::None;
                    }
                    break;
                  default:
                    ASSERT_EQ(real.victimTagMatch(line),
                              ref.victimTagMatch(line));
                    ASSERT_EQ(real.validStackDepth(line),
                              ref.validStackDepth(line));
                    break;
                }
                ASSERT_EQ(real.validCount(), ref.validCount()) << step;
                ASSERT_EQ(real.victimTagCount(), ref.victimCount()) << step;
                ASSERT_EQ(real.usedSegments(), ref.used()) << step;
                ASSERT_EQ(real.anyValidPrefetch(), ref.anyValidPrefetch());
                expectSameTags(real.entries(), ref.entries(), "tag stack");
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace cmpsim
