/**
 * @file
 * One set of the decoupled variable-segment cache [Alameldeen & Wood,
 * ISCA 2004], the structure the paper uses for the compressed shared
 * L2 (Section 2): more address tags than uncompressed data capacity,
 * with the data space managed as a pool of 8-byte segments.
 *
 * The same structure expresses every cache in cmpsim:
 *  - compressed L2 set:   8 tags, 32-segment budget (4 uncompressed
 *    lines of data space; compression fits up to 8 lines);
 *  - uncompressed L2 set: 8 (+victim) tags, 64-segment budget, every
 *    line charged 8 segments;
 *  - L1 set:              4 (+victim) tags, 32-segment budget.
 *
 * Tags whose data has been evicted retain the line address as *victim
 * tags* in LRU-stack order; the adaptive prefetcher (Section 3) scans
 * them on misses to detect harmful prefetches.
 */

#ifndef CMPSIM_CACHE_DECOUPLED_SET_H
#define CMPSIM_CACHE_DECOUPLED_SET_H

#include <cstddef>
#include <vector>

#include "src/cache/tag_entry.h"
#include "src/common/log.h"

namespace cmpsim {

/** Most address tags one DecoupledSet may hold. */
inline constexpr unsigned kMaxSetTags = 16;

/**
 * The entries one insert()/resize() evicted, in eviction order, held
 * inline: only valid entries are evicted, so a set never evicts more
 * than kMaxSetTags lines at once. Supports size(), indexing and
 * range-for like the std::vector it replaces.
 */
class EvictionList
{
  public:
    EvictionList() {} // leaves the entry storage uninitialized

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const TagEntry &operator[](std::size_t i) const { return items_[i]; }
    const TagEntry *begin() const { return items_; }
    const TagEntry *end() const { return items_ + count_; }

    void
    push_back(const TagEntry &e)
    {
        cmpsim_assert(count_ < kMaxSetTags, "eviction list overflow");
        items_[count_++] = e;
    }

  private:
    unsigned count_ = 0;
    // Uninitialized until pushed; a union member is copied as raw
    // bytes, so copying a list never reads the unused tail as values.
    union
    {
        TagEntry items_[kMaxSetTags];
    };
};

/**
 * One set: an LRU stack of tags over a shared segment pool.
 *
 * Structural invariants (audited by auditDecoupledSet() in
 * src/audit/audits.h):
 *  - valid entries form a contiguous MRU prefix of the stack; victim
 *    tags and empty tags always sit behind every valid entry;
 *  - the sum of valid entries' segment counts equals usedSegments()
 *    and never exceeds segmentBudget();
 *  - no two valid entries share a line address;
 *  - validCount() equals the number of valid entries.
 */
class DecoupledSet
{
  public:
    /**
     * @param tags number of address tags (valid + victim), at most
     *        kMaxSetTags
     * @param segment_budget data space in 8-byte segments
     */
    DecoupledSet(unsigned tags, unsigned segment_budget);

    /** Find the valid entry for @p line, or nullptr. Does not touch LRU. */
    TagEntry *find(Addr line);
    const TagEntry *find(Addr line) const;

    /** Move @p line's valid entry to the MRU position.
     *  @return that entry, now at the MRU position.
     *  @warning invalidates every other TagEntry pointer into this set
     *  (the LRU stack is reordered in place); re-find() after. */
    TagEntry &touch(Addr line);

    /** touch() for the entry find() just returned, without scanning
     *  for it again. @pre @p e is a valid entry of this set. */
    TagEntry &touch(TagEntry &e);

    /**
     * Insert @p entry (valid, with a segment count), evicting LRU
     * valid lines until a tag and enough segments are free.
     *
     * @return the evicted entries, in eviction order; each leaves a
     *         victim tag behind.
     * @pre no valid entry for entry.line exists in the set.
     */
    EvictionList insert(const TagEntry &entry);

    /**
     * Change the segment count of the valid entry for @p line (a
     * write changed its compressed size). May evict other LRU lines
     * to make room; never evicts @p line itself.
     */
    EvictionList resize(Addr line, unsigned segments);

    /**
     * Invalidate @p line's valid entry, leaving a victim tag.
     * @return the entry's state just before invalidation (valid=true),
     *         or an empty entry when the line was not present.
     */
    TagEntry invalidate(Addr line);

    /**
     * True when any *invalid* tag (victim tag) matches @p line — the
     * adaptive prefetcher's harmful-prefetch probe.
     */
    bool victimTagMatch(Addr line) const;

    /** True when any valid entry has its prefetch bit set. */
    bool anyValidPrefetch() const;

    /** Sum of segments over valid entries. */
    unsigned usedSegments() const;

    /** Number of valid entries (a running count; O(1)). */
    unsigned validCount() const { return valid_count_; }

    /** Number of victim tags currently held. */
    unsigned victimTagCount() const;

    unsigned tagCount() const { return static_cast<unsigned>(entries_.size()); }
    unsigned segmentBudget() const { return segment_budget_; }

    /** MRU-to-LRU entry view (tests, stats, compression ratio). */
    const std::vector<TagEntry> &entries() const { return entries_; }

    /**
     * Mutable entry access for audit-test fault injection ONLY:
     * bypasses all segment accounting, so any real caller corrupts
     * the set. Production code must use insert()/resize()/invalidate().
     */
    TagEntry &entryForTest(unsigned i) { return entries_.at(i); }

    /** The LRU-stack depth (0 = MRU) of @p line among valid entries. */
    int validStackDepth(Addr line) const;

  private:
    friend class CheckpointCodec; // restores the tag stack wholesale

    /** Evict the LRU-most valid entry; returns it and leaves a victim
     *  tag at the LRU end of the stack. */
    TagEntry evictLruValid();

    /**
     * Invalidate the valid entry at @p it, leaving a victim tag, and
     * rotate it just behind the remaining valid entries so valids stay
     * a contiguous MRU prefix (the audited stack-order invariant).
     */
    void retireTag(std::vector<TagEntry>::iterator it);

    std::vector<TagEntry> entries_; // front = MRU, back = LRU
    unsigned segment_budget_;
    unsigned used_segments_ = 0;
    unsigned valid_count_ = 0; ///< valid entries in entries_
};

} // namespace cmpsim

#endif // CMPSIM_CACHE_DECOUPLED_SET_H
