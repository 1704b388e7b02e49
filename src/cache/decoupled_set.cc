#include "src/cache/decoupled_set.h"

#include <algorithm>

namespace cmpsim {

DecoupledSet::DecoupledSet(unsigned tags, unsigned segment_budget)
    : entries_(tags), segment_budget_(segment_budget)
{
    cmpsim_assert(tags > 0);
    cmpsim_assert(segment_budget >= kSegmentsPerLine);
}

TagEntry *
DecoupledSet::find(Addr line)
{
    for (auto &e : entries_) {
        if (e.valid && e.line == line)
            return &e;
    }
    return nullptr;
}

const TagEntry *
DecoupledSet::find(Addr line) const
{
    return const_cast<DecoupledSet *>(this)->find(line);
}

void
DecoupledSet::touch(Addr line)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->valid && it->line == line) {
            std::rotate(entries_.begin(), it, it + 1);
            return;
        }
    }
    cmpsim_panic("touch of absent line %#lx",
                 static_cast<unsigned long>(line));
}

void
DecoupledSet::retireTag(std::vector<TagEntry>::iterator it)
{
    used_segments_ -= it->segments;
    --valid_count_;
    // Leave a victim tag: address only, all other state cleared.
    it->valid = false;
    it->dirty = false;
    it->prefetch = false;
    it->pf_source = PfSource::None;
    it->was_compressed = false;
    it->segments = kSegmentsPerLine;
    it->sharers = 0;
    it->owner = kNoOwner;
    // Rotate the fresh victim tag just behind the last valid entry so
    // valids remain a contiguous MRU prefix and the newest victim
    // heads the victim region (insert() reuses the backmost invalid
    // tag, so older victims are recycled first).
    auto end_valid = it + 1;
    while (end_valid != entries_.end() && end_valid->valid)
        ++end_valid;
    std::rotate(it, it + 1, end_valid);
}

TagEntry
DecoupledSet::evictLruValid()
{
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (it->valid) {
            TagEntry victim = *it;
            retireTag(it.base() - 1);
            return victim;
        }
    }
    cmpsim_panic("eviction from a set with no valid lines");
}

std::vector<TagEntry>
DecoupledSet::insert(const TagEntry &entry)
{
    cmpsim_assert(entry.valid);
    cmpsim_assert(entry.segments >= 1 &&
                  entry.segments <= kSegmentsPerLine);
    cmpsim_assert(entry.segments <= segment_budget_);
    cmpsim_assert(find(entry.line) == nullptr);

    std::vector<TagEntry> evicted;

    // Free data space.
    while (used_segments_ + entry.segments > segment_budget_)
        evicted.push_back(evictLruValid());

    // Free a tag: reuse the backmost invalid slot.
    auto slot = entries_.rend();
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (!it->valid) {
            slot = it;
            break;
        }
    }
    if (slot == entries_.rend()) {
        evicted.push_back(evictLruValid());
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            if (!it->valid) {
                slot = it;
                break;
            }
        }
    }
    cmpsim_assert(slot != entries_.rend());

    // Move the chosen slot to the MRU position and fill it.
    auto fwd = slot.base() - 1; // reverse->forward iterator
    std::rotate(entries_.begin(), fwd, fwd + 1);
    entries_.front() = entry;
    used_segments_ += entry.segments;
    ++valid_count_;
    return evicted;
}

std::vector<TagEntry>
DecoupledSet::resize(Addr line, unsigned segments)
{
    cmpsim_assert(segments >= 1 && segments <= kSegmentsPerLine);
    TagEntry *e = find(line);
    cmpsim_assert(e != nullptr);

    std::vector<TagEntry> evicted;
    if (segments <= e->segments) {
        used_segments_ -= e->segments - segments;
        e->segments = static_cast<std::uint8_t>(segments);
        return evicted;
    }

    const unsigned grow = segments - e->segments;
    while (used_segments_ + grow > segment_budget_) {
        // Never evict the line being resized: it can only become the
        // LRU-most valid line if it is the only valid line, in which
        // case the budget always suffices (segments <= budget).
        cmpsim_assert(validCount() > 1);
        // Temporarily skip `line` by evicting the LRU valid that is
        // not `line`.
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            if (it->valid && it->line != line) {
                TagEntry victim = *it;
                retireTag(it.base() - 1);
                evicted.push_back(victim);
                break;
            }
        }
        e = find(line); // retireTag reordered the stack; re-find
    }
    used_segments_ += grow;
    e->segments = static_cast<std::uint8_t>(segments);
    return evicted;
}

TagEntry
DecoupledSet::invalidate(Addr line)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->valid && it->line == line) {
            TagEntry prior = *it;
            retireTag(it);
            return prior;
        }
    }
    return TagEntry{};
}

bool
DecoupledSet::victimTagMatch(Addr line) const
{
    for (const auto &e : entries_) {
        if (e.isVictimTag() && e.line == line)
            return true;
    }
    return false;
}

bool
DecoupledSet::anyValidPrefetch() const
{
    for (const auto &e : entries_) {
        if (e.valid && e.prefetch)
            return true;
    }
    return false;
}

unsigned
DecoupledSet::usedSegments() const
{
    return used_segments_;
}

unsigned
DecoupledSet::victimTagCount() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e.isVictimTag();
    return n;
}

int
DecoupledSet::validStackDepth(Addr line) const
{
    int depth = 0;
    for (const auto &e : entries_) {
        if (!e.valid)
            continue;
        if (e.line == line)
            return depth;
        ++depth;
    }
    return -1;
}

} // namespace cmpsim
