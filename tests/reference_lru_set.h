/**
 * @file
 * Reference model of DecoupledSet for differential tests: the same
 * compressed-set LRU semantics kept as three plain lists instead of
 * one rotated tag stack — valid lines (MRU first), victim tags
 * (newest first) and a count of never-used tags. entries() rebuilds
 * the stack view the real set exposes, so whole-table state compares.
 */

#ifndef CMPSIM_TESTS_REFERENCE_LRU_SET_H
#define CMPSIM_TESTS_REFERENCE_LRU_SET_H

#include <algorithm>
#include <deque>
#include <vector>

#include "src/cache/tag_entry.h"

namespace cmpsim {

class ReferenceLruSet
{
  public:
    ReferenceLruSet(unsigned tags, unsigned budget)
        : empty_(tags), budget_(budget)
    {
    }

    TagEntry *
    find(Addr line)
    {
        for (TagEntry &e : valid_) {
            if (e.line == line)
                return &e;
        }
        return nullptr;
    }

    void
    touch(Addr line)
    {
        const auto it = position(line);
        const TagEntry e = *it;
        valid_.erase(it);
        valid_.push_front(e);
    }

    std::vector<TagEntry>
    insert(const TagEntry &entry)
    {
        std::vector<TagEntry> evicted;
        while (used() + entry.segments > budget_)
            evicted.push_back(retire(std::prev(valid_.end())));
        // A tag: never-used ones first, then the oldest victim; with
        // neither, the LRU line gives up its tag.
        if (empty_ > 0) {
            --empty_;
        } else {
            if (victims_.empty())
                evicted.push_back(retire(std::prev(valid_.end())));
            victims_.pop_back();
        }
        valid_.push_front(entry);
        return evicted;
    }

    std::vector<TagEntry>
    resize(Addr line, unsigned segments)
    {
        std::vector<TagEntry> evicted;
        while (used() - find(line)->segments + segments > budget_) {
            auto lru = std::prev(valid_.end());
            if (lru->line == line)
                --lru;
            evicted.push_back(retire(lru));
        }
        find(line)->segments = static_cast<std::uint8_t>(segments);
        return evicted;
    }

    TagEntry
    invalidate(Addr line)
    {
        return find(line) == nullptr ? TagEntry{} : retire(position(line));
    }

    bool
    victimTagMatch(Addr line) const
    {
        return std::find(victims_.begin(), victims_.end(), line) !=
               victims_.end();
    }

    bool
    anyValidPrefetch() const
    {
        return std::any_of(valid_.begin(), valid_.end(),
                           [](const TagEntry &e) { return e.prefetch; });
    }

    unsigned
    used() const
    {
        unsigned n = 0;
        for (const TagEntry &e : valid_)
            n += e.segments;
        return n;
    }

    unsigned validCount() const { return static_cast<unsigned>(valid_.size()); }
    unsigned victimCount() const { return static_cast<unsigned>(victims_.size()); }

    int
    validStackDepth(Addr line) const
    {
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            if (valid_[i].line == line)
                return static_cast<int>(i);
        }
        return -1;
    }

    /** The tag stack: valid lines, then victims, then unused tags. */
    std::vector<TagEntry>
    entries() const
    {
        std::vector<TagEntry> out(valid_.begin(), valid_.end());
        for (const Addr line : victims_) {
            TagEntry victim;
            victim.line = line;
            out.push_back(victim);
        }
        out.resize(out.size() + empty_);
        return out;
    }

  private:
    std::deque<TagEntry>::iterator
    position(Addr line)
    {
        return std::find_if(valid_.begin(), valid_.end(),
                            [line](const TagEntry &e) {
                                return e.line == line;
                            });
    }

    /** Drop @p it's line to a victim tag; returns its last state. */
    TagEntry
    retire(std::deque<TagEntry>::iterator it)
    {
        const TagEntry prior = *it;
        valid_.erase(it);
        victims_.push_front(prior.line);
        return prior;
    }

    std::deque<TagEntry> valid_; ///< MRU first
    std::deque<Addr> victims_;   ///< newest first
    unsigned empty_;
    unsigned budget_;
};

} // namespace cmpsim

#endif // CMPSIM_TESTS_REFERENCE_LRU_SET_H
