#include "src/sample/fast_forward.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "src/cache/l2_cache.h"
#include "src/common/log.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

namespace {
/** Interleave granularity, matching CmpSystem::warmup()'s chunking so
 *  the shared L2 sees the same realistic core mix. */
constexpr std::uint64_t kFfChunk = 2000;

/** The per-round probes of a fast-forward, on the calling thread. */
void
probeRound()
{
    faultSite("sample.ff");
    checkPointDeadline("sample.ff");
}
} // namespace

/**
 * The host threads of a skip window beyond the caller. run() hands
 * out lanes through one atomic cursor to the workers and the calling
 * thread alike and returns when every lane is done; the mutex and
 * condition variables order the lanes' writes before the commit that
 * reads them, and the commit's store writes before the next window.
 * Nothing here allocates after construction.
 */
class FastForwardEngine::Workers
{
  public:
    Workers(FastForwardEngine &engine, unsigned threads) : engine_(engine)
    {
        threads_.reserve(threads - 1);
        for (unsigned i = 1; i < threads; ++i)
            threads_.emplace_back([this] { loop(); });
    }

    ~Workers()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        start_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    Workers(const Workers &) = delete;
    Workers &operator=(const Workers &) = delete;

    /** Threads in use, the caller included. */
    unsigned threads() const
    {
        return static_cast<unsigned>(threads_.size()) + 1;
    }

    /** engine.speculate(i) for every lane i < @p lanes. Rethrows the
     *  lowest failing lane's exception. */
    void
    run(unsigned lanes)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            lanes_ = lanes;
            next_.store(0, std::memory_order_relaxed);
            busy_ = static_cast<unsigned>(threads_.size());
            error_ = nullptr;
            ++generation_;
        }
        start_.notify_all();
        drain();
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return busy_ == 0; });
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    loop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                start_.wait(lock,
                            [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
            }
            drain();
            const std::lock_guard<std::mutex> lock(mutex_);
            if (--busy_ == 0)
                done_.notify_one();
        }
    }

    /** Take lanes until none is left. */
    void
    drain()
    {
        for (;;) {
            const unsigned i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_)
                return;
            try {
                engine_.speculate(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (!error_ || i < error_lane_) {
                    error_ = std::current_exception();
                    error_lane_ = i;
                }
            }
        }
    }

    FastForwardEngine &engine_;
    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    unsigned busy_ = 0;  ///< workers still on this generation
    unsigned lanes_ = 0; ///< lanes of this generation
    bool stop_ = false;
    std::atomic<unsigned> next_{0};
    std::exception_ptr error_;
    unsigned error_lane_ = 0;
    std::vector<std::thread> threads_;
};

FastForwardEngine::FastForwardEngine(std::vector<CoreModel *> cores,
                                     std::vector<SyntheticWorkload *> streams,
                                     ValueStore &values, L2Cache &l2)
    : values_(values), l2_(l2), lanes_(cores.size())
{
    cmpsim_assert(!cores.empty() && streams.size() == cores.size());
    // A log starts with room for a window with a store in every
    // eighth instruction and a first touch in every 64th; skipWindow()
    // grows one that runs out.
    constexpr std::uint64_t kWindow = kWindowRounds * kFfChunk;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        lanes_[i].core = cores[i];
        lanes_[i].stream = streams[i];
        lanes_[i].log.reserve(kWindow / 8, kWindow / 64);
    }
}

FastForwardEngine::~FastForwardEngine() = default;

std::uint64_t
FastForwardEngine::retiredTotal() const
{
    std::uint64_t total = 0;
    for (const Lane &lane : lanes_)
        total += lane.core->instructionsRetired();
    return total;
}

void
FastForwardEngine::advance(std::uint64_t instr_per_core,
                           std::uint64_t warm_per_core)
{
    const std::uint64_t before = retiredTotal();
    const std::uint64_t warm =
        std::min(warm_per_core, instr_per_core);
    const std::uint64_t skip = instr_per_core - warm;
    l2_.setFunctionalMode(true);
    for (std::uint64_t done = 0; done < skip;) {
        // A window ends at the skip/warm boundary, so a split phase is
        // bit-identical to an unsplit one. Any window length gives the
        // serial outcome; only the speed depends on it.
        window_rounds_ = 0;
        while (window_rounds_ < next_rounds_ && done < skip) {
            const std::uint64_t len = std::min(kFfChunk, skip - done);
            window_len_[window_rounds_++] = len;
            done += len;
        }
        skipWindow();
    }
    for (std::uint64_t done = 0; done < warm;) {
        probeRound();
        const std::uint64_t len = std::min(kFfChunk, warm - done);
        for (Lane &lane : lanes_)
            lane.core->runFunctional(len);
        done += len;
        ++chunks_;
    }
    l2_.setFunctionalMode(false);
    const std::uint64_t budget = instr_per_core * lanes_.size();
    instructions_ += budget;
    expected_ += budget;
    observed_ += retiredTotal() - before;
}

unsigned
FastForwardEngine::windowThreads() const
{
    const unsigned budget =
        skip_threads_ != 0 ? skip_threads_
                           : std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::min<std::size_t>(budget, lanes_.size()));
}

void
FastForwardEngine::Lane::rewind(unsigned r)
{
    stream->setCursor(cursors[r]);
    core->restoreSkipState(states[r]);
}

void
FastForwardEngine::runRound(Lane &lane, std::uint64_t len)
{
    lane.stream->setSkipLog(&lane.log);
    lane.core->runSkip(len, lane.log);
    lane.stream->setSkipLog(nullptr);
    lane.log.endRound();
}

void
FastForwardEngine::speculate(unsigned i)
{
    Lane &lane = lanes_[i];
    lane.log.clear();
    lane.log.cap();
    lane.serial = false;
    lane.speculated = window_rounds_;
    for (unsigned r = 0; r < window_rounds_; ++r) {
        lane.cursors[r] = lane.stream->cursor();
        lane.states[r] = lane.core->skipState();
        runRound(lane, window_len_[r]);
        if (lane.log.full()) {
            lane.speculated = r;
            return;
        }
    }
}

void
FastForwardEngine::skipWindow()
{
    if (!shaped_) {
        for (Lane &lane : lanes_)
            lane.cursors.fill(lane.stream->cursorSlot());
        shaped_ = true;
    }
    const unsigned threads = windowThreads();
    if (threads == 1) {
        workers_.reset();
        for (unsigned i = 0; i < lanes_.size(); ++i)
            speculate(i);
    } else {
        if (workers_ == nullptr || workers_->threads() != threads)
            workers_ = std::make_unique<Workers>(*this, threads);
        workers_->run(static_cast<unsigned>(lanes_.size()));
    }
    // Grown here, on the calling thread, for the next window; the rest
    // of this one runs serially.
    for (Lane &lane : lanes_) {
        if (lane.log.full())
            lane.log.grow();
    }

    // Commit in serial order: round-major, then core.
    next_rounds_ = std::min(kWindowRounds, 2 * window_rounds_);
    for (unsigned r = 0; r < window_rounds_; ++r) {
        try {
            probeRound();
        } catch (...) {
            // Leave the state a serial skip has at this probe. A lane
            // already finishing serially stands at round r's start.
            for (Lane &lane : lanes_) {
                if (!lane.serial)
                    lane.rewind(r);
            }
            throw;
        }
        for (Lane &lane : lanes_) {
            if (!lane.serial && r < lane.speculated &&
                lane.log.applyRound(r, values_))
                continue;
            if (!lane.serial) {
                // Mis-speculated (a lane earlier in serial order first
                // touched a line this one drew a value for) or out of
                // log room. The lane's later rounds are void; the
                // other lanes' logs still validate against the store
                // as it now stands.
                if (r < lane.speculated) {
                    ++rollbacks_;
                    next_rounds_ = kColdWindowRounds;
                }
                lane.rewind(r);
                lane.serial = true;
            }
            // The chunk function, applied at once: exact by
            // construction.
            lane.log.clear();
            runRound(lane, window_len_[r]);
            const bool applied = lane.log.applyRound(0, values_);
            cmpsim_assert(applied, "serial skip chunk mis-speculated");
        }
        countRound(window_len_[r]);
    }
}

void
FastForwardEngine::countRound(std::uint64_t len)
{
    skip_instructions_ += len * lanes_.size();
    ++chunks_;
}

bool
FastForwardEngine::conserved(std::string &why) const
{
    if (observed_ == expected_)
        return true;
    why = "fast-forward retired " + std::to_string(observed_) +
          " instructions against a budget of " +
          std::to_string(expected_);
    return false;
}

void
FastForwardEngine::registerStats(StatRegistry &reg,
                                 const std::string &prefix)
{
    reg.registerCounter(prefix + ".ff_instructions", &instructions_);
    reg.registerCounter(prefix + ".ff_skip_instructions",
                        &skip_instructions_);
    reg.registerCounter(prefix + ".ff_chunks", &chunks_);
}

} // namespace cmpsim
