/**
 * @file
 * Sparsity accounting matching the paper's Table 4 and Fig. 7a, plus
 * the throughput/latency counters surfaced by the serving runtime.
 *
 * Everything here is plain data with no locking of its own: a stats
 * block inherits its thread-safety from whoever holds it. The owners
 * declare that relationship with GUARDED_BY — e.g. AsyncPhiEngine's
 * published snapshots live under its statsMutex, PhiServer's
 * ServerCounters under stateMutex — or by single-thread ownership
 * (PhiEngine's per-model blocks belong to the dispatcher).
 */

#ifndef PHI_CORE_STATS_HH
#define PHI_CORE_STATS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/decompose.hh"
#include "core/pattern.hh"

namespace phi
{

/**
 * Hierarchical sparsity breakdown of one decomposed layer (or an
 * aggregate over layers). Densities are fractions of M*K elements.
 */
struct SparsityBreakdown
{
    double bitDensity = 0;   // ones(A) / (M*K)
    double l1Density = 0;    // ones contributed by assigned patterns
    double l2PosDensity = 0; // +1 corrections
    double l2NegDensity = 0; // -1 corrections

    /** Fraction of row-tiles carrying a pattern id (index density,
     *  paper: 50.66% on average). */
    double indexDensity = 0;

    /**
     * Vector-wise computational density (Fig. 7a): one PWP accumulation
     * per assigned row-tile, normalised per activation element.
     */
    double vectorDensity = 0;

    double l2Density() const { return l2PosDensity + l2NegDensity; }
    double totalComputeDensity() const
    {
        return l2Density() + vectorDensity;
    }

    /** Theoretical speedup over bit sparsity (Table 4 "Over B."):
     *  online ops shrink from bit nnz to L2 nnz. */
    double speedupOverBit() const
    {
        return l2Density() > 0 ? bitDensity / l2Density() : 0.0;
    }

    /** Theoretical speedup over dense (Table 4 "Over D."). */
    double speedupOverDense() const
    {
        return l2Density() > 0 ? 1.0 / l2Density() : 0.0;
    }

    /** Element counts used to merge per-layer breakdowns. */
    size_t elements = 0;
    size_t rowTiles = 0;
    size_t bitOnes = 0;
    size_t l1Ones = 0;
    size_t l2Pos = 0;
    size_t l2Neg = 0;
    size_t assigned = 0;
};

/** Compute the breakdown for one decomposed layer. */
SparsityBreakdown computeBreakdown(const BinaryMatrix& acts,
                                   const LayerDecomposition& dec,
                                   const PatternTable& table);

/** Merge several per-layer breakdowns weighted by element counts. */
SparsityBreakdown mergeBreakdowns(
    const std::vector<SparsityBreakdown>& parts);

/**
 * Latency distribution on fixed log-linear buckets: 16 linear
 * sub-buckets per power of two of 62.5 ns units, so every bucket from
 * 1 us up is at most 6.25% wide; samples past ~4295 s (~1.2 h)
 * saturate into the top bucket. Records in O(1) into a fixed inline
 * array, and merge() adds buckets, so a merged histogram equals one
 * that recorded both sample sets. Percentiles are nearest-rank, exact
 * to within the bucket holding that rank; p0/p100 and the mean are
 * exact.
 */
class LatencyHistogram
{
  public:
    static constexpr int kSubBucketBits = 4;
    static constexpr int kOctaves = 32; // 1 us .. 2^32 us
    static constexpr size_t kBuckets = (kOctaves + 1) << kSubBucketBits;
    static constexpr double kUnitSeconds = 62.5e-9;

    /** Count one sample; negative or NaN counts as 0. */
    void record(double seconds);
    void merge(const LatencyHistogram& other);
    uint64_t count() const { return samples; }
    /** Mean in milliseconds; 0 when empty. */
    double meanMs() const;
    /** Percentile in milliseconds, p in [0, 100]; 0 when empty. */
    double percentileMs(double p) const;

    static size_t bucketOf(double seconds);
    const std::array<uint64_t, kBuckets>& buckets() const { return counts; }

  private:
    std::array<uint64_t, kBuckets> counts{};
    uint64_t samples = 0;
    double sumSeconds = 0;
    double minSeconds = std::numeric_limits<double>::infinity();
    double maxSeconds = 0;
};

/**
 * Throughput/latency accounting of the serving runtime (PhiEngine).
 *
 * Counters are cumulative since construction or the last reset; the
 * engine records one latency sample per request (time from the request
 * starting execution to its result being ready) and the wall time of
 * each flushed batch. Latency percentiles therefore cover every
 * request since construction or reset, exact to within one histogram
 * bucket. Only the counters are timing-dependent — served results
 * themselves stay bit-deterministic. Plain data, trivially copyable.
 */
struct ServingStats
{
    uint64_t requests = 0; // requests completed
    uint64_t batches = 0;  // engine batches that served >= 1 request
    uint64_t rows = 0;     // activation rows across served requests

    /**
     * Wall time spent serving batches, summed per batch. A utilisation
     * metric, NOT a throughput denominator: once flushes overlap
     * (merged stats from concurrent engines, or work observed from the
     * async frontend) the per-flush sum double-counts wall time and
     * would under-report RPS. Throughput uses the monotonic window
     * below instead.
     */
    double busySeconds = 0;

    /**
     * Monotonic serving window: steady-clock seconds (since the
     * clock's epoch) of the first flush's start and the last flush's
     * end. recordFlushWindow() keeps the min/max, so overlapping
     * flushes widen the window at most to real elapsed time — never
     * double-count it. Negative = no flush recorded yet.
     */
    double windowBeginSeconds = -1.0;
    double windowEndSeconds = -1.0;

    // -- async frontend counters (AsyncPhiEngine) ---------------------
    uint64_t rejected = 0;   // submits refused by backpressure
    uint64_t dispatches = 0; // dispatcher micro-batches popped
    uint64_t queueDepthSum = 0; // summed queue depth at each dispatch
    uint64_t maxQueueDepth = 0; // high-water queue depth at dispatch

    // -- resilience counters (deadlines, shedding, watchdog) ----------
    uint64_t expired = 0; // requests dropped for a passed deadline
    uint64_t shed = 0;    // queued requests evicted for higher priority
    uint64_t watchdogRestarts = 0; // dispatcher deaths survived

    // -- session counters (SessionManager) ----------------------------
    uint64_t sessionsOpened = 0;   // sessions opened (incl. restored)
    uint64_t sessionsClosed = 0;   // sessions closed by their client
    uint64_t sessionsExpired = 0;  // sessions evicted by the idle TTL
    uint64_t sessionsRejected = 0; // opens refused at the session cap
    uint64_t sessionSteps = 0;     // temporal steps served, all sessions

    /** Total coalescing wait the dispatcher *added* (dispatch-ready to
     *  dispatched), excluding queue wait behind earlier flushes. */
    double lingerSeconds = 0;

    /** Per-request service time (per frame for sessions). */
    LatencyHistogram latency;
    /** How late each expired request was when dropped: marginal
     *  misses say tighten linger, catastrophic ones say shed harder. */
    LatencyHistogram deadlineMiss;

    /** Widen the monotonic window to cover one flush's [begin, end]
     *  (steady-clock seconds since the clock's epoch). */
    void recordFlushWindow(double beginSeconds, double endSeconds);

    /** Record one dispatcher micro-batch: queue depth observed at
     *  dispatch and how long the batch lingered for coalescing. */
    void recordDispatch(size_t queueDepth, double lingerSec);

    /** Count one expired request, `lateSeconds` past its deadline when
     *  dropped (bumps `expired` and `deadlineMiss`). */
    void recordDeadlineMiss(double lateSeconds);

    /** First-flush-start to last-flush-end, seconds (0 before any
     *  flush). Real elapsed serving time even when flushes overlap. */
    double windowSeconds() const;

    /** Fraction of the serving window spent serving batches; can exceed
     *  1 when merged stats cover engines flushing concurrently. */
    double busyFraction() const;

    /**
     * Requests per second over the monotonic serving window (0 before
     * any flush). Correct under overlapping flushes, where the
     * per-flush busySeconds sum double-counts wall time.
     */
    double throughputRps() const;

    /** Activation rows per second over the same window. */
    double rowThroughputRps() const;

    /** Mean queue depth seen at dispatch (async frontend; 0 without
     *  recorded dispatches). */
    double meanQueueDepth() const;

    /** Mean micro-batch coalescing wait, microseconds. */
    double meanLingerMicros() const;

    /** Sessions open right now (opened minus closed/expired; 0 when
     *  the counters describe a finished workload). */
    uint64_t activeSessions() const;

    /** Mean temporal steps served per opened session. */
    double meanStepsPerSession() const;

    /** Fold another stats block into this one. */
    void merge(const ServingStats& other);
};

static_assert(std::is_trivially_copyable_v<ServingStats>);

} // namespace phi

#endif // PHI_CORE_STATS_HH
