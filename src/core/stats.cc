#include "core/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace phi
{

namespace
{

void
finalise(SparsityBreakdown& b)
{
    if (b.elements == 0)
        return;
    const double elems = static_cast<double>(b.elements);
    b.bitDensity = static_cast<double>(b.bitOnes) / elems;
    b.l1Density = static_cast<double>(b.l1Ones) / elems;
    b.l2PosDensity = static_cast<double>(b.l2Pos) / elems;
    b.l2NegDensity = static_cast<double>(b.l2Neg) / elems;
    b.vectorDensity = static_cast<double>(b.assigned) / elems;
    if (b.rowTiles > 0)
        b.indexDensity = static_cast<double>(b.assigned) /
                         static_cast<double>(b.rowTiles);
}

} // namespace

SparsityBreakdown
computeBreakdown(const BinaryMatrix& acts, const LayerDecomposition& dec,
                 const PatternTable& table)
{
    phi_assert(acts.rows() == dec.m && acts.cols() == dec.kTotal,
               "activation/decomposition shape mismatch");
    SparsityBreakdown b;
    b.elements = dec.m * dec.kTotal;
    b.rowTiles = dec.m * dec.numPartitions();
    b.bitOnes = acts.popcount();

    for (const auto& tile : dec.tiles) {
        const PatternSet& ps = table.partition(tile.partition);
        for (size_t r = 0; r < tile.numRows(); ++r) {
            if (tile.patternIds[r] != 0) {
                ++b.assigned;
                b.l1Ones += static_cast<size_t>(
                    popcount64(ps.bitsOf(tile.patternIds[r])));
            }
            auto [lo, hi] = tile.rowRange(r);
            for (uint32_t e = lo; e < hi; ++e) {
                if (tile.l2Entries[e].sign > 0)
                    ++b.l2Pos;
                else
                    ++b.l2Neg;
            }
        }
    }
    finalise(b);
    return b;
}

SparsityBreakdown
mergeBreakdowns(const std::vector<SparsityBreakdown>& parts)
{
    SparsityBreakdown b;
    for (const auto& p : parts) {
        b.elements += p.elements;
        b.rowTiles += p.rowTiles;
        b.bitOnes += p.bitOnes;
        b.l1Ones += p.l1Ones;
        b.l2Pos += p.l2Pos;
        b.l2Neg += p.l2Neg;
        b.assigned += p.assigned;
    }
    finalise(b);
    return b;
}

size_t
LatencyHistogram::bucketOf(double seconds)
{
    constexpr double kTopUnits =
        static_cast<double>(uint64_t{1} << (kOctaves + kSubBucketBits));
    const double units = seconds > 0 ? seconds / kUnitSeconds : 0.0;
    if (!(units < kTopUnits))
        return kBuckets - 1;
    const auto x = static_cast<uint64_t>(units);
    const int shift =
        std::max(0, static_cast<int>(std::bit_width(x)) - 1 - kSubBucketBits);
    return (static_cast<size_t>(shift) << kSubBucketBits) + (x >> shift);
}

void
LatencyHistogram::record(double seconds)
{
    seconds = seconds > 0 ? seconds : 0.0;
    counts[bucketOf(seconds)] += 1;
    samples += 1;
    sumSeconds += seconds;
    minSeconds = std::min(minSeconds, seconds);
    maxSeconds = std::max(maxSeconds, seconds);
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (size_t b = 0; b < kBuckets; ++b)
        counts[b] += other.counts[b];
    samples += other.samples;
    sumSeconds += other.sumSeconds;
    minSeconds = std::min(minSeconds, other.minSeconds);
    maxSeconds = std::max(maxSeconds, other.maxSeconds);
}

double
LatencyHistogram::meanMs() const
{
    return samples > 0 ? sumSeconds / static_cast<double>(samples) * 1e3
                       : 0.0;
}

double
LatencyHistogram::percentileMs(double p) const
{
    if (samples == 0)
        return 0.0;
    if (!(p > 0))
        return minSeconds * 1e3;
    if (p >= 100)
        return maxSeconds * 1e3;
    const uint64_t rank = std::min(
        samples, static_cast<uint64_t>(
                     std::ceil(p / 100.0 * static_cast<double>(samples))));
    size_t b = 0;
    uint64_t seen = counts[0];
    while (seen < rank)
        seen += counts[++b];
    // The bucket's midpoint (bucketOf() inverted), kept inside the
    // exact extremes so a lone sample reports itself.
    const int shift = std::max(0, static_cast<int>(b >> kSubBucketBits) - 1);
    const size_t lower = b - (static_cast<size_t>(shift) << kSubBucketBits);
    const double mid = std::ldexp(static_cast<double>(lower) + 0.5, shift) *
                       kUnitSeconds;
    return std::clamp(mid, minSeconds, maxSeconds) * 1e3;
}

void
ServingStats::recordFlushWindow(double beginSeconds, double endSeconds)
{
    if (windowBeginSeconds < 0 || beginSeconds < windowBeginSeconds)
        windowBeginSeconds = beginSeconds;
    if (endSeconds > windowEndSeconds)
        windowEndSeconds = endSeconds;
}

void
ServingStats::recordDispatch(size_t queueDepth, double lingerSec)
{
    dispatches += 1;
    queueDepthSum += queueDepth;
    maxQueueDepth = std::max(maxQueueDepth,
                             static_cast<uint64_t>(queueDepth));
    lingerSeconds += lingerSec;
}

void
ServingStats::recordDeadlineMiss(double lateSeconds)
{
    expired += 1;
    deadlineMiss.record(lateSeconds);
}

double
ServingStats::windowSeconds() const
{
    if (windowBeginSeconds < 0 || windowEndSeconds < windowBeginSeconds)
        return 0.0;
    return windowEndSeconds - windowBeginSeconds;
}

double
ServingStats::busyFraction() const
{
    const double w = windowSeconds();
    return w > 0 ? busySeconds / w : 0.0;
}

double
ServingStats::throughputRps() const
{
    const double secs = windowSeconds();
    return secs > 0 ? static_cast<double>(requests) / secs : 0.0;
}

double
ServingStats::rowThroughputRps() const
{
    const double secs = windowSeconds();
    return secs > 0 ? static_cast<double>(rows) / secs : 0.0;
}

double
ServingStats::meanQueueDepth() const
{
    return dispatches > 0 ? static_cast<double>(queueDepthSum) /
                                static_cast<double>(dispatches)
                          : 0.0;
}

double
ServingStats::meanLingerMicros() const
{
    return dispatches > 0
               ? lingerSeconds / static_cast<double>(dispatches) * 1e6
               : 0.0;
}

uint64_t
ServingStats::activeSessions() const
{
    const uint64_t gone = sessionsClosed + sessionsExpired;
    return sessionsOpened > gone ? sessionsOpened - gone : 0;
}

double
ServingStats::meanStepsPerSession() const
{
    return sessionsOpened > 0
               ? static_cast<double>(sessionSteps) /
                     static_cast<double>(sessionsOpened)
               : 0.0;
}

void
ServingStats::merge(const ServingStats& other)
{
    requests += other.requests;
    batches += other.batches;
    rows += other.rows;
    busySeconds += other.busySeconds;
    if (other.windowBeginSeconds >= 0)
        recordFlushWindow(other.windowBeginSeconds,
                          other.windowEndSeconds);
    rejected += other.rejected;
    dispatches += other.dispatches;
    queueDepthSum += other.queueDepthSum;
    maxQueueDepth = std::max(maxQueueDepth, other.maxQueueDepth);
    lingerSeconds += other.lingerSeconds;
    expired += other.expired;
    shed += other.shed;
    watchdogRestarts += other.watchdogRestarts;
    sessionsOpened += other.sessionsOpened;
    sessionsClosed += other.sessionsClosed;
    sessionsExpired += other.sessionsExpired;
    sessionsRejected += other.sessionsRejected;
    sessionSteps += other.sessionSteps;
    latency.merge(other.latency);
    deadlineMiss.merge(other.deadlineMiss);
}

} // namespace phi
