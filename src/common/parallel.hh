/**
 * @file
 * Shared execution engine: a simple chunked thread pool plus
 * deterministic parallel-for helpers and the ExecutionConfig knobs that
 * the hot kernels (spikeGemm, phiGemm, decomposeLayer, k-means) are
 * built on.
 *
 * Determinism contract: work ranges are split into fixed-size chunks
 * whose boundaries depend only on the range and the grain — never on
 * the thread count. Chunks either write disjoint outputs or produce
 * per-chunk partials that the caller reduces in chunk order, so results
 * are bit-identical at any thread count.
 */

#ifndef PHI_COMMON_PARALLEL_HH
#define PHI_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

#include "common/bitops.hh"
#include "common/isa.hh"

namespace phi
{

/**
 * Execution knobs plumbed from the public APIs (Pipeline, simulator,
 * benches) into the parallel kernels.
 */
struct ExecutionConfig
{
    /**
     * Worker threads for the parallel kernels. 0 = use all hardware
     * threads (or the PHI_THREADS environment override); 1 = run
     * sequentially on the calling thread.
     */
    int threads = 0;

    /** Output-column (N) cache block of the GEMM kernels, in elements;
     *  0 means unblocked (one full-N sweep). */
    size_t tileN = 512;

    /**
     * Reduction-dimension (K) cache block of the GEMM kernels, in bits;
     * rounded up internally to a multiple of 64 (one activation word).
     */
    size_t tileK = 4096;

    /**
     * SIMD backend override for the kernel layer (numeric/simd.hh).
     * Auto picks the widest backend the host supports, honouring the
     * PHI_SIMD environment variable; forcing a specific backend is for
     * testing and benchmarking. Every backend is bit-identical, so
     * this knob never changes results — only speed.
     *
     * There is deliberately no software-prefetch knob here: the PWP
     * prefetcher of the paper (Sec. 4.4) is a modelled hardware unit,
     * toggled by PhiArchConfig::prefetchPwp in the simulator only.
     */
    SimdIsa isa = SimdIsa::Auto;

    /** Effective thread count: resolves 0 against the machine. */
    int resolvedThreads() const;

    /** Effective N block for an n-column output (resolves the
     *  0-means-unblocked sentinel). */
    size_t
    resolvedTileN(size_t n) const
    {
        return tileN < 1 ? n : tileN;
    }

    /** tileK rounded to whole 64-bit activation words (>= 1 word). */
    size_t
    tileKWords() const
    {
        return ceilDiv(tileK < 64 ? size_t{64} : tileK, size_t{64});
    }
};

/**
 * A deliberately simple chunked thread pool: no work stealing, no task
 * graph. One job at a time; workers grab chunk indices from a shared
 * atomic counter and the submitting thread participates, so a pool is
 * never slower than the sequential loop by more than the dispatch cost.
 *
 * Concurrency contract (compiler-checked in the impl via
 * common/sync.hh): `submitMtx` serialises whole jobs and is taken
 * strictly before `mtx`, which guards the one-job publication state;
 * chunk claims go through atomics so the drain loop itself is
 * lock-free. See README "Static analysis & concurrency contracts".
 */
class ThreadPool
{
  public:
    /** @param workers  helper threads to spawn (excluding callers). */
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Largest useful thread count (helpers + the calling thread). */
    int maxParallelism() const;

    /**
     * Run fn(chunk) for every chunk in [0, numChunks), using at most
     * maxThreads threads including the caller; blocks until all chunks
     * completed. Exceptions from fn are rethrown on the calling thread
     * (first one wins). Nested calls from any thread currently
     * executing chunks (pool worker or submitter) run inline to stay
     * deadlock-free; while one top-level job is in flight, further
     * submitters execute their own chunks inline rather than waiting.
     */
    void run(size_t numChunks, int maxThreads,
             const std::function<void(size_t)>& fn);

    /**
     * Process-wide pool, lazily created with resolvedThreads()-1
     * helpers. All kernels share it, so oversubscription is bounded.
     */
    static ThreadPool& global();

  private:
    struct Impl;
    Impl* impl;
};

/** Number of fixed-grain chunks covering [begin, end). */
inline size_t
numChunks(size_t begin, size_t end, size_t grain)
{
    return end > begin ? ceilDiv(end - begin, grain < 1 ? 1 : grain) : 0;
}

/**
 * Deterministic parallel loop: splits [begin, end) into fixed chunks of
 * `grain` iterations and runs fn(chunkBegin, chunkEnd) for each, in
 * parallel up to cfg.threads. fn must only write state owned by its
 * chunk.
 */
void parallelFor(const ExecutionConfig& cfg, size_t begin, size_t end,
                 size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/**
 * As parallelFor, but also hands fn the chunk index so callers can
 * stash per-chunk partial results and reduce them sequentially in chunk
 * order — the deterministic-reduction building block (no atomics on
 * float paths).
 */
void parallelForChunks(
    const ExecutionConfig& cfg, size_t begin, size_t end, size_t grain,
    const std::function<void(size_t chunk, size_t, size_t)>& fn);

} // namespace phi

#endif // PHI_COMMON_PARALLEL_HH
