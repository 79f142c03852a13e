/**
 * @file
 * The online serving runtime: a PhiEngine routes layer requests
 * (CompiledLayer::serveInto) through a ModelRegistry, so one engine serves any number
 * of named, versioned CompiledModels and survives hot-swaps of any
 * of them.
 *
 * Routing is handle-based: a request carries a ModelRegistry::Pinned
 * epoch (serve(handle, ...) pins the model's *current* epoch via
 * ModelRegistry::pin). The pin fixes which version serves the request
 * — a swap() racing the batch cannot tear it — and every
 * EngineResponse reports the exact {name, version} that produced it.
 *
 * serve() takes a whole batch as one span of requests and dispatches
 * it on the shared ThreadPool (common/parallel.hh): one fixed-grain
 * chunk per request, so requests run concurrently while each
 * request's own kernels keep their deterministic chunking. Because
 * every kernel in the stack is bit-deterministic at any thread count,
 * a batch's results are identical to serving the same requests one at
 * a time on a single thread — the property the engine tests pin down
 * at 1/2/8 threads.
 *
 * PWPs are precomputed once at compile time and shared read-only
 * across all requests and threads; serving a request never mutates a
 * model. Throughput and latency counters are surfaced as core/stats
 * ServingStats, per model (statsFor) and as a merged process view
 * (stats).
 *
 * Thread-ownership contract (see README "Static analysis &
 * concurrency contracts"): a PhiEngine holds no mutex and is NOT
 * thread-safe — it is owned by exactly one thread at a time. In the
 * async stack that thread is AsyncPhiEngine's dispatcher, which is
 * why these fields carry no GUARDED_BY annotations: single-thread
 * ownership is the documented alternative the annotation layer
 * leaves to prose. The only cross-thread traffic an engine sees is
 * the registry (internally locked) and the shared ThreadPool.
 */

#ifndef PHI_RUNTIME_ENGINE_HH
#define PHI_RUNTIME_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/parallel.hh"
#include "core/compiled_model.hh"
#include "core/stats.hh"
#include "runtime/registry.hh"

namespace phi
{

/**
 * One request of a serve() batch: the pinned model epoch that serves
 * it, a layer id, and the activations — borrowed for the duration of
 * the serve() call, never copied.
 */
struct EngineRequest
{
    ModelRegistry::Pinned pin;
    size_t layer = 0;
    const BinaryMatrix* acts = nullptr;
};

/** Full result of one served request. */
struct EngineResponse
{
    /** Exactly which compiled bytes served this response: the model
     *  name plus the version the request was pinned to. */
    ModelHandle model;

    size_t layer = 0;
    Matrix<int32_t> out;
};

class PhiEngine
{
  public:
    /**
     * Serves whatever models are (or become) resident in @p registry.
     * The registry may be empty at construction and is shared — other
     * engines and loader threads may load/swap/unload concurrently
     * while this engine serves.
     * @throws EngineError (EmptyModel) on a null registry.
     */
    explicit PhiEngine(std::shared_ptr<ModelRegistry> registry,
                       ExecutionConfig exec = {});

    /** The registry requests route through (never null). */
    const std::shared_ptr<ModelRegistry>& registry() const
    {
        return models;
    }

    const ExecutionConfig& execution() const { return exec; }

    /**
     * Check a request against a model without serving it. Throws
     * EngineError (recoverable — the engine is untouched and keeps
     * serving) when the layer id is out of range, the layer was
     * compiled without weights, or the activation K does not match
     * the layer's weight rows.
     */
    static void validate(const CompiledModel& model, size_t layer,
                         const BinaryMatrix& acts);

    /**
     * Serve @p batch as one batch; response i answers request i.
     * Every request is checked before any compute: a null pin throws
     * UnknownModel, a null acts NullActivation, anything else
     * validate()'s code — and a rejected batch leaves the engine
     * untouched and serviceable. Deterministic: response i is
     * bit-identical to layer.serveInto(out, acts_i) — and to the
     * offline layer.compute(layer.decompose(acts_i)) — run stand-alone
     * against the pinned version, at any thread count.
     */
    std::vector<EngineResponse> serve(std::span<const EngineRequest> batch);

    /** serve() one request against the current version of @p handle's
     *  model (UnknownModel when it is not resident). */
    EngineResponse serve(const ModelHandle& handle, size_t layer,
                         const BinaryMatrix& acts);

    /** Merged process view of the throughput/latency counters, across
     *  every model this engine served. */
    const ServingStats& stats() const { return counters; }

    /**
     * Counters of one model (by registry name, all versions merged).
     * Unknown or not-yet-served names return zeroed stats. requests /
     * rows / latencies are exact per model; batches and the serving
     * window count every batch that contained at least one of the
     * model's requests, so busyFraction() of models co-batched with
     * others overlaps by design (the process view never
     * double-counts).
     */
    ServingStats statsFor(const std::string& name) const;

    /** Per-model counters for every model served so far, keyed by
     *  registry name. */
    std::map<std::string, ServingStats> perModelStats() const
    {
        return modelCounters;
    }

    /**
     * Forget one model's per-model counters (the merged process view
     * is untouched): each name keeps a fixed-size block, latencies
     * cumulative since construction or resetStats() and exact to
     * within one histogram bucket, until dropped here after unload().
     * Same thread-affinity contract as the rest of PhiEngine (not
     * thread-safe); the async frontend routes its own dropStatsFor()
     * through the dispatcher.
     */
    void dropStatsFor(const std::string& name)
    {
        modelCounters.erase(name);
    }

    void
    resetStats()
    {
        counters = ServingStats{};
        modelCounters.clear();
    }

  private:
    std::shared_ptr<ModelRegistry> models;
    ExecutionConfig exec;
    ServingStats counters;
    std::map<std::string, ServingStats> modelCounters;

    /** Per-batch latency scratch, reused so steady-state serving does
     *  not reallocate it on every batch. */
    std::vector<double> latencyScratch;
};

} // namespace phi

#endif // PHI_RUNTIME_ENGINE_HH
