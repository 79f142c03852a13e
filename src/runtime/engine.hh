/**
 * @file
 * The online serving runtime: a PhiEngine routes decompose+compute
 * requests through a ModelRegistry, so one engine serves any number
 * of named, versioned CompiledModels and survives hot-swaps of any
 * of them.
 *
 * Routing is handle-based: a request names its model with a
 * ModelHandle and the engine pins the model's *current* epoch at
 * enqueue time (ModelRegistry::pin). The pin fixes which version
 * serves the request — a swap() racing the batch cannot tear it —
 * and every EngineResponse reports the exact {name, version} that
 * produced it. The legacy single-model constructor still works: it
 * wraps the model in a private one-entry registry under
 * kLegacyModelName, and the handle-less overloads route there.
 *
 * Requests accumulate in a queue and are dispatched as one batch on
 * the shared ThreadPool (common/parallel.hh): one fixed-grain chunk
 * per request, so requests run concurrently while each request's own
 * kernels keep their deterministic chunking. Because every kernel in
 * the stack is bit-deterministic at any thread count, a batch's
 * results are identical to serving the same requests one at a time on
 * a single thread — the property the engine tests pin down at 1/2/8
 * threads.
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
 * One queued unit of serving work: the pinned model epoch that will
 * serve it, a layer id, and the activations — either owned (enqueue
 * moved them in) or borrowed (the caller keeps them alive until
 * flush() returns — the zero-copy batch path).
 */
struct EngineRequest
{
    ModelRegistry::Pinned pin;
    size_t layer = 0;
    BinaryMatrix owned;
    const BinaryMatrix* borrowed = nullptr;

    const BinaryMatrix&
    acts() const
    {
        return borrowed ? *borrowed : owned;
    }
};

/** Full result of one served request. */
struct EngineResponse
{
    /** Exactly which compiled bytes served this response: the model
     *  name plus the version pinned when the request was enqueued. */
    ModelHandle model;

    size_t layer = 0;
    Matrix<int32_t> out;
};

class PhiEngine
{
  public:
    /** Name the legacy single-model constructor registers its model
     *  under (and the handle-less overloads route to). */
    static constexpr const char* kLegacyModelName = "default";

    /**
     * Legacy single-model engine: wraps @p model in a private
     * one-entry registry under kLegacyModelName. The handle-less
     * request overloads route to it, so pre-registry call sites keep
     * working unchanged.
     * @throws EngineError (EmptyModel) for a model with no layers.
     */
    explicit PhiEngine(CompiledModel model, ExecutionConfig exec = {});

    /**
     * Registry-routed engine: serves whatever models are (or become)
     * resident in @p registry. The registry may be empty at
     * construction and is shared — other engines and loader threads
     * may load/swap/unload concurrently while this engine serves.
     * @throws EngineError (EmptyModel) on a null registry.
     */
    explicit PhiEngine(std::shared_ptr<ModelRegistry> registry,
                       ExecutionConfig exec = {});

    /** The registry requests route through (never null). */
    const std::shared_ptr<ModelRegistry>& registry() const
    {
        return models;
    }

    /**
     * Handle the handle-less overloads route to: the legacy model for
     * single-model engines, an invalid handle for registry-routed
     * ones (route by explicit ModelHandle there).
     */
    const ModelHandle& defaultModel() const { return defaultHandle; }

    /**
     * Legacy accessor: the model the engine was constructed over
     * (construction-time version; later swaps do not change it).
     * @throws EngineError (UnknownModel) on a registry-routed engine,
     * which has no single "the model".
     */
    const CompiledModel& model() const;

    const ExecutionConfig& execution() const { return exec; }

    /**
     * Check a request against a model without queuing it. Throws
     * EngineError (recoverable — the engine is untouched and keeps
     * serving) when the layer id is out of range, the layer was
     * compiled without weights, or the activation K does not match
     * the layer's weight rows.
     */
    static void validate(const CompiledModel& model, size_t layer,
                         const BinaryMatrix& acts);

    /** validate() against the default model's current version. */
    void validate(size_t layer, const BinaryMatrix& acts) const;

    /**
     * Queue a request against the current version of @p handle's
     * model, taking ownership of the activations; returns its index
     * within the pending batch. The version is pinned here: a swap
     * landing after enqueue does not affect this request. Results
     * come back from flush() in enqueue order regardless of thread
     * count. Throws EngineError on an invalid request (UnknownModel /
     * see validate()); the queue is unchanged.
     */
    size_t enqueue(const ModelHandle& handle, size_t layer,
                   BinaryMatrix acts);

    /** enqueue() against the default model. */
    size_t enqueue(size_t layer, BinaryMatrix acts);

    /**
     * As enqueue(), but borrows the activations instead of copying or
     * moving them: the caller must keep @p acts alive and unchanged
     * until the next flush() returns. This is the zero-copy path the
     * batch APIs and the async frontend use for their hot loop.
     */
    size_t enqueueBorrowed(const ModelHandle& handle, size_t layer,
                           const BinaryMatrix& acts);

    /** enqueueBorrowed() against the default model. */
    size_t enqueueBorrowed(size_t layer, const BinaryMatrix& acts);

    /**
     * Zero-copy enqueue of an already-pinned-and-validated request —
     * the async frontend resolves pins on the submitting thread (so a
     * swap between submit and dispatch cannot move the request to a
     * different version than the one validated) and hands them to the
     * inner engine through here.
     */
    size_t enqueuePinned(ModelRegistry::Pinned pin, size_t layer,
                         const BinaryMatrix& acts);

    size_t pending() const { return queue.size(); }

    /** Activations of pending request @p i (borrowed requests return
     *  the caller's matrix itself — the zero-copy guarantee). */
    const BinaryMatrix&
    pendingActs(size_t i) const
    {
        return queue.at(i).acts();
    }

    /**
     * Serve every queued request as one batch and clear the queue.
     * Deterministic: response i is bit-identical to
     * layer.compute(layer.decompose(acts_i)) run stand-alone against
     * the pinned version. The queue is cleared even when flush throws
     * (allocation failure), so borrowed requests never outlive the
     * call and the engine stays serviceable.
     */
    std::vector<EngineResponse> flush();

    /** Drop every queued request unserved (their borrows and model
     *  pins released). */
    void clearPending() { queue.clear(); }

    /** enqueue + flush for a single request. */
    EngineResponse serve(const ModelHandle& handle, size_t layer,
                         const BinaryMatrix& acts);

    /** serve() against the default model. */
    EngineResponse serve(size_t layer, const BinaryMatrix& acts);

    /**
     * Serve a homogeneous batch against one layer of one model. All
     * requests pin the same epoch (resolved once, up front), and
     * activations are borrowed for the duration of the call — never
     * copied. Throws EngineError (leaving the engine idle and
     * serviceable) on a null pointer or an invalid request.
     */
    std::vector<EngineResponse> serveBatch(
        const ModelHandle& handle, size_t layer,
        const std::vector<const BinaryMatrix*>& batch);

    /** serveBatch() against the default model. */
    std::vector<EngineResponse> serveBatch(
        size_t layer, const std::vector<const BinaryMatrix*>& batch);

    /** Merged process view of the throughput/latency counters, across
     *  every model this engine served. */
    const ServingStats& stats() const { return counters; }

    /**
     * Counters of one model (by registry name, all versions merged).
     * Unknown or not-yet-served names return zeroed stats. requests /
     * rows / latencies are exact per model; batches and the flush
     * window count every flush that contained at least one of the
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
    /** flush() body; the wrapper owns the clear-queue-on-throw duty. */
    std::vector<EngineResponse> flushImpl();

    /** Pin + validate the current version of @p handle's model. */
    ModelRegistry::Pinned pinAndValidate(const ModelHandle& handle,
                                         size_t layer,
                                         const BinaryMatrix& acts) const;

    /** The default handle, or throw UnknownModel if there is none. */
    const ModelHandle& requireDefault() const;

    std::shared_ptr<ModelRegistry> models;

    /**
     * The legacy constructor's model, pinned for the engine's
     * lifetime: keeps model() valid and the artifact resident even
     * if a caller swaps the registry's "default" entry underneath.
     */
    ModelRegistry::Pinned legacyPin;
    ModelHandle defaultHandle;

    ExecutionConfig exec;
    std::vector<EngineRequest> queue;
    ServingStats counters;
    std::map<std::string, ServingStats> modelCounters;

    /** Per-flush latency scratch, reused so steady-state serving does
     *  not reallocate it on every batch. */
    std::vector<double> latencyScratch;
};

} // namespace phi

#endif // PHI_RUNTIME_ENGINE_HH
