// PhiEngine holds no mutex by design: it is single-owner (the
// dispatcher thread in the async stack — see engine.hh's
// thread-ownership contract), so nothing in this TU takes a lock and
// nothing here carries thread-safety annotations. Cross-thread state
// it touches — the registry, the shared ThreadPool — is internally
// synchronised behind annotated APIs.
#include "runtime/engine.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace phi
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Steady-clock seconds since the clock's epoch, for the monotonic
 *  serving window recorded into ServingStats. */
double
epochSeconds(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

} // namespace

PhiEngine::PhiEngine(CompiledModel model, ExecutionConfig execCfg)
    : models(std::make_shared<ModelRegistry>()), exec(execCfg)
{
    // Throws EmptyModel for a layerless model, exactly as before the
    // registry existed.
    defaultHandle = models->load(kLegacyModelName, std::move(model));
    legacyPin = models->pin(defaultHandle);
}

PhiEngine::PhiEngine(std::shared_ptr<ModelRegistry> registry,
                     ExecutionConfig execCfg)
    : models(std::move(registry)), exec(execCfg)
{
    if (!models)
        throw EngineError(EngineError::Code::EmptyModel,
                          "PhiEngine needs a non-null registry");
}

const CompiledModel&
PhiEngine::model() const
{
    if (!legacyPin)
        throw EngineError(
            EngineError::Code::UnknownModel,
            "model() on a registry-routed engine; resolve a specific "
            "model via registry()->pin(name) instead");
    return *legacyPin;
}

void
PhiEngine::validate(const CompiledModel& model, size_t layer,
                    const BinaryMatrix& acts)
{
    if (layer >= model.numLayers())
        throw EngineError(
            EngineError::Code::InvalidLayer,
            detail::composeMessage("request for layer ", layer, " of a ",
                                   model.numLayers(), "-layer model"));
    const CompiledLayer& l = model.layer(layer);
    if (!l.hasWeights())
        throw EngineError(
            EngineError::Code::MissingWeights,
            detail::composeMessage("layer '", l.name(),
                                   "' was compiled without weights and "
                                   "cannot serve compute"));
    if (acts.cols() != l.weights().rows())
        throw EngineError(
            EngineError::Code::ShapeMismatch,
            detail::composeMessage("activation K ", acts.cols(),
                                   " != weight rows ",
                                   l.weights().rows(), " for layer '",
                                   l.name(), "'"));
}

void
PhiEngine::validate(size_t layer, const BinaryMatrix& acts) const
{
    validate(*models->pin(requireDefault()), layer, acts);
}

const ModelHandle&
PhiEngine::requireDefault() const
{
    if (!defaultHandle.valid())
        throw EngineError(
            EngineError::Code::UnknownModel,
            "this engine routes by ModelHandle (registry-routed, no "
            "default model); pass one explicitly");
    return defaultHandle;
}

ModelRegistry::Pinned
PhiEngine::pinAndValidate(const ModelHandle& handle, size_t layer,
                          const BinaryMatrix& acts) const
{
    ModelRegistry::Pinned pin = models->pin(handle); // UnknownModel
    validate(*pin, layer, acts);
    return pin;
}

size_t
PhiEngine::enqueue(const ModelHandle& handle, size_t layer,
                   BinaryMatrix acts)
{
    ModelRegistry::Pinned pin = pinAndValidate(handle, layer, acts);
    queue.push_back({std::move(pin), layer, std::move(acts), nullptr});
    return queue.size() - 1;
}

size_t
PhiEngine::enqueue(size_t layer, BinaryMatrix acts)
{
    return enqueue(requireDefault(), layer, std::move(acts));
}

size_t
PhiEngine::enqueueBorrowed(const ModelHandle& handle, size_t layer,
                           const BinaryMatrix& acts)
{
    ModelRegistry::Pinned pin = pinAndValidate(handle, layer, acts);
    queue.push_back({std::move(pin), layer, BinaryMatrix{}, &acts});
    return queue.size() - 1;
}

size_t
PhiEngine::enqueueBorrowed(size_t layer, const BinaryMatrix& acts)
{
    return enqueueBorrowed(requireDefault(), layer, acts);
}

size_t
PhiEngine::enqueuePinned(ModelRegistry::Pinned pin, size_t layer,
                         const BinaryMatrix& acts)
{
    // A null pin is reachable from user code (a default-constructed
    // Pinned, or one kept across an unload), so it must reject like
    // every other bad request instead of taking the process down.
    if (!pin)
        throw EngineError(EngineError::Code::UnknownModel,
                          "enqueuePinned() needs a resolved pin");
    queue.push_back({std::move(pin), layer, BinaryMatrix{}, &acts});
    return queue.size() - 1;
}

std::vector<EngineResponse>
PhiEngine::flush()
{
    if (queue.empty())
        return {};
    // Whatever happens inside (allocation failure, a kernel throw), the
    // queue must not survive this call: the responses are lost with the
    // exception anyway, and borrowed requests must never outlive the
    // flush that was meant to consume them.
    try {
        std::vector<EngineResponse> responses = flushImpl();
        queue.clear();
        return responses;
    } catch (...) {
        queue.clear();
        throw;
    }
}

std::vector<EngineResponse>
PhiEngine::flushImpl()
{
    const size_t n = queue.size();
    std::vector<EngineResponse> responses(n);

    // Allocate every response's output (and the latency scratch, a
    // member reused across flushes) on the submitting thread before
    // dispatch: worker chunks then compute into pre-sized buffers and
    // never meet in the allocator mid-batch.
    for (size_t i = 0; i < n; ++i) {
        const EngineRequest& req = queue[i];
        responses[i].model = req.pin.handle;
        responses[i].layer = req.layer;
        responses[i].out = Matrix<int32_t>::uninitialized(
            req.acts().rows(),
            req.pin->layer(req.layer).weights().cols());
    }
    latencyScratch.assign(n, 0.0);
    const auto batchStart = Clock::now();

    // One chunk per request: requests spread across the pool while each
    // request's inner kernels run with the same deterministic chunking
    // they use stand-alone (nested submissions execute inline).
    parallelFor(exec, 0, n, 1, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i) {
            const auto reqStart = Clock::now();
            const EngineRequest& req = queue[i];
            const CompiledLayer& l = req.pin->layer(req.layer);
            EngineResponse& resp = responses[i];
            l.computeInto(resp.out, l.decompose(req.acts(), exec),
                          exec);
            latencyScratch[i] = secondsSince(reqStart);
        }
    });

    const auto batchEnd = Clock::now();
    const double batchSeconds =
        std::chrono::duration<double>(batchEnd - batchStart).count();

    // Requests, rows and latencies go to the merged view and, exactly,
    // to their model's. The flush's wall time, window and batch count go
    // once to the merged view (never double-counted however many models
    // shared the batch) and once to every distinct model that took part
    // in it (its requests really did occupy that flush).
    std::vector<ServingStats*> touched = {&counters};
    for (size_t i = 0; i < n; ++i) {
        const EngineRequest& req = queue[i];
        ServingStats& ms = modelCounters[req.pin.handle.name];
        for (ServingStats* s : {&counters, &ms}) {
            s->requests += 1;
            s->rows += req.acts().rows();
            s->latency.record(latencyScratch[i]);
        }
        if (std::find(touched.begin(), touched.end(), &ms) == touched.end())
            touched.push_back(&ms);
    }
    for (ServingStats* ms : touched) {
        ms->busySeconds += batchSeconds;
        ms->recordFlushWindow(epochSeconds(batchStart),
                              epochSeconds(batchEnd));
        ms->batches += 1;
    }
    return responses;
}

ServingStats
PhiEngine::statsFor(const std::string& name) const
{
    auto it = modelCounters.find(name);
    return it == modelCounters.end() ? ServingStats{} : it->second;
}

EngineResponse
PhiEngine::serve(const ModelHandle& handle, size_t layer,
                 const BinaryMatrix& acts)
{
    if (!queue.empty())
        throw EngineError(EngineError::Code::PendingRequests,
                          "serve() with requests pending; flush() them "
                          "first");
    enqueueBorrowed(handle, layer, acts);
    std::vector<EngineResponse> responses = flush();
    return std::move(responses.front());
}

EngineResponse
PhiEngine::serve(size_t layer, const BinaryMatrix& acts)
{
    return serve(requireDefault(), layer, acts);
}

std::vector<EngineResponse>
PhiEngine::serveBatch(const ModelHandle& handle, size_t layer,
                      const std::vector<const BinaryMatrix*>& batch)
{
    if (!queue.empty())
        throw EngineError(EngineError::Code::PendingRequests,
                          "serveBatch() with requests pending; flush() "
                          "them first");
    try {
        // One pin for the whole batch: every request serves the same
        // epoch even if a swap lands mid-enqueue.
        ModelRegistry::Pinned pin;
        for (const BinaryMatrix* acts : batch) {
            if (acts == nullptr)
                throw EngineError(EngineError::Code::NullActivation,
                                  "null activation in batch");
            if (!pin)
                pin = pinAndValidate(handle, layer, *acts);
            else
                validate(*pin, layer, *acts);
            enqueuePinned(pin, layer, *acts);
        }
        return flush();
    } catch (...) {
        // A rejected request must leave the engine idle and
        // serviceable, with no queued borrows outliving this call.
        queue.clear();
        throw;
    }
}

std::vector<EngineResponse>
PhiEngine::serveBatch(size_t layer,
                      const std::vector<const BinaryMatrix*>& batch)
{
    return serveBatch(requireDefault(), layer, batch);
}

} // namespace phi
