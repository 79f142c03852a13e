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

PhiEngine::PhiEngine(std::shared_ptr<ModelRegistry> registry,
                     ExecutionConfig execCfg)
    : models(std::move(registry)), exec(execCfg)
{
    if (!models)
        throw EngineError(EngineError::Code::EmptyModel,
                          "PhiEngine needs a non-null registry");
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

std::vector<EngineResponse>
PhiEngine::serve(std::span<const EngineRequest> batch)
{
    // Reject the whole batch before any allocation or compute: a bad
    // request leaves the engine exactly as it was.
    for (const EngineRequest& req : batch) {
        // A null pin is reachable from user code (a default-constructed
        // Pinned), so it rejects like every other bad request.
        if (!req.pin)
            throw EngineError(EngineError::Code::UnknownModel,
                              "serve() needs a resolved pin");
        if (req.acts == nullptr)
            throw EngineError(EngineError::Code::NullActivation,
                              "null activation in batch");
        validate(*req.pin, req.layer, *req.acts);
    }
    const size_t n = batch.size();
    if (n == 0)
        return {};
    std::vector<EngineResponse> responses(n);

    // Allocate every response's output (and the latency scratch, a
    // member reused across batches) on the calling thread before
    // dispatch: worker chunks then compute into pre-sized buffers and
    // never meet in the allocator mid-batch.
    for (size_t i = 0; i < n; ++i) {
        const EngineRequest& req = batch[i];
        responses[i].model = req.pin.handle;
        responses[i].layer = req.layer;
        responses[i].out = Matrix<int32_t>::uninitialized(
            req.acts->rows(),
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
            const EngineRequest& req = batch[i];
            const CompiledLayer& l = req.pin->layer(req.layer);
            l.serveInto(responses[i].out, *req.acts, exec);
            latencyScratch[i] = secondsSince(reqStart);
        }
    });

    const auto batchEnd = Clock::now();
    const double batchSeconds =
        std::chrono::duration<double>(batchEnd - batchStart).count();

    // Requests, rows and latencies go to the merged view and, exactly,
    // to their model's. The batch's wall time, window and count go once
    // to the merged view (never double-counted however many models
    // shared the batch) and once to every distinct model that took part
    // in it (its requests really did occupy that batch).
    std::vector<ServingStats*> touched = {&counters};
    for (size_t i = 0; i < n; ++i) {
        const EngineRequest& req = batch[i];
        ServingStats& ms = modelCounters[req.pin.handle.name];
        for (ServingStats* s : {&counters, &ms}) {
            s->requests += 1;
            s->rows += req.acts->rows();
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
    const EngineRequest req{models->pin(handle), layer, &acts};
    return std::move(serve(std::span(&req, 1)).front());
}

} // namespace phi
