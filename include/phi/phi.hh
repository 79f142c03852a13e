/**
 * @file
 * The public phi facade: the one header users include.
 *
 *   #include <phi/phi.hh>
 *
 * covers the whole compile -> save/load -> registry -> serve
 * workflow:
 *
 *   Offline (once per model)
 *     phi::Pipeline              calibrate + bind weights
 *     phi::compile / .compile()  -> phi::CompiledModel
 *     phi::io::saveModel         -> .phim artifact (+ ArtifactMeta
 *                                   name/version stamp)
 *
 *   Online (any number of serving processes)
 *     phi::io::loadModel         .phim -> CompiledModel
 *     phi::ModelRegistry         named, versioned residency; load /
 *                                swap (zero-downtime) / unload
 *     phi::ModelHandle           routes a request; stamped on every
 *                                response as {name, version}
 *     phi::PhiEngine             synchronous batched serving over
 *                                a registry: one serve(span) call
 *     phi::AsyncPhiEngine        thread-safe futures frontend over
 *                                a registry
 *     phi::ServingStats          per-model + merged counters
 *     phi::LatencyHistogram      fixed-size, mergeable latency
 *                                percentiles (within one bucket)
 *     phi::EngineError           typed, recoverable request failures
 *     phi::ExecutionConfig       threads / tiling / SIMD knobs
 *
 *   Stateful temporal serving (streams, not requests)
 *     phi::SessionManager        per-client sessions: pinned model
 *                                epoch + live LIF membrane state,
 *                                cross-session batched temporal
 *                                forwards, idle-TTL eviction
 *     phi::io::saveSessions      versioned .phis snapshots so
 *     phi::io::loadSessions      sessions survive a restart
 *
 *   Network (serve over TCP)
 *     phi::net::PhiServer        epoll frontend over AsyncPhiEngine:
 *                                concurrent connections, timeouts,
 *                                graceful SIGTERM drain
 *     phi::net::PhiClient        blocking client; rethrows server
 *                                errors as EngineError/IoError/
 *                                NetError by band
 *     phi::net::WireErrorCode    the typed wire error taxonomy
 *
 * Everything under the sibling internal headers (installed at
 * <prefix>/include/phi/internal) is implementation detail: included
 * here transitively, reachable when you need to reach under the
 * facade (kernels, simulators, the accelerator model), but without
 * the API stability promise this header carries.
 *
 * The installed CMake package exports the `phi::phi` target:
 *
 *   find_package(phi REQUIRED)
 *   target_link_libraries(app PRIVATE phi::phi)
 */

#ifndef PHI_PHI_HH
#define PHI_PHI_HH

// Recoverable error taxonomy (EngineError + codes) and execution
// knobs (ExecutionConfig, PHI_THREADS/PHI_SIMD behaviour).
#include "common/error.hh"
#include "common/parallel.hh"

// Compiler-checked synchronisation primitives (phi::Mutex, CondVar,
// scoped locks) and the thread-safety annotation macros (GUARDED_BY,
// REQUIRES, EXCLUDES, ...). Consumers embedding the serving stack can
// annotate their own shared state with the same layer; see README
// "Static analysis & concurrency contracts".
#include "common/sync.hh"

// Offline compiler: calibration -> pattern tables -> bound weights ->
// immutable CompiledModel.
#include "core/compiled_model.hh"
#include "core/pipeline.hh"

// Sparsity accounting + serving counters.
#include "core/stats.hh"

// .phim artifacts: saveModel/loadModel (+ ArtifactMeta stamps),
// IoError.
#include "io/model_io.hh"

// Serving runtime: registry-routed engines, handles, hot-swap.
#include "runtime/registry.hh"
#include "runtime/engine.hh"
#include "runtime/async_engine.hh"

// Stateful sessions: live LIF state across timesteps, .phis
// snapshots (io/session_io.hh comes in transitively).
#include "runtime/session.hh"

// TCP serving frontend: wire protocol, server, client.
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/client.hh"

#endif // PHI_PHI_HH
