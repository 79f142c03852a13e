/**
 * @file
 * Recoverable serving-path errors.
 *
 * The runtime draws a hard line between two failure classes:
 *
 * - EngineError (here): a *request-level* problem — wrong layer id,
 *   mismatched activation shape, a full queue, a stopped engine. These
 *   are caused by callers and traffic, they are expected in a serving
 *   process, and they must never take the process down. The
 *   synchronous PhiEngine throws them; the AsyncPhiEngine resolves the
 *   offending request's future with one and keeps serving everything
 *   else.
 * - phi_assert / phi_panic (common/logging.hh): an *internal invariant*
 *   violation — a bug in phi itself. Those still abort.
 *
 * io::IoError (io/serialize.hh) plays the same recoverable role for
 * artifact parsing; EngineError is its request-path counterpart.
 */

#ifndef PHI_COMMON_ERROR_HH
#define PHI_COMMON_ERROR_HH

#include <ostream>
#include <stdexcept>
#include <string>

namespace phi
{

/** Machine-readable reason carried by every EngineError. */
enum class EngineErrorCode
{
    EmptyModel,      // a model with no layers, or an engine with no registry
    InvalidLayer,    // request names a layer id the model does not have
    MissingWeights,  // target layer was compiled without weights
    ShapeMismatch,   // activation K != weight rows of the target layer
    NullActivation,  // serve() handed a request with null activations
    QueueFull,       // async queue at capacity under the Reject policy,
                     // or a queued request was shed to admit a
                     // higher-priority one
    Stopped,         // submit() after shutdown()/destruction began
    UnknownModel,    // registry has no resident model for the name/handle
    ModelExists,     // load() of a name already resident (use swap())
    ModelBusy,       // unload() while requests are in flight on the model
    DeadlineExceeded, // request's deadline passed before compute started
    Internal,        // dispatcher died on an escaped exception; the
                     // watchdog failed this in-flight request and
                     // restarted the loop — retry is safe
    SessionNotFound, // session id was never opened (or already closed)
    SessionExpired,  // session was evicted by the idle TTL; its state
                     // is gone and the stream must be reopened
    TooManySessions, // SessionManager at its session cap
};

constexpr const char*
engineErrorCodeName(EngineErrorCode code)
{
    switch (code) {
    case EngineErrorCode::EmptyModel: return "EmptyModel";
    case EngineErrorCode::InvalidLayer: return "InvalidLayer";
    case EngineErrorCode::MissingWeights: return "MissingWeights";
    case EngineErrorCode::ShapeMismatch: return "ShapeMismatch";
    case EngineErrorCode::NullActivation: return "NullActivation";
    case EngineErrorCode::QueueFull: return "QueueFull";
    case EngineErrorCode::Stopped: return "Stopped";
    case EngineErrorCode::UnknownModel: return "UnknownModel";
    case EngineErrorCode::ModelExists: return "ModelExists";
    case EngineErrorCode::ModelBusy: return "ModelBusy";
    case EngineErrorCode::DeadlineExceeded: return "DeadlineExceeded";
    case EngineErrorCode::Internal: return "Internal";
    case EngineErrorCode::SessionNotFound: return "SessionNotFound";
    case EngineErrorCode::SessionExpired: return "SessionExpired";
    case EngineErrorCode::TooManySessions: return "TooManySessions";
    }
    return "Unknown";
}

/** Logs and test failure messages print `QueueFull`, not an int. */
inline std::ostream&
operator<<(std::ostream& os, EngineErrorCode code)
{
    return os << engineErrorCodeName(code);
}

/**
 * A rejected request. Thrown by the synchronous engine APIs and
 * delivered through the offending request's future by the async
 * frontend; catching it and carrying on is the intended use.
 */
class EngineError : public std::runtime_error
{
  public:
    /** Nested alias so call sites can say EngineError::Code. */
    using Code = EngineErrorCode;

    EngineError(Code code, const std::string& what)
        : std::runtime_error(std::string("phi engine error [") +
                             engineErrorCodeName(code) + "]: " + what),
          errorCode(code)
    {
    }

    Code code() const { return errorCode; }

    /** The code's enumerator name ("QueueFull"), for logs and tests. */
    const char* codeName() const { return engineErrorCodeName(errorCode); }

  private:
    Code errorCode;
};

} // namespace phi

#endif // PHI_COMMON_ERROR_HH
