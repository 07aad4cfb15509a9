/**
 * @file
 * The request structs of the serving layer's submit surface. One
 * signing request (message, optional signing randomness, optional
 * completion callback, optional deadline) and one verification
 * request (message, signature, optional deadline) — SignService and
 * VerifyService accept these via submit(key, Request) /
 * submitMany(key, span<Request>), so per-request options survive
 * batch submission.
 */

#ifndef HEROSIGN_BATCH_SIGN_REQUEST_HH
#define HEROSIGN_BATCH_SIGN_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/bytes.hh"

namespace herosign::batch
{

/**
 * Per-request deadline, checked against steady_clock when a worker
 * dequeues the request (queued work is dropped with DeadlineExceeded
 * once past it; work already signing is never aborted mid-flight).
 */
using Deadline = std::chrono::steady_clock::time_point;

/**
 * Completion callback: invoked on the worker thread with the
 * submission sequence number and the finished signature. Must be
 * thread-safe; keep it cheap — it runs on the signing path. It
 * should not throw: a thrown exception is caught and discarded (the
 * signature still reaches the future untouched).
 */
using SignCallback =
    std::function<void(uint64_t seq, const ByteVec &signature)>;

/**
 * One signing request as the caller states it. Per-request options
 * ride along through submitMany() — every field is honored whether
 * the request is submitted alone or in a batch.
 */
struct SignRequest
{
    ByteVec message;
    ByteVec optRand;       ///< empty selects deterministic signing
    SignCallback callback; ///< optional, may be empty
    /// Drop-if-late bound; nullopt = no deadline.
    std::optional<Deadline> deadline;
};

/** One verification request (a message/signature pair). */
struct VerifyRequest
{
    ByteVec message;
    ByteVec signature;
    /// Drop-if-late bound; nullopt = no deadline.
    std::optional<Deadline> deadline;
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_SIGN_REQUEST_HH
