/**
 * @file
 * SignService: the multi-tenant signing front end. One WorkPlane
 * serves every registered key — each request is routed through the
 * warm ContextCache at admission, so the only per-tenant cost is the
 * first touch (one Context construction) and the hot path signs with
 * shared immutable state only. Workers coalesce queued jobs per pass
 * and sign each same-context (same-tenant) run as one cross-signature
 * lane group through sphincs::SignTask::runGroup, so SIMD hash lanes
 * fill across signatures even under interleaved multi-tenant traffic.
 * A lone request signs as a group of one. Admission control is a
 * bounded pending-job cap surfaced through the unified ServiceStats.
 *
 * A single-key signer is a SignService over a one-key KeyStore; the
 * store zeroizes the secret seeds when the last reference drops.
 */

#ifndef HEROSIGN_SERVICE_SIGN_SERVICE_HH
#define HEROSIGN_SERVICE_SIGN_SERVICE_HH

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "batch/sign_request.hh"
#include "service/admission.hh"
#include "service/context_cache.hh"
#include "service/key_store.hh"
#include "service/service_stats.hh"
#include "service/work_plane.hh"

namespace herosign::service
{

/**
 * Multi-tenant signing service over a KeyStore.
 *
 * Thread-safe: submit() may be called concurrently from any number of
 * producers. Each request resolves its tenant's warm context once at
 * admission; workers then sign with no shared-state construction at
 * all. The destructor drains outstanding work before joining.
 */
class SignService
{
  public:
    /**
     * @param store   key registry (must outlive the service)
     * @param config  pool/cache/admission knobs
     * @param cache   optional shared warm-context cache (e.g. the one
     *                a VerifyService uses); nullptr builds a private
     *                one sized by the config
     * @param stats   optional shared per-tenant stats registry;
     *                nullptr builds a private one
     * @param admission  optional shared admission controller (pass a
     *                VerifyService's for one fabric-wide budget);
     *                nullptr builds a private one from the config
     * @throws std::invalid_argument for config.variant Ptx
     */
    explicit SignService(
        KeyStore &store, const ServiceConfig &config = {},
        std::shared_ptr<ContextCache> cache = nullptr,
        std::shared_ptr<StatsRegistry> stats = nullptr,
        std::shared_ptr<AdmissionController> admission = nullptr);

    SignService(const SignService &) = delete;
    SignService &operator=(const SignService &) = delete;

    /**
     * Queue one request for tenant @p key_id; the future yields the
     * signature (or the exception signing raised). The request's
     * callback, when set, runs on the worker thread with the
     * service-wide submission sequence number.
     * @throws std::invalid_argument for unknown or verify-only keys,
     *         or an optRand that is neither empty nor n bytes
     * @throws ServiceOverload when an admission limit trips
     * @throws ServiceShutdown after close()
     */
    std::future<ByteVec> submit(const std::string &key_id,
                                batch::SignRequest req);

    /**
     * Queue a batch for one tenant; futures are in request order and
     * every per-request field (optRand, callback) is honored. The
     * requests are consumed (moved from). Throws on the first request
     * an admission limit refuses — earlier requests stay queued.
     */
    std::vector<std::future<ByteVec>>
    submitMany(const std::string &key_id,
               std::span<batch::SignRequest> reqs);

    /** Block until everything submitted so far has completed. */
    void drain() { plane_.drain(); }

    /**
     * Shut down without stranding: reject new submits with
     * ServiceShutdown, fast-fail every still-queued task (their
     * admission slots are released, so the shared budget returns to
     * its idle level), and join the workers. Tasks already signing
     * finish normally. Idempotent; the destructor after close() is a
     * no-op join. Plain destruction instead drains gracefully by
     * signing everything queued.
     */
    void close() { plane_.close(); }

    /** Snapshot the unified serving-layer statistics. */
    ServiceStats stats() const;

    /** Jobs submitted and not yet completed (approximate). */
    uint64_t pending() const { return plane_.pending(); }

    unsigned workers() const { return plane_.workers(); }

    /** Jobs one worker coalesces per pass (1 = no coalescing). */
    unsigned coalesceWindow() const { return plane_.window(); }

    const std::shared_ptr<ContextCache> &contextCache() const
    {
        return cache_;
    }

    const std::shared_ptr<StatsRegistry> &statsRegistry() const
    {
        return statsReg_;
    }

    const std::shared_ptr<AdmissionController> &admission() const
    {
        return admission_;
    }

  private:
    /** One queued signing job, fully routed at admission. */
    struct Job : PlaneJob<ByteVec>
    {
        ByteVec msg;
        ByteVec optRand;
        batch::SignCallback callback;
    };

    friend class WorkPlane<Job, SignService>;

    /** Sign one same-context group with SignTask::runGroup. */
    void process(std::span<Job *const> group);
    void finishJob(Job &job, ByteVec sig);
    ByteVec guardSignature(ByteVec sig, Job &job);

    KeyStore &store_;
    const bool verifyAfterSign_;
    std::shared_ptr<ContextCache> cache_;
    std::shared_ptr<StatsRegistry> statsReg_;
    /// The shared registry's telemetry plane (never null; cached so
    /// hot paths skip the shared_ptr indirection).
    telemetry::Telemetry *tel_;
    std::shared_ptr<AdmissionController> admission_;

    std::atomic<uint64_t> laneGroups_{0};
    std::atomic<uint64_t> crossSignJobs_{0};
    std::atomic<uint64_t> callbackErrors_{0};
    std::atomic<uint64_t> guardMismatches_{0};
    std::atomic<uint64_t> laneQuarantines_{0};

    // Last: destroyed first, joining the workers while every member
    // above is still alive.
    WorkPlane<Job, SignService> plane_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_SIGN_SERVICE_HH
