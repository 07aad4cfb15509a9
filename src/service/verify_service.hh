/**
 * @file
 * VerifyService: the batched, multi-tenant verification front end —
 * the other half of serving signature traffic. Requests queue on the
 * service's own WorkPlane; a worker coalesces queued requests — up to
 * the coalescing window per pass — and runs each same-context
 * (same-tenant) run through one SphincsPlus::verifyBatch, so
 * interleaved mixed-tenant traffic still fills whole lane groups
 * across signatures.
 *
 * The service sits behind the same AdmissionController as SignService
 * (per-direction caps, a shared budget, per-tenant quotas), rejecting
 * with typed ServiceOverload, and reports into the same unified
 * ServiceStats / StatsRegistry surface.
 */

#ifndef HEROSIGN_SERVICE_VERIFY_SERVICE_HH
#define HEROSIGN_SERVICE_VERIFY_SERVICE_HH

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
 * Multi-tenant verification service over a KeyStore.
 *
 * Thread-safe: submit() may be called from any number of producers.
 * The destructor drains outstanding work before joining the workers.
 */
class VerifyService
{
  public:
    /**
     * @param store      key registry (must outlive the service)
     * @param config     worker/queue/cache/admission knobs (the
     *                   verify* and maxPending* fields)
     * @param cache      optional shared warm-context cache (pass the
     *                   SignService's to serve both directions from
     *                   one set of warm contexts); nullptr builds a
     *                   private one sized by the config
     * @param stats      optional shared per-tenant stats registry
     * @param admission  optional shared admission controller (pass
     *                   the SignService's for one fabric-wide
     *                   budget); nullptr builds a private one from
     *                   the config's limits
     * @throws std::invalid_argument for config.variant Ptx
     */
    explicit VerifyService(
        KeyStore &store, const ServiceConfig &config = {},
        std::shared_ptr<ContextCache> cache = nullptr,
        std::shared_ptr<StatsRegistry> stats = nullptr,
        std::shared_ptr<AdmissionController> admission = nullptr);

    VerifyService(const VerifyService &) = delete;
    VerifyService &operator=(const VerifyService &) = delete;

    /**
     * Queue one verification; the future yields the verdict
     * (bool-identical to scalar SphincsPlus::verify) or the exception
     * verification raised. Unknown tenants resolve to false at once
     * rather than throwing — in a serving loop a bad key id is data,
     * not a programming error. They count only in the global
     * unknownTenantRejects bucket, never as registry entries, so
     * attacker-supplied ids cannot grow memory, and they consume no
     * admission budget.
     * @throws ServiceOverload when an admission limit trips
     * @throws ServiceShutdown after close()
     */
    std::future<bool> submit(const std::string &key_id,
                             batch::VerifyRequest req);

    /**
     * Queue a batch for one tenant; futures are in request order. The
     * requests are consumed (moved from). Throws on the first request
     * an admission limit refuses — earlier requests stay queued.
     */
    std::vector<std::future<bool>>
    submitMany(const std::string &key_id,
               std::span<batch::VerifyRequest> reqs);

    /** Block until everything submitted so far has a verdict. */
    void drain() { plane_.drain(); }

    /**
     * Shut down without stranding: reject new submits with
     * ServiceShutdown, fast-fail every still-queued request (their
     * admission slots are released), and join the workers. Requests
     * already verifying finish normally. Idempotent. Plain
     * destruction instead drains gracefully by verifying everything
     * queued.
     */
    void close() { plane_.close(); }

    /** Snapshot (verify plane, cache, per-tenant). */
    ServiceStats stats() const;

    /** Requests accepted and not yet completed (approximate). */
    uint64_t pending() const { return plane_.pending(); }

    unsigned workers() const { return plane_.workers(); }

    /** Requests one worker coalesces into a single grouped pass. */
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
    /** One queued verification, fully routed at admission. */
    struct Job : PlaneJob<bool>
    {
        ByteVec msg;
        ByteVec sig;
    };

    friend class WorkPlane<Job, VerifyService>;

    /** Verify one same-context group in one lane-parallel batch. */
    void process(std::span<Job *const> group);

    KeyStore &store_;
    std::shared_ptr<ContextCache> cache_;
    std::shared_ptr<StatsRegistry> statsReg_;
    /// The shared registry's telemetry plane (never null; cached so
    /// hot paths skip the shared_ptr indirection).
    telemetry::Telemetry *tel_;
    std::shared_ptr<AdmissionController> admission_;

    std::atomic<uint64_t> verifies_{0}; ///< attempts with a verdict
    std::atomic<uint64_t> rejects_{0};  ///< false verdicts
    std::atomic<uint64_t> unknownRejects_{0};

    // Last: destroyed first, joining the workers while every member
    // above is still alive.
    WorkPlane<Job, VerifyService> plane_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_VERIFY_SERVICE_HH
