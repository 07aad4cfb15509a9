/**
 * @file
 * The admission-control half of the traffic fabric. One
 * AdmissionController owns the pending-job budget for both serving
 * planes (sign and verify) plus the per-tenant quota, so a
 * SignService/VerifyService pair sharing one controller enforces a
 * single coherent backpressure policy across both traffic
 * directions. Every refusal is a typed ServiceOverload that tells
 * the caller which limit tripped.
 */

#ifndef HEROSIGN_SERVICE_ADMISSION_HH
#define HEROSIGN_SERVICE_ADMISSION_HH

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "hash/sha256.hh"
#include "service/service_stats.hh"

namespace herosign::service
{

/** Traffic direction through the serving layer. */
enum class Plane { Sign, Verify };

/** Thrown when admission control refuses a submit. */
class ServiceOverload : public std::runtime_error
{
  public:
    /** Which limit refused the job. */
    enum class Kind { SignCap, VerifyCap, TotalCap, TenantQuota };

    ServiceOverload(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    /** Untyped overloads default to the sign-plane cap. */
    explicit ServiceOverload(const std::string &what)
        : std::runtime_error(what), kind_(Kind::SignCap)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/**
 * Construction-time knobs shared by the serving-layer services.
 *
 * The serving defaults, and why each was chosen (reference host:
 * 4 cores, AVX-512, so the hash-lane width is 16):
 *  - 4 sign workers: one worker per core. Signing is CPU-bound, so
 *    more workers than cores only time-slice. Each plane's workers
 *    drain one locked FIFO: no benchmark workload moves more than
 *    about 2.4k jobs/s through a plane (batch-256f: about 2,200
 *    verifies/s and 130 signs/s), far below the rate at which one
 *    mutex contends.
 *  - 2 verify workers: a verification costs about 1/20 of a
 *    signature's compressions (192f: 9.8k vs 190.5k), so two workers
 *    keep up with mixed traffic and leave most cores to the sign
 *    plane.
 *  - Sign window = the lane width (signCoalesce = 0, resolved to
 *    sphincs::hashLaneWidth()): one coalesced group fills every hash
 *    lane once.
 *  - Verify window = 4 x the lane width (fixed): one drained chunk
 *    fills whole lane groups for several tenants at once without
 *    starving sibling workers.
 *  - 64 cached contexts: covers the tenants of every workload (the
 *    benches and perfbench drive at most 8), so the steady state never
 *    rebuilds a context.
 *  - SHA-256 variant Native, the only one accepted: Ptx is the GPU
 *    code path only the simulator prices. Honoured on the CPU, it
 *    signed the same bytes with SIMD off, a lone 128f signature in
 *    49-57 ms instead of 3.9-4.0 ms (medians of 20), so it throws.
 *
 * A simulated-annealing search over the pool, window and cache knobs
 * did not beat them. Its profiles were timed against these defaults
 * in alternating pairs of 2 s closed-loop runs (4 tenants, 2
 * producers, mixed sign+verify) on that host:
 *  - 128f, 90 s search, w2/s4/c8 vw2/vs4/vc64 cap256 (workers/
 *    sub-queues/window per plane, then cache; the sub-queue knobs
 *    were removed later): tuned/default median 0.995 (IQR
 *    0.949-1.014), 5 wins of 12 pairs.
 *  - 192f, 60 s search, w4/s4/c4 vw2/vs4/vc32 cap4: median 0.998
 *    (IQR 0.946-1.013), 5 wins of 10 pairs.
 */
struct ServiceConfig
{
    unsigned workers = 4;  ///< sign worker threads (clamped to >= 1)
    /// Queued sign jobs one worker coalesces per pass; same-context
    /// (same-tenant) runs sign as one cross-signature lane group.
    /// 0 = auto (the dispatched hash-lane width); 1 disables
    /// coalescing.
    unsigned signCoalesce = 0;
    unsigned verifyWorkers = 2; ///< verify worker threads (>= 1)
    size_t contextCacheCapacity = 64; ///< warm per-key contexts kept
    /// Reject sign submits once this many sign jobs are pending
    /// (0 = unbounded).
    uint64_t maxPending = 0;
    /// Reject async verify submits once this many verify jobs are
    /// pending (0 = unbounded).
    uint64_t maxPendingVerify = 0;
    /// One shared budget across both planes (0 = unbounded).
    uint64_t maxPendingTotal = 0;
    /// Per-tenant quota on pending jobs, both planes (0 = unbounded).
    uint64_t maxPendingPerTenant = 0;
    /// Verify every produced signature against the tenant's warm
    /// context before its future is fulfilled. On a mismatch the job
    /// is re-signed once on the forced-scalar hash path and the
    /// suspect SIMD tier is quarantined process-wide; a second
    /// mismatch fails the job with SigningFault. Guarantees no
    /// corrupt signature ever escapes the service (a faulty SPHINCS+
    /// signature can leak WOTS one-time key material).
    bool verifyAfterSign = false;
    /// SHA-256 flavour: Native only (see above); Ptx throws.
    Sha256Variant variant = Sha256Variant::Native;
    /// Telemetry-plane knobs (stage histograms, trace sampling).
    /// Applied to the service's private StatsRegistry; when a shared
    /// registry is passed in, the registry's own telemetry
    /// configuration wins.
    telemetry::TelemetryConfig telemetry;
};

/** The pending-job limits an AdmissionController enforces. */
struct AdmissionLimits
{
    uint64_t maxPendingSign = 0;      ///< sign-plane cap
    uint64_t maxPendingVerify = 0;    ///< verify-plane cap
    uint64_t maxPendingTotal = 0;     ///< shared budget, both planes
    uint64_t maxPendingPerTenant = 0; ///< per-tenant quota

    static AdmissionLimits
    fromConfig(const ServiceConfig &cfg)
    {
        AdmissionLimits l;
        l.maxPendingSign = cfg.maxPending;
        l.maxPendingVerify = cfg.maxPendingVerify;
        l.maxPendingTotal = cfg.maxPendingTotal;
        l.maxPendingPerTenant = cfg.maxPendingPerTenant;
        return l;
    }
};

/**
 * Shared admission control for the sign and verify planes. admit()
 * checks every configured limit and claims the slot atomically (one
 * mutex serializes check-then-claim across all producers and both
 * planes); release() returns it on completion. Per-tenant pending is
 * tracked in the tenant's TenantCounters, so quota enforcement spans
 * every service wired to the same StatsRegistry.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionLimits &limits = {})
        : lim_(limits)
    {
    }

    /**
     * Claim one pending slot for @p plane on tenant @p tenant_id.
     * @throws ServiceOverload (typed) when any limit would be
     *         exceeded; no state changes in that case
     */
    void admit(Plane plane, TenantCounters &tc,
               const std::string &tenant_id);

    /** Return @p count slots claimed by admit(). */
    void release(Plane plane, TenantCounters &tc, uint64_t count = 1);

    /** Pending jobs currently admitted on @p plane. */
    uint64_t pending(Plane plane) const;

    /** Pending jobs across both planes. */
    uint64_t pendingTotal() const;

    const AdmissionLimits &limits() const { return lim_; }

  private:
    const AdmissionLimits lim_;
    mutable std::mutex m_;
    uint64_t pendingSign_ = 0;
    uint64_t pendingVerify_ = 0;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_ADMISSION_HH
