/**
 * @file
 * The unified statistics surface of the serving layer. SignService and
 * VerifyService write per-tenant counters into one shared
 * StatsRegistry, so a single snapshot answers the admission-control
 * questions — queue depth, jobs in flight, per-tenant signing rate,
 * verify failures — across both traffic directions. A ServiceStats
 * carries both planes' fields; a SignService/VerifyService pair
 * sharing one registry merges into one fabric-wide snapshot via
 * mergedWith().
 */

#ifndef HEROSIGN_SERVICE_SERVICE_STATS_HH
#define HEROSIGN_SERVICE_SERVICE_STATS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "telemetry/telemetry.hh"

namespace herosign::service
{

/** Context-cache behaviour counters (see ContextCache). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;      ///< == warm contexts built
    uint64_t evictions = 0;
    size_t size = 0;
    size_t capacity = 0;
};

/** Per-tenant snapshot values. */
struct TenantStats
{
    uint64_t signsSubmitted = 0;
    uint64_t signsCompleted = 0;  ///< successful signatures
    uint64_t signFailures = 0;    ///< sign jobs that threw
    uint64_t verifiesSubmitted = 0; ///< verify requests admitted
    uint64_t verifies = 0;        ///< verification attempts completed
    uint64_t verifyRejects = 0;   ///< verifications returning false
    uint64_t verifyFailures = 0;  ///< verify jobs that threw
    uint64_t pending = 0;         ///< admitted, not yet completed
    double sigsPerSec = 0;        ///< completed / epoch wall clock
    /// End-to-end latency of this tenant's completed sign jobs (ns).
    /// Filled only in sign-plane snapshots (see StatsRegistry::
    /// snapshot's plane mask), so fabric merges can sum buckets.
    telemetry::HistogramSnapshot signLatency;
    /// Same for the async verify plane.
    telemetry::HistogramSnapshot verifyLatency;
};

/** One snapshot of the whole serving layer. */
struct ServiceStats
{
    uint64_t queueDepth = 0;     ///< jobs waiting in the sign queue
    uint64_t inFlight = 0;       ///< sign submitted, not yet completed
    uint64_t signsSubmitted = 0;
    uint64_t signsCompleted = 0;
    uint64_t signFailures = 0;
    uint64_t signsRejected = 0;  ///< refused by admission control
    /// Cross-signature lane groups run by the sign workers (coalesced
    /// pops of >= 2 same-context jobs signed in lockstep).
    uint64_t signLaneGroups = 0;
    uint64_t signCrossSignJobs = 0; ///< jobs signed inside such groups
    /// Lone signatures split into two or more hypertree bands run on
    /// idle sign workers (SignTask::runBand).
    uint64_t signBanded = 0;
    uint64_t signBandsHelped = 0; ///< bands run by a helping worker

    uint64_t verifyQueueDepth = 0; ///< jobs waiting in the verify queue
    uint64_t verifyInFlight = 0;   ///< verify submitted, not completed
    uint64_t verifiesSubmitted = 0; ///< sync + async requests accepted
    uint64_t verifies = 0;          ///< attempts with a verdict
    uint64_t verifyRejects = 0;     ///< false verdicts (incl. unknown)
    uint64_t verifyFailures = 0;    ///< verify jobs that threw
    uint64_t verifiesRejected = 0;  ///< refused by admission control
    /// Requests for unregistered key ids: they reject and count in
    /// the globals but never create registry entries, so this is the
    /// exact difference between `verifies` and the per-tenant sums.
    uint64_t unknownTenantRejects = 0;

    /// Queued sign jobs dropped at dequeue because their deadline had
    /// passed (failed with DeadlineExceeded; included in failures).
    uint64_t signExpired = 0;
    /// Same for the verify plane.
    uint64_t verifyExpired = 0;
    /// Completion callbacks that threw (the result still reached its
    /// future untouched).
    uint64_t callbackErrors = 0;
    /// Sign worker-loop passes aborted by an escaped exception; the
    /// worker failed its in-flight jobs and kept running.
    uint64_t workerRestarts = 0;
    /// Same for the verify plane's workers.
    uint64_t verifyWorkerRestarts = 0;
    /// Verify-after-sign guard mismatches (signatures re-signed on
    /// the scalar path before release).
    uint64_t guardMismatches = 0;
    /// SIMD tiers quarantined by this service's guard.
    uint64_t laneQuarantines = 0;

    double wallUs = 0;           ///< first submit -> last completion
    double sigsPerSec = 0;
    double verifiesPerSec = 0;
    CacheStats cache;
    std::map<std::string, TenantStats> tenants;
    /// Per-stage latency and group-shape histograms from the
    /// telemetry plane, keyed "<plane>_<metric>" (e.g.
    /// "sign_queue_wait", "verify_crypto", "sign_group_size");
    /// latency values are nanoseconds. Each service fills only its
    /// own plane's keys, so the maps of a sign/verify pair are
    /// disjoint and mergedWith() can sum buckets.
    std::map<std::string, telemetry::HistogramSnapshot> stages;

    /**
     * Merge this snapshot with @p other into one fabric-wide view.
     * Intended for a SignService/VerifyService pair sharing one
     * ContextCache and StatsRegistry: plane-specific counters add
     * (each plane's fields are non-zero in only one input), while
     * per-tenant and cache counters — snapshots of the *same* shared
     * state taken instants apart — take the field-wise maximum (the
     * larger value is the later read of a monotonic counter).
     */
    ServiceStats
    mergedWith(const ServiceStats &other) const
    {
        ServiceStats m = *this;
        m.queueDepth += other.queueDepth;
        m.inFlight += other.inFlight;
        m.signsSubmitted += other.signsSubmitted;
        m.signsCompleted += other.signsCompleted;
        m.signFailures += other.signFailures;
        m.signsRejected += other.signsRejected;
        m.signLaneGroups += other.signLaneGroups;
        m.signCrossSignJobs += other.signCrossSignJobs;
        m.signBanded += other.signBanded;
        m.signBandsHelped += other.signBandsHelped;
        m.verifyQueueDepth += other.verifyQueueDepth;
        m.verifyInFlight += other.verifyInFlight;
        m.verifiesSubmitted += other.verifiesSubmitted;
        m.verifies += other.verifies;
        m.verifyRejects += other.verifyRejects;
        m.verifyFailures += other.verifyFailures;
        m.verifiesRejected += other.verifiesRejected;
        m.unknownTenantRejects += other.unknownTenantRejects;
        m.signExpired += other.signExpired;
        m.verifyExpired += other.verifyExpired;
        m.callbackErrors += other.callbackErrors;
        m.workerRestarts += other.workerRestarts;
        m.verifyWorkerRestarts += other.verifyWorkerRestarts;
        m.guardMismatches += other.guardMismatches;
        m.laneQuarantines += other.laneQuarantines;
        m.wallUs = std::max(wallUs, other.wallUs);
        m.sigsPerSec = std::max(sigsPerSec, other.sigsPerSec);
        m.verifiesPerSec =
            std::max(verifiesPerSec, other.verifiesPerSec);
        if (other.cache.hits + other.cache.misses >
            m.cache.hits + m.cache.misses)
            m.cache = other.cache;
        for (const auto &[id, t] : other.tenants) {
            TenantStats &dst = m.tenants[id];
            dst.signsSubmitted =
                std::max(dst.signsSubmitted, t.signsSubmitted);
            dst.signsCompleted =
                std::max(dst.signsCompleted, t.signsCompleted);
            dst.signFailures =
                std::max(dst.signFailures, t.signFailures);
            dst.verifiesSubmitted =
                std::max(dst.verifiesSubmitted, t.verifiesSubmitted);
            dst.verifies = std::max(dst.verifies, t.verifies);
            dst.verifyRejects =
                std::max(dst.verifyRejects, t.verifyRejects);
            dst.verifyFailures =
                std::max(dst.verifyFailures, t.verifyFailures);
            dst.pending = std::max(dst.pending, t.pending);
            dst.sigsPerSec = std::max(dst.sigsPerSec, t.sigsPerSec);
            // Latency histograms are plane-masked at snapshot time
            // (each input fills only its own plane), so summing
            // buckets never double-counts.
            dst.signLatency.merge(t.signLatency);
            dst.verifyLatency.merge(t.verifyLatency);
        }
        for (const auto &[key, snap] : other.stages)
            m.stages[key].merge(snap);
        return m;
    }
};

/** Live per-tenant counters; pointer-stable once created. */
struct TenantCounters
{
    /// The tenant's key id, fixed at creation; hot paths label trace
    /// spans with it without a registry lookup.
    std::string id;

    std::atomic<uint64_t> signsSubmitted{0};
    std::atomic<uint64_t> signsCompleted{0};
    std::atomic<uint64_t> signFailures{0};
    std::atomic<uint64_t> verifiesSubmitted{0};
    std::atomic<uint64_t> verifies{0};
    std::atomic<uint64_t> verifyRejects{0};
    std::atomic<uint64_t> verifyFailures{0};
    /// Jobs admitted and not yet completed across both planes — the
    /// value the per-tenant quota is enforced against (see
    /// AdmissionController).
    std::atomic<uint64_t> pending{0};

    /// Per-tenant end-to-end latency (ns), one histogram per plane.
    /// Single-sharded: per-tenant write rates don't justify the
    /// sharded footprint, and recording stays lock-free regardless.
    telemetry::LatencyHistogram signLatency{1};
    telemetry::LatencyHistogram verifyLatency{1};
};

/**
 * Registry of per-tenant counters shared by the sign and verify
 * services. Thread-safe; tenant() returns a reference that stays
 * valid for the registry's lifetime, so hot paths update atomics
 * without holding the registry lock.
 */
class StatsRegistry
{
  public:
    /// Plane-mask bits for snapshot(): which planes' per-tenant
    /// latency histograms to include. Services pass only their own
    /// plane so a sign/verify pair's snapshots stay disjoint and
    /// mergedWith() can sum buckets.
    static constexpr unsigned kSignPlane = 1u << 0;
    static constexpr unsigned kVerifyPlane = 1u << 1;
    static constexpr unsigned kBothPlanes = kSignPlane | kVerifyPlane;

    explicit StatsRegistry(
        const telemetry::TelemetryConfig &telemetry_config = {})
        : telemetry_(telemetry_config)
    {
    }

    /** Find or create the counters for @p tenant. */
    TenantCounters &
    tenant(const std::string &tenant_id)
    {
        std::lock_guard<std::mutex> lk(m_);
        auto &slot = tenants_[tenant_id];
        if (!slot) {
            slot = std::make_unique<TenantCounters>();
            slot->id = tenant_id;
        }
        return *slot;
    }

    /**
     * The registry's telemetry plane: every service wired to this
     * registry stamps and records into it, so one snapshot covers
     * the whole fabric.
     */
    telemetry::Telemetry &telemetry() { return telemetry_; }
    const telemetry::Telemetry &telemetry() const
    {
        return telemetry_;
    }

    /**
     * Snapshot every tenant's counters; @p wall_us > 0 fills the
     * per-tenant signing rates. @p plane_mask selects which planes'
     * latency histograms to include (kSignPlane/kVerifyPlane bits).
     */
    std::map<std::string, TenantStats>
    snapshot(double wall_us = 0,
             unsigned plane_mask = kBothPlanes) const
    {
        std::lock_guard<std::mutex> lk(m_);
        std::map<std::string, TenantStats> out;
        for (const auto &[id, c] : tenants_) {
            TenantStats t;
            t.signsSubmitted = c->signsSubmitted.load();
            t.signsCompleted = c->signsCompleted.load();
            t.signFailures = c->signFailures.load();
            t.verifiesSubmitted = c->verifiesSubmitted.load();
            t.verifies = c->verifies.load();
            t.verifyRejects = c->verifyRejects.load();
            t.verifyFailures = c->verifyFailures.load();
            t.pending = c->pending.load();
            if (wall_us > 0)
                t.sigsPerSec = t.signsCompleted * 1e6 / wall_us;
            if (plane_mask & kSignPlane)
                t.signLatency = c->signLatency.snapshot();
            if (plane_mask & kVerifyPlane)
                t.verifyLatency = c->verifyLatency.snapshot();
            out.emplace(id, t);
        }
        return out;
    }

    /**
     * Render @p snap (typically the mergedWith() of a fabric's
     * per-service snapshots) as one line of JSON: counters, gauges,
     * cache, per-stage histogram percentiles and per-tenant stats.
     * Latency keys end in "_ns" ("p50_ns"); the group_size and
     * lane_fill_pct histograms are unit-less ("p50").
     */
    static std::string exportJson(const ServiceStats &snap);

    /**
     * Render @p snap in Prometheus text exposition format: TYPE/HELP
     * comments, counter/gauge samples, and cumulative _bucket/_sum/
     * _count series (latencies in seconds) per stage and tenant.
     */
    static std::string exportPrometheus(const ServiceStats &snap);

  private:
    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<TenantCounters>> tenants_;
    telemetry::Telemetry telemetry_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_SERVICE_STATS_HH
