#include "service/verify_service.hh"

#include <memory>

#include "sphincs/thashx.hh"

namespace herosign::service
{

namespace
{

/// Coalescing window: a few lane widths, so a chunk drained from the
/// queue by one worker can fill whole lane groups for several tenants
/// at once without starving sibling workers.
constexpr unsigned kCoalesceLaneFactor = 4;

PlaneShape
verifyShape(const ServiceConfig &config)
{
    requireNativeVariant(config.variant); // before the plane starts
    PlaneShape shape;
    shape.workers = config.verifyWorkers;
    shape.window = kCoalesceLaneFactor * sphincs::hashLaneWidth();
    // One verifyBatch per warm context in a pass, however large.
    shape.maxGroup = shape.window;
    return shape;
}

} // namespace

VerifyService::VerifyService(
    KeyStore &store, const ServiceConfig &config,
    std::shared_ptr<ContextCache> cache,
    std::shared_ptr<StatsRegistry> stats,
    std::shared_ptr<AdmissionController> admission)
    : store_(store),
      cache_(cache ? std::move(cache)
                   : std::make_shared<ContextCache>(
                         config.contextCacheCapacity, config.variant)),
      statsReg_(stats ? std::move(stats)
                      : std::make_shared<StatsRegistry>(
                            config.telemetry)),
      tel_(&statsReg_->telemetry()),
      admission_(admission
                     ? std::move(admission)
                     : std::make_shared<AdmissionController>(
                           AdmissionLimits::fromConfig(config))),
      plane_(*this, Plane::Verify, "VerifyService",
             verifyShape(config), *tel_, *admission_)
{
}

std::future<bool>
VerifyService::submit(const std::string &key_id,
                      batch::VerifyRequest req)
{
    plane_.checkOpen();
    auto key = store_.find(key_id);
    if (!key) {
        // Reject-not-throw, resolved inline: no admission budget
        // consumed, nothing queued, no registry entry created.
        plane_.noteSubmitted();
        verifies_.fetch_add(1, std::memory_order_relaxed);
        rejects_.fetch_add(1, std::memory_order_relaxed);
        unknownRejects_.fetch_add(1, std::memory_order_relaxed);
        plane_.noteCompleted();
        std::promise<bool> p;
        p.set_value(false);
        return p.get_future();
    }

    TenantCounters &tc = statsReg_->tenant(key_id);
    return plane_.submit(tc, key_id, [&](Job &job) {
        tc.verifiesSubmitted.fetch_add(1, std::memory_order_relaxed);
        // Route once at admission: workers verify with shared
        // immutable warm state only.
        job.warm = cache_->acquire(key);
        job.deadline = req.deadline;
        job.msg = std::move(req.message);
        job.sig = std::move(req.signature);
    });
}

std::vector<std::future<bool>>
VerifyService::submitMany(const std::string &key_id,
                          std::span<batch::VerifyRequest> reqs)
{
    std::vector<std::future<bool>> futures;
    futures.reserve(reqs.size());
    for (batch::VerifyRequest &r : reqs)
        futures.push_back(submit(key_id, std::move(r)));
    return futures;
}

void
VerifyService::process(std::span<Job *const> group)
{
    const WarmContext &warm = *group[0]->warm;
    TenantCounters &tc = *group[0]->tenant;
    const size_t n = group.size();
    std::vector<ByteSpan> msgs(n);
    std::vector<ByteSpan> sigs(n);
    const auto ok = std::make_unique<bool[]>(n);
    for (size_t i = 0; i < n; ++i) {
        msgs[i] = ByteSpan(group[i]->msg);
        sigs[i] = ByteSpan(group[i]->sig);
        tel_->stamp(group[i]->trace, telemetry::Stage::CryptoStart);
    }
    try {
        warm.scheme.verifyBatch(warm.ctx, msgs.data(), sigs.data(),
                                warm.key->pk, ok.get(), n);
    } catch (...) {
        for (Job *job : group)
            plane_.fail(*job, std::current_exception());
        return;
    }

    verifies_.fetch_add(n, std::memory_order_relaxed);
    tc.verifies.fetch_add(n, std::memory_order_relaxed);
    uint64_t group_rejects = 0;
    for (size_t i = 0; i < n; ++i)
        group_rejects += ok[i] ? 0 : 1;
    if (group_rejects > 0) {
        rejects_.fetch_add(group_rejects, std::memory_order_relaxed);
        tc.verifyRejects.fetch_add(group_rejects,
                                   std::memory_order_relaxed);
    }
    plane_.finishGroup(group, [&](size_t i) {
        // Verification has no guard pass; GuardEnd == CryptoEnd
        // keeps the callback stage well-defined.
        tel_->stamp(group[i]->trace, telemetry::Stage::CryptoEnd);
        tel_->stamp(group[i]->trace, telemetry::Stage::GuardEnd);
        return ok[i];
    });
}

ServiceStats
VerifyService::stats() const
{
    ServiceStats st;
    // Verdict counters first: each is bounded by the later read of
    // the plane's submitted count.
    st.verifies = verifies_.load(std::memory_order_relaxed);
    st.verifyRejects = rejects_.load(std::memory_order_relaxed);
    st.unknownTenantRejects =
        unknownRejects_.load(std::memory_order_relaxed);
    const PlaneSnapshot pl = plane_.snapshot();
    st.verifyFailures = pl.failures;
    st.verifiesRejected = pl.rejected;
    st.verifyExpired = pl.expired;
    st.verifyWorkerRestarts = pl.restarts;
    st.verifiesSubmitted = pl.submitted;
    st.verifyInFlight = pl.submitted - pl.completed;
    st.verifyQueueDepth = pl.queueDepth;
    st.wallUs = pl.wallUs;
    st.verifiesPerSec =
        st.wallUs > 0 ? st.verifies * 1e6 / st.wallUs : 0.0;
    st.cache = cache_->stats();
    st.tenants = statsReg_->snapshot(0, StatsRegistry::kVerifyPlane);
    st.stages = tel_->snapshotStages(telemetry::Plane::Verify);
    return st;
}

} // namespace herosign::service
