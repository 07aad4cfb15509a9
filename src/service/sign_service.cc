#include "service/sign_service.hh"

#include <stdexcept>

#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thashx.hh"

namespace herosign::service
{

using sphincs::maxHashLanes;
using sphincs::SignTask;

namespace
{

PlaneShape
signShape(const ServiceConfig &config)
{
    requireNativeVariant(config.variant); // before the plane starts
    PlaneShape shape;
    shape.workers = config.workers;
    shape.window = config.signCoalesce == 0 ? sphincs::hashLaneWidth()
                                            : config.signCoalesce;
    shape.maxGroup = maxHashLanes;
    return shape;
}

} // namespace

SignService::SignService(KeyStore &store, const ServiceConfig &config,
                         std::shared_ptr<ContextCache> cache,
                         std::shared_ptr<StatsRegistry> stats,
                         std::shared_ptr<AdmissionController> admission)
    : store_(store), verifyAfterSign_(config.verifyAfterSign),
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
      plane_(*this, Plane::Sign, "SignService", signShape(config),
             *tel_, *admission_)
{
}

std::future<ByteVec>
SignService::submit(const std::string &key_id, batch::SignRequest req)
{
    plane_.checkOpen();
    auto key = store_.find(key_id);
    if (!key)
        throw std::invalid_argument("SignService: unknown key id '" +
                                    key_id + "'");
    if (!key->canSign())
        throw std::invalid_argument("SignService: key '" + key_id +
                                    "' is verify-only");
    if (!req.optRand.empty() && req.optRand.size() != key->params.n)
        throw std::invalid_argument(
            "SignService: opt_rand must be n bytes");

    TenantCounters &tc = statsReg_->tenant(key_id);
    return plane_.submit(tc, key_id, [&](Job &job) {
        tc.signsSubmitted.fetch_add(1, std::memory_order_relaxed);
        // Route once at admission: the worker hot path reuses the
        // warm context and never constructs hashing state.
        job.warm = cache_->acquire(key);
        job.deadline = req.deadline;
        job.msg = std::move(req.message);
        job.optRand = std::move(req.optRand);
        job.callback = std::move(req.callback);
    });
}

std::vector<std::future<ByteVec>>
SignService::submitMany(const std::string &key_id,
                        std::span<batch::SignRequest> reqs)
{
    std::vector<std::future<ByteVec>> futures;
    futures.reserve(reqs.size());
    for (batch::SignRequest &r : reqs)
        futures.push_back(submit(key_id, std::move(r)));
    return futures;
}

ByteVec
SignService::guardSignature(ByteVec sig, Job &job)
{
    const WarmContext &warm = *job.warm;
    if (warm.scheme.verify(warm.ctx, job.msg, sig, warm.key->pk))
        return sig;
    // The signature we just produced does not verify: quarantine the
    // SIMD tier that produced it process-wide and redo the job on the
    // forced-scalar path, which the simd-lane fault seam cannot touch
    // by construction.
    job.traceFlags |= telemetry::kSpanGuardMismatch;
    guardMismatches_.fetch_add(1, std::memory_order_relaxed);
    if (sha256LanesQuarantineActiveTier() != LaneBackend::Scalar) {
        job.traceFlags |= telemetry::kSpanLaneQuarantine;
        laneQuarantines_.fetch_add(1, std::memory_order_relaxed);
    }
    ScopedScalarLanes scalar;
    ByteVec redo = warm.scheme.sign(warm.ctx, job.msg, warm.key->sk,
                                    job.optRand);
    if (warm.scheme.verify(warm.ctx, job.msg, redo, warm.key->pk))
        return redo;
    // Even the scalar path cannot produce a verifiable signature —
    // fail the job rather than release bytes that might leak WOTS
    // one-time key material.
    throw SigningFault(
        "SignService: signature failed verify-after-sign twice");
}

void
SignService::finishJob(Job &job, ByteVec sig)
{
    if (job.callback) {
        // A throwing callback must not poison the finished
        // signature: isolate it and count it.
        try {
            FaultInjector::throwIfFires(FaultPoint::CallbackThrow);
            job.callback(job.seq, sig);
        } catch (...) {
            callbackErrors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    job.tenant->signsCompleted.fetch_add(1, std::memory_order_relaxed);
    plane_.finish(job, std::move(sig));
}

void
SignService::process(std::span<Job *const> group)
{
    for (Job *job : group)
        tel_->stamp(job->trace, telemetry::Stage::CryptoStart);

    // Every member shares one warm context, so the whole run signs as
    // one SignTask group. Task construction (prfMsg + digest)
    // can throw per job; a failed member is dropped and the rest
    // still sign together.
    const WarmContext &warm = *group[0]->warm;
    std::unique_ptr<SignTask> tasks[maxHashLanes];
    SignTask *ptrs[maxHashLanes];
    Job *live[maxHashLanes];
    unsigned nlive = 0;
    for (Job *job : group) {
        try {
            tasks[nlive] = std::make_unique<SignTask>(
                warm.ctx, warm.key->sk, job->msg, job->optRand);
            ptrs[nlive] = tasks[nlive].get();
            live[nlive++] = job;
        } catch (...) {
            plane_.fail(*job, std::current_exception());
        }
    }
    if (nlive == 0)
        return;
    try {
        SignTask::runGroup(ptrs, nlive);
    } catch (...) {
        for (unsigned i = 0; i < nlive; ++i)
            plane_.fail(*live[i], std::current_exception());
        return;
    }
    for (unsigned i = 0; i < nlive; ++i)
        tel_->stamp(live[i]->trace, telemetry::Stage::CryptoEnd);
    if (group.size() > 1) {
        // Coalescing stats count cross-signature groups only.
        laneGroups_.fetch_add(1, std::memory_order_relaxed);
        crossSignJobs_.fetch_add(nlive, std::memory_order_relaxed);
    }
    for (unsigned i = 0; i < nlive; ++i) {
        Job &job = *live[i];
        try {
            ByteVec sig = tasks[i]->takeSignature();
            if (verifyAfterSign_)
                sig = guardSignature(std::move(sig), job);
            // Always stamped (equal to CryptoEnd when the guard is
            // off) so the callback stage has a stable left edge.
            tel_->stamp(job.trace, telemetry::Stage::GuardEnd);
            finishJob(job, std::move(sig));
        } catch (...) {
            plane_.fail(job, std::current_exception());
        }
    }
}

ServiceStats
SignService::stats() const
{
    ServiceStats st;
    st.signLaneGroups = laneGroups_.load(std::memory_order_relaxed);
    st.signCrossSignJobs =
        crossSignJobs_.load(std::memory_order_relaxed);
    st.callbackErrors =
        callbackErrors_.load(std::memory_order_relaxed);
    st.guardMismatches =
        guardMismatches_.load(std::memory_order_relaxed);
    st.laneQuarantines =
        laneQuarantines_.load(std::memory_order_relaxed);
    const PlaneSnapshot pl = plane_.snapshot();
    st.signFailures = pl.failures;
    st.signsRejected = pl.rejected;
    st.signExpired = pl.expired;
    st.workerRestarts = pl.restarts;
    st.signsSubmitted = pl.submitted;
    st.signsCompleted = pl.completed;
    st.inFlight = pl.submitted - pl.completed;
    st.queueDepth = pl.queueDepth;
    st.wallUs = pl.wallUs;
    const uint64_t ok = pl.completed >= pl.failures
                            ? pl.completed - pl.failures
                            : 0;
    st.sigsPerSec = st.wallUs > 0 ? ok * 1e6 / st.wallUs : 0.0;
    st.cache = cache_->stats();
    st.tenants =
        statsReg_->snapshot(st.wallUs, StatsRegistry::kSignPlane);
    st.stages = tel_->snapshotStages(telemetry::Plane::Sign);
    return st;
}

} // namespace herosign::service
