#include "batch/batch_signer.hh"

#include <algorithm>
#include <stdexcept>

#include "batch/lane_scheduler.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sign_task.hh"

namespace herosign::batch
{

using sphincs::Params;
using sphincs::SecretKey;
using sphincs::SignTask;

namespace
{

/** Shared copy of @p sk whose secret seeds zeroize on release. */
std::shared_ptr<const SecretKey>
zeroizingCopy(const SecretKey &sk)
{
    return std::shared_ptr<const SecretKey>(
        new SecretKey(sk), [](const SecretKey *p) {
            auto *k = const_cast<SecretKey *>(p);
            k->zeroize();
            delete k;
        });
}

std::shared_ptr<const SecretKey>
requireKey(std::shared_ptr<const SecretKey> sk)
{
    if (!sk)
        throw std::invalid_argument("BatchSigner: null secret key");
    return sk;
}

unsigned
resolveLaneGroup(unsigned configured)
{
    if (configured == 0)
        return LaneScheduler::preferredGroup();
    return std::min(configured, LaneScheduler::maxGroup);
}

} // namespace

BatchSigner::BatchSigner(const Params &params, const SecretKey &sk,
                         const BatchSignerConfig &config)
    : BatchSigner(params, zeroizingCopy(sk), config)
{
}

BatchSigner::BatchSigner(const Params &params,
                         std::shared_ptr<const SecretKey> sk,
                         const BatchSignerConfig &config)
    : params_(params), sk_(requireKey(std::move(sk))),
      scheme_(params_, config.variant),
      ctx_(params_, sk_->pkSeed, sk_->skSeed, config.variant),
      pk_{params_, sk_->pkSeed, sk_->pkRoot},
      queue_(config.shards == 0 ? 1 : config.shards),
      laneGroup_(resolveLaneGroup(config.laneGroup)),
      verifyAfterSign_(config.verifyAfterSign),
      tel_(config.telemetry)
{
    const unsigned n = config.workers == 0 ? 1 : config.workers;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    epochWorkerBase_.assign(n, 0);
    // Start the threads only after the vector is fully built: a
    // worker indexes workers_[id] on its first instruction.
    try {
        for (unsigned i = 0; i < n; ++i)
            workers_[i]->thread =
                std::thread([this, i] { workerLoop(i); });
    } catch (...) {
        // A failed launch (thread limit) must not leave joinable
        // threads behind: destroying one calls std::terminate.
        queue_.close();
        for (auto &w : workers_) {
            if (w->thread.joinable())
                w->thread.join();
        }
        throw;
    }
}

BatchSigner::~BatchSigner()
{
    // Graceful teardown: everything still queued is signed (the
    // regression-pinned historical contract — destruction never
    // strands a future, it completes them).
    queue_.close();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

void
BatchSigner::close()
{
    closing_.store(true, std::memory_order_release);
    // Closing the queue wakes every blocked worker; remaining jobs
    // are still popped, and the closing_ flag makes processPass()
    // fast-fail them with ServiceShutdown instead of signing — no
    // future is ever stranded, just settled cheaply.
    queue_.close();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

std::future<ByteVec>
BatchSigner::submit(SignRequest req)
{
    if (closing_.load(std::memory_order_acquire))
        throw ServiceShutdown("BatchSigner: submit after close()");
    if (!req.optRand.empty() && req.optRand.size() != params_.n)
        throw std::invalid_argument(
            "BatchSigner: opt_rand must be n bytes");

    SignJob job;
    job.req = std::move(req);
    auto fut = job.promise.get_future();

    {
        std::lock_guard<std::mutex> lk(drainM_);
        if (!epochOpen_) {
            epochOpen_ = true;
            epochStart_ = std::chrono::steady_clock::now();
        }
        job.seq = submitted_.fetch_add(1, std::memory_order_relaxed);
    }
    try {
        tel_.stamp(job.trace, telemetry::Stage::Admit);
        queue_.push(std::move(job));
    } catch (...) {
        // The seq was claimed but never enqueued; account it as a
        // failed completion so drain() can still converge. (Seqs
        // stay monotonic — this one is simply skipped.)
        failures_.fetch_add(1, std::memory_order_relaxed);
        completeOne();
        if (closing_.load(std::memory_order_acquire))
            throw ServiceShutdown("BatchSigner: submit after close()");
        throw;
    }
    return fut;
}

std::vector<std::future<ByteVec>>
BatchSigner::submitMany(std::span<SignRequest> reqs)
{
    std::vector<std::future<ByteVec>> futures;
    futures.reserve(reqs.size());
    for (SignRequest &r : reqs)
        futures.push_back(submit(std::move(r)));
    return futures;
}

std::future<ByteVec>
BatchSigner::submit(ByteVec msg, ByteVec opt_rand)
{
    return submit(
        SignRequest{std::move(msg), std::move(opt_rand), {}, {}});
}

std::future<ByteVec>
BatchSigner::submit(ByteVec msg, SignCallback cb, ByteVec opt_rand)
{
    return submit(SignRequest{std::move(msg), std::move(opt_rand),
                              std::move(cb), {}});
}

std::vector<std::future<ByteVec>>
BatchSigner::submitMany(const std::vector<ByteVec> &msgs)
{
    std::vector<SignRequest> reqs(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i)
        reqs[i].message = msgs[i];
    return submitMany(std::span<SignRequest>(reqs));
}

void
BatchSigner::completeOne()
{
    {
        std::lock_guard<std::mutex> lk(drainM_);
        completed_.fetch_add(1, std::memory_order_release);
        lastCompletion_ = std::chrono::steady_clock::now();
    }
    drainCv_.notify_all();
}

void
BatchSigner::completeTrace(SignJob &job, bool ok)
{
    if (!tel_.enabled())
        return;
    tel_.stamp(job.trace, telemetry::Stage::Done);
    telemetry::RequestOutcome out;
    out.plane = telemetry::Plane::Sign;
    out.seq = job.seq;
    out.flags = job.traceFlags;
    if (!ok)
        out.flags |= telemetry::kSpanFailed;
    if (FaultInjector::armed())
        out.flags |= telemetry::kSpanFaultArmed;
    out.recordHistograms = ok;
    tel_.complete(job.trace, out);
}

ByteVec
BatchSigner::guardSignature(ByteVec sig, SignJob &job)
{
    const SignRequest &req = job.req;
    if (scheme_.verify(ctx_, req.message, sig, pk_))
        return sig;
    // The signature we just produced does not verify: quarantine the
    // SIMD tier that produced it (process-wide — a faulty vector unit
    // is not this worker's private problem) and redo the job on the
    // forced-scalar path, which the simd-lane fault seam cannot touch
    // by construction.
    job.traceFlags |= telemetry::kSpanGuardMismatch;
    guardMismatches_.fetch_add(1, std::memory_order_relaxed);
    if (sha256LanesQuarantineActiveTier() != LaneBackend::Scalar) {
        job.traceFlags |= telemetry::kSpanLaneQuarantine;
        laneQuarantines_.fetch_add(1, std::memory_order_relaxed);
    }
    ScopedScalarLanes scalar;
    ByteVec redo = scheme_.sign(ctx_, req.message, *sk_, req.optRand);
    if (scheme_.verify(ctx_, req.message, redo, pk_))
        return redo;
    // Even the scalar path cannot produce a verifiable signature —
    // fail the job rather than release bytes that might leak WOTS
    // one-time key material.
    throw SigningFault(
        "BatchSigner: signature failed verify-after-sign twice");
}

void
BatchSigner::finishJob(Worker &w, SignJob &job, ByteVec sig)
{
    if (job.req.callback) {
        // A throwing callback must not poison the finished
        // signature: isolate it from the signing path and count it.
        try {
            FaultInjector::throwIfFires(FaultPoint::CallbackThrow);
            job.req.callback(job.seq, sig);
        } catch (...) {
            callbackErrors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    job.promise.set_value(std::move(sig));
    job.settled = true;
    completeTrace(job, true);
    w.signedCount.fetch_add(1, std::memory_order_relaxed);
    completeOne();
}

void
BatchSigner::failJob(SignJob &job, std::exception_ptr err)
{
    if (job.settled)
        return;
    failures_.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_exception(std::move(err));
    job.settled = true;
    completeTrace(job, false);
    completeOne();
}

void
BatchSigner::signGroup(Worker &w, SignJob *const jobs[],
                       unsigned count)
{
    for (unsigned i = 0; i < count; ++i)
        tel_.stamp(jobs[i]->trace, telemetry::Stage::GroupFormed);
    tel_.recordGroup(telemetry::Plane::Sign, count, laneGroup_);

    // Run the whole group through the LaneScheduler, hash lanes
    // filled across its signatures; a group of one fills them with
    // its own FORS trees. Task construction (prfMsg + digest) can
    // throw per job; a failed member is dropped from the group and
    // the survivors still sign together.
    for (unsigned i = 0; i < count; ++i)
        tel_.stamp(jobs[i]->trace, telemetry::Stage::CryptoStart);
    std::unique_ptr<SignTask> tasks[LaneScheduler::maxGroup];
    SignTask *ptrs[LaneScheduler::maxGroup];
    unsigned live[LaneScheduler::maxGroup];
    unsigned nlive = 0;
    for (unsigned i = 0; i < count; ++i) {
        try {
            tasks[nlive] = std::make_unique<SignTask>(
                ctx_, *sk_, jobs[i]->req.message,
                jobs[i]->req.optRand);
            ptrs[nlive] = tasks[nlive].get();
            live[nlive] = i;
            ++nlive;
        } catch (...) {
            failJob(*jobs[i], std::current_exception());
        }
    }
    if (nlive == 0)
        return;
    bool ran = false;
    try {
        LaneScheduler::run(ptrs, nlive);
        ran = true;
    } catch (...) {
        // A group-wide failure fails every member.
        for (unsigned i = 0; i < nlive; ++i)
            failJob(*jobs[live[i]], std::current_exception());
    }
    if (!ran)
        return;
    for (unsigned i = 0; i < nlive; ++i)
        tel_.stamp(jobs[live[i]]->trace, telemetry::Stage::CryptoEnd);
    if (count > 1) {
        // Coalescing stats count cross-signature groups only.
        laneGroups_.fetch_add(1, std::memory_order_relaxed);
        crossSignJobs_.fetch_add(nlive, std::memory_order_relaxed);
    }
    for (unsigned i = 0; i < nlive; ++i) {
        SignJob &job = *jobs[live[i]];
        try {
            ByteVec sig = tasks[i]->takeSignature();
            if (verifyAfterSign_)
                sig = guardSignature(std::move(sig), job);
            tel_.stamp(job.trace, telemetry::Stage::GuardEnd);
            finishJob(w, job, std::move(sig));
        } catch (...) {
            failJob(job, std::current_exception());
        }
    }
}

void
BatchSigner::processPass(Worker &w, SignJob jobs[], unsigned count)
{
    // Admission filter at dequeue time: a closing signer fast-fails
    // everything still queued, and per-request deadlines drop work
    // that is already too late to be useful — in both cases the
    // promise is settled with a typed error, never stranded.
    SignJob *live[LaneScheduler::maxGroup];
    unsigned n = 0;
    const bool closing = closing_.load(std::memory_order_acquire);
    const auto now = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < count; ++i) {
        if (closing) {
            failJob(jobs[i],
                    std::make_exception_ptr(ServiceShutdown(
                        "BatchSigner: closed while the job was "
                        "still queued")));
            continue;
        }
        if (jobs[i].req.deadline && now > *jobs[i].req.deadline) {
            expired_.fetch_add(1, std::memory_order_relaxed);
            jobs[i].traceFlags |= telemetry::kSpanExpired;
            failJob(jobs[i],
                    std::make_exception_ptr(DeadlineExceeded(
                        "BatchSigner: deadline passed while the "
                        "job was queued")));
            continue;
        }
        live[n++] = &jobs[i];
    }
    if (n > 0)
        signGroup(w, live, n);
}

void
BatchSigner::workerLoop(unsigned id)
{
    Worker &w = *workers_[id];
    const unsigned home = id % queue_.shards();
    SignJob jobs[LaneScheduler::maxGroup];
    while (queue_.pop(jobs[0], home)) {
        // Coalesce whatever is already queued — never wait for more:
        // an idle queue signs the single job immediately, a
        // backlogged one fills the lane group.
        tel_.stamp(jobs[0].trace, telemetry::Stage::Dequeue);
        unsigned got = 1;
        while (got < laneGroup_ && queue_.tryPop(jobs[got], home)) {
            tel_.stamp(jobs[got].trace, telemetry::Stage::Dequeue);
            ++got;
        }
        try {
            if (FaultInjector::fire(FaultPoint::QueueStall))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        FaultInjector::instance().stallMs()));
            FaultInjector::throwIfFires(FaultPoint::WorkerThrow);
            processPass(w, jobs, got);
        } catch (...) {
            // Supervision: an exception that escapes a pass fails
            // only the jobs of THIS pass that are not yet settled —
            // then the worker keeps running (an in-place restart, so
            // the pool never shrinks and queued work behind the
            // fault still gets signed).
            for (unsigned i = 0; i < got; ++i)
                failJob(jobs[i], std::current_exception());
            workerRestarts_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

BatchStats
BatchSigner::drain()
{
    std::unique_lock<std::mutex> lk(drainM_);
    drainCv_.wait(lk, [&] {
        return completed_.load(std::memory_order_acquire) ==
               submitted_.load(std::memory_order_acquire);
    });

    BatchStats st;
    const uint64_t done = completed_.load(std::memory_order_acquire);
    st.jobs = done - epochJobsBase_;
    if (epochOpen_ && st.jobs > 0) {
        // Wall clock runs from the first submit of the epoch to the
        // last completion, not to this (possibly late) drain call.
        st.wallUs = std::chrono::duration<double, std::micro>(
                        lastCompletion_ - epochStart_)
                        .count();
    }
    st.crossShardPops = queue_.steals() - epochStealsBase_;
    st.failures =
        failures_.load(std::memory_order_relaxed) - epochFailuresBase_;
    const uint64_t groups =
        laneGroups_.load(std::memory_order_relaxed);
    const uint64_t crossJobs =
        crossSignJobs_.load(std::memory_order_relaxed);
    st.laneGroups = groups - epochLaneGroupsBase_;
    st.crossSignJobs = crossJobs - epochCrossSignBase_;
    const uint64_t exp = expired_.load(std::memory_order_relaxed);
    const uint64_t cbe =
        callbackErrors_.load(std::memory_order_relaxed);
    const uint64_t rst =
        workerRestarts_.load(std::memory_order_relaxed);
    const uint64_t grd =
        guardMismatches_.load(std::memory_order_relaxed);
    const uint64_t qrn =
        laneQuarantines_.load(std::memory_order_relaxed);
    st.expired = exp - epochExpiredBase_;
    st.callbackErrors = cbe - epochCallbackErrBase_;
    st.workerRestarts = rst - epochRestartsBase_;
    st.guardMismatches = grd - epochGuardBase_;
    st.laneQuarantines = qrn - epochQuarantineBase_;
    const uint64_t ok = st.jobs - st.failures;
    st.sigsPerSec = st.wallUs > 0 ? ok * 1e6 / st.wallUs : 0.0;
    st.perWorkerSigned.resize(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
        const uint64_t c =
            workers_[i]->signedCount.load(std::memory_order_relaxed);
        st.perWorkerSigned[i] = c - epochWorkerBase_[i];
        epochWorkerBase_[i] = c;
    }

    // Open a fresh epoch for the next batch.
    epochJobsBase_ = done;
    epochStealsBase_ = queue_.steals();
    epochFailuresBase_ = failures_.load(std::memory_order_relaxed);
    epochLaneGroupsBase_ = groups;
    epochCrossSignBase_ = crossJobs;
    epochExpiredBase_ = exp;
    epochCallbackErrBase_ = cbe;
    epochRestartsBase_ = rst;
    epochGuardBase_ = grd;
    epochQuarantineBase_ = qrn;
    epochOpen_ = false;
    return st;
}

} // namespace herosign::batch
