#include "service/sign_service.hh"

#include <algorithm>

#include "batch/lane_scheduler.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sign_task.hh"

namespace herosign::service
{

using batch::LaneScheduler;
using sphincs::SignTask;

namespace
{

unsigned
resolveCoalesce(unsigned configured)
{
    if (configured == 0)
        return LaneScheduler::preferredGroup();
    return configured;
}

} // namespace

SignService::SignService(KeyStore &store, const ServiceConfig &config,
                         std::shared_ptr<ContextCache> cache,
                         std::shared_ptr<StatsRegistry> stats,
                         std::shared_ptr<AdmissionController> admission)
    : store_(store), config_(config),
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
      queue_(config.shards == 0 ? 1 : config.shards),
      coalesce_(resolveCoalesce(config.signCoalesce))
{
    const unsigned n = config.workers == 0 ? 1 : config.workers;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    try {
        for (unsigned i = 0; i < n; ++i)
            workers_[i]->thread =
                std::thread([this, i] { workerLoop(i); });
    } catch (...) {
        queue_.close();
        for (auto &w : workers_) {
            if (w->thread.joinable())
                w->thread.join();
        }
        throw;
    }
}

SignService::~SignService()
{
    // Graceful teardown: everything still queued is signed before the
    // workers join — destruction never strands a future.
    queue_.close();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

void
SignService::close()
{
    closing_.store(true, std::memory_order_release);
    // Workers still pop what remains; the closing_ flag makes
    // processChunk() fast-fail each task with ServiceShutdown,
    // releasing its admission slot — the shared budget drains to its
    // idle level and no future is stranded.
    queue_.close();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

std::future<ByteVec>
SignService::submit(const std::string &key_id, batch::SignRequest req)
{
    // Checked before admission so a rejected-at-shutdown submit never
    // claims (and then has to return) budget.
    if (closing_.load(std::memory_order_acquire))
        throw ServiceShutdown("SignService: submit after close()");
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

    // Admission is the shared fabric's hard cap: the controller
    // checks every limit (plane cap, shared budget, tenant quota)
    // and claims the slot inside one critical section, closing the
    // check-then-act race between producers on both planes.
    TenantCounters &tc = statsReg_->tenant(key_id);
    try {
        admission_->admit(Plane::Sign, tc, key_id);
    } catch (const ServiceOverload &) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        throw;
    }
    uint64_t seq;
    {
        std::lock_guard<std::mutex> lk(drainM_);
        if (!epochOpen_) {
            epochOpen_ = true;
            epochStart_ = std::chrono::steady_clock::now();
        }
        seq = submitted_.fetch_add(1, std::memory_order_relaxed);
    }

    // The slot is claimed: any failure from here to a successful
    // enqueue must complete it and return the budget, or drain()
    // would wait forever.
    try {
        tc.signsSubmitted.fetch_add(1, std::memory_order_relaxed);
        Task task;
        // Route once at admission: the worker hot path reuses the
        // warm context and never constructs hashing state.
        task.warm = cache_->acquire(key);
        task.tenant = &tc;
        task.seq = seq;
        task.msg = std::move(req.message);
        task.optRand = std::move(req.optRand);
        task.callback = std::move(req.callback);
        task.deadline = req.deadline;
        auto fut = task.promise.get_future();
        tel_->stamp(task.trace, telemetry::Stage::Admit);
        queue_.push(std::move(task));
        return fut;
    } catch (...) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        // Keep the per-tenant identity submitted == completed +
        // failures intact: the job will never reach a worker.
        tc.signFailures.fetch_add(1, std::memory_order_relaxed);
        admission_->release(Plane::Sign, tc);
        noteCompletion();
        if (closing_.load(std::memory_order_acquire))
            throw ServiceShutdown("SignService: submit after close()");
        throw;
    }
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

std::future<ByteVec>
SignService::submitSign(const std::string &key_id, ByteVec msg,
                        ByteVec opt_rand)
{
    return submit(key_id,
                  batch::SignRequest{std::move(msg),
                                     std::move(opt_rand), {}, {}});
}

void
SignService::noteCompletion()
{
    {
        std::lock_guard<std::mutex> lk(drainM_);
        completed_.fetch_add(1, std::memory_order_release);
        lastCompletion_ = std::chrono::steady_clock::now();
    }
    drainCv_.notify_all();
}

void
SignService::completeTrace(Task &task, bool ok)
{
    if (!tel_->enabled())
        return;
    tel_->stamp(task.trace, telemetry::Stage::Done);
    telemetry::RequestOutcome out;
    out.plane = telemetry::Plane::Sign;
    out.seq = task.seq;
    out.tenant = &task.tenant->id;
    out.flags = task.traceFlags;
    if (!ok)
        out.flags |= telemetry::kSpanFailed;
    if (FaultInjector::armed())
        out.flags |= telemetry::kSpanFaultArmed;
    // Failure timelines are sampled into the trace ring (with their
    // flags) but kept out of the latency histograms, so percentiles
    // describe successful traffic only.
    out.recordHistograms = ok;
    out.tenantEndToEnd = ok ? &task.tenant->signLatency : nullptr;
    tel_->complete(task.trace, out);
}

ByteVec
SignService::guardSignature(ByteVec sig, Task &task)
{
    const WarmContext &warm = *task.warm;
    if (warm.scheme.verify(warm.ctx, task.msg, sig, warm.key->pk))
        return sig;
    // The signature we just produced does not verify: quarantine the
    // SIMD tier that produced it process-wide and redo the job on the
    // forced-scalar path, which the simd-lane fault seam cannot touch
    // by construction.
    task.traceFlags |= telemetry::kSpanGuardMismatch;
    guardMismatches_.fetch_add(1, std::memory_order_relaxed);
    if (sha256LanesQuarantineActiveTier() != LaneBackend::Scalar) {
        task.traceFlags |= telemetry::kSpanLaneQuarantine;
        laneQuarantines_.fetch_add(1, std::memory_order_relaxed);
    }
    ScopedScalarLanes scalar;
    ByteVec redo = warm.scheme.sign(warm.ctx, task.msg, warm.key->sk,
                                    task.optRand);
    if (warm.scheme.verify(warm.ctx, task.msg, redo, warm.key->pk))
        return redo;
    // Even the scalar path cannot produce a verifiable signature —
    // fail the job rather than release bytes that might leak WOTS
    // one-time key material.
    throw SigningFault(
        "SignService: signature failed verify-after-sign twice");
}

void
SignService::finishTask(Task &task, ByteVec sig)
{
    if (task.callback) {
        // A throwing callback must not poison the finished
        // signature: isolate it and count it.
        try {
            FaultInjector::throwIfFires(FaultPoint::CallbackThrow);
            task.callback(task.seq, sig);
        } catch (...) {
            callbackErrors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    task.tenant->signsCompleted.fetch_add(1,
                                          std::memory_order_relaxed);
    task.promise.set_value(std::move(sig));
    task.settled = true;
    completeTrace(task, true);
    task.warm.reset(); // release the context pin promptly
    admission_->release(Plane::Sign, *task.tenant);
    noteCompletion();
}

void
SignService::failTask(Task &task, std::exception_ptr err)
{
    if (task.settled)
        return;
    failures_.fetch_add(1, std::memory_order_relaxed);
    task.tenant->signFailures.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_exception(std::move(err));
    task.settled = true;
    completeTrace(task, false);
    task.warm.reset();
    admission_->release(Plane::Sign, *task.tenant);
    noteCompletion();
}

void
SignService::signSameContextGroup(Task *const tasks[], unsigned count)
{
    for (unsigned i = 0; i < count; ++i)
        tel_->stamp(tasks[i]->trace, telemetry::Stage::GroupFormed);
    tel_->recordGroup(telemetry::Plane::Sign, count,
                      LaneScheduler::preferredGroup());

    // Every member shares one warm context, so the whole run signs as
    // one LaneScheduler group; a lone request is a group of one.
    for (unsigned i = 0; i < count; ++i)
        tel_->stamp(tasks[i]->trace, telemetry::Stage::CryptoStart);
    const WarmContext &warm = *tasks[0]->warm;
    std::unique_ptr<SignTask> sts[LaneScheduler::maxGroup];
    SignTask *ptrs[LaneScheduler::maxGroup];
    unsigned live[LaneScheduler::maxGroup];
    unsigned nlive = 0;
    for (unsigned i = 0; i < count; ++i) {
        try {
            sts[nlive] = std::make_unique<SignTask>(
                warm.ctx, warm.key->sk, tasks[i]->msg,
                tasks[i]->optRand);
            ptrs[nlive] = sts[nlive].get();
            live[nlive] = i;
            ++nlive;
        } catch (...) {
            failTask(*tasks[i], std::current_exception());
        }
    }
    if (nlive == 0)
        return;
    bool ran = false;
    try {
        LaneScheduler::run(ptrs, nlive);
        ran = true;
    } catch (...) {
        for (unsigned i = 0; i < nlive; ++i)
            failTask(*tasks[live[i]], std::current_exception());
    }
    if (!ran)
        return;
    for (unsigned i = 0; i < nlive; ++i)
        tel_->stamp(tasks[live[i]]->trace,
                    telemetry::Stage::CryptoEnd);
    if (count > 1) {
        // Coalescing stats count cross-signature groups only.
        laneGroups_.fetch_add(1, std::memory_order_relaxed);
        crossSignJobs_.fetch_add(nlive, std::memory_order_relaxed);
    }
    for (unsigned i = 0; i < nlive; ++i) {
        Task &task = *tasks[live[i]];
        try {
            ByteVec sig = sts[i]->takeSignature();
            if (config_.verifyAfterSign)
                sig = guardSignature(std::move(sig), task);
            // Always stamped (equal to CryptoEnd when the guard is
            // off) so the callback stage has a stable left edge.
            tel_->stamp(task.trace, telemetry::Stage::GuardEnd);
            finishTask(task, std::move(sig));
        } catch (...) {
            failTask(task, std::current_exception());
        }
    }
}

void
SignService::processChunk(std::vector<Task> &chunk)
{
    // Admission filter at dequeue time: a closing service fast-fails
    // everything still queued, and per-request deadlines drop work
    // that is already too late — in both cases the promise is settled
    // with a typed error and the admission slot is released.
    const bool closing = closing_.load(std::memory_order_acquire);
    const auto now = std::chrono::steady_clock::now();
    for (Task &t : chunk) {
        if (closing) {
            failTask(t, std::make_exception_ptr(ServiceShutdown(
                            "SignService: closed while the job was "
                            "still queued")));
        } else if (t.deadline && now > *t.deadline) {
            expired_.fetch_add(1, std::memory_order_relaxed);
            t.traceFlags |= telemetry::kSpanExpired;
            failTask(t, std::make_exception_ptr(DeadlineExceeded(
                            "SignService: deadline passed while the "
                            "job was queued")));
        }
    }

    // Partition by warm context: only jobs sharing one context
    // (one tenant key) may sign in lockstep. Submission order is
    // preserved within each group.
    std::vector<char> used(chunk.size(), 0);
    Task *group[LaneScheduler::maxGroup];
    for (size_t i = 0; i < chunk.size(); ++i) {
        if (used[i] || chunk[i].settled)
            continue;
        unsigned n = 0;
        group[n++] = &chunk[i];
        used[i] = 1;
        const WarmContext *ctx = chunk[i].warm.get();
        for (size_t j = i + 1;
             j < chunk.size() && n < LaneScheduler::maxGroup; ++j) {
            if (!used[j] && !chunk[j].settled &&
                chunk[j].warm.get() == ctx) {
                group[n++] = &chunk[j];
                used[j] = 1;
            }
        }
        signSameContextGroup(group, n);
    }
}

void
SignService::workerLoop(unsigned id)
{
    const unsigned home = id % queue_.shards();
    std::vector<Task> chunk;
    chunk.reserve(coalesce_);
    Task task;
    while (queue_.pop(task, home)) {
        // Coalesce whatever is already queued — never wait for more.
        chunk.clear();
        tel_->stamp(task.trace, telemetry::Stage::Dequeue);
        chunk.push_back(std::move(task));
        while (chunk.size() < coalesce_ && queue_.tryPop(task, home)) {
            tel_->stamp(task.trace, telemetry::Stage::Dequeue);
            chunk.push_back(std::move(task));
        }

        try {
            if (FaultInjector::fire(FaultPoint::QueueStall))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        FaultInjector::instance().stallMs()));
            FaultInjector::throwIfFires(FaultPoint::WorkerThrow);
            processChunk(chunk);
        } catch (...) {
            // Supervision: an exception escaping a pass fails only
            // this pass's unsettled tasks (releasing their admission
            // slots) — then the worker keeps running, an in-place
            // restart that never shrinks the pool.
            for (Task &t : chunk)
                failTask(t, std::current_exception());
            workerRestarts_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
SignService::drain()
{
    std::unique_lock<std::mutex> lk(drainM_);
    drainCv_.wait(lk, [&] {
        return completed_.load(std::memory_order_acquire) ==
               submitted_.load(std::memory_order_acquire);
    });
}

ServiceStats
SignService::stats() const
{
    ServiceStats st;
    st.signFailures = failures_.load(std::memory_order_relaxed);
    st.signsRejected = rejected_.load(std::memory_order_relaxed);
    st.signLaneGroups = laneGroups_.load(std::memory_order_relaxed);
    st.signCrossSignJobs =
        crossSignJobs_.load(std::memory_order_relaxed);
    st.signExpired = expired_.load(std::memory_order_relaxed);
    st.callbackErrors =
        callbackErrors_.load(std::memory_order_relaxed);
    st.workerRestarts =
        workerRestarts_.load(std::memory_order_relaxed);
    st.guardMismatches =
        guardMismatches_.load(std::memory_order_relaxed);
    st.laneQuarantines =
        laneQuarantines_.load(std::memory_order_relaxed);
    {
        // One consistent snapshot of the counters AND the gauges:
        // submit() claims its sequence number and noteCompletion()
        // records each completion both under drainM_, so holding it
        // here freezes submitted_/completed_ — inFlight is exact,
        // and every task still in the queue is necessarily
        // submitted-and-not-completed, so queueDepth <= inFlight
        // holds in the snapshot. (No lock-order inversion: no thread
        // takes drainM_ while holding a queue shard mutex.)
        std::lock_guard<std::mutex> lk(drainM_);
        st.signsCompleted = completed_.load(std::memory_order_acquire);
        st.signsSubmitted = submitted_.load(std::memory_order_acquire);
        st.inFlight = st.signsSubmitted - st.signsCompleted;
        st.queueDepth = queue_.sizeApprox();
        if (epochOpen_ && st.signsCompleted > 0)
            st.wallUs = std::chrono::duration<double, std::micro>(
                            lastCompletion_ - epochStart_)
                            .count();
    }
    const uint64_t ok = st.signsCompleted >= st.signFailures
                            ? st.signsCompleted - st.signFailures
                            : 0;
    st.sigsPerSec = st.wallUs > 0 ? ok * 1e6 / st.wallUs : 0.0;
    st.cache = cache_->stats();
    st.tenants =
        statsReg_->snapshot(st.wallUs, StatsRegistry::kSignPlane);
    st.stages = tel_->snapshotStages(telemetry::Plane::Sign);
    return st;
}

} // namespace herosign::service
