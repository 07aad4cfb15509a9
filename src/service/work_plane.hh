/**
 * @file
 * WorkPlane: the worker plane under both serving front ends — one
 * locked FIFO plus the worker pool that drains it. SignService and
 * VerifyService each own one. The plane does everything the two have
 * in common; a service supplies only its submit-time validation and
 * routing plus one process(group) step.
 *
 * The plane owns:
 *  - the FIFO: a mutex, a condition variable, a deque and a closed
 *    flag; idle workers wait on it untimed (ServiceConfig says why
 *    one lock is enough);
 *  - worker launch and join (a failed launch joins what started);
 *  - shutdown: destruction drains queued jobs gracefully, while
 *    close() fast-fails them with ServiceShutdown;
 *  - the greedy coalescing window: a worker blocks for one job, then
 *    takes whatever else is already queued, up to the window, in the
 *    same lock hold — it never waits for more;
 *  - the queue-stall and worker-throw fault seams, once per pass;
 *  - supervision: an exception escaping a pass fails only that
 *    pass's unsettled jobs and counts one restart;
 *  - the dequeue-time filter: after close() or past its deadline a
 *    job fails before any work is spent on it;
 *  - grouping: a pass's live jobs split into same-context runs
 *    (submission order kept), each handed to Owner::process() once;
 *  - settling a job: promise, settled flag, admission release,
 *    per-tenant failure counter, warm-context unpin, the Done stamp
 *    and the telemetry record;
 *  - the submitted/completed ledger with its rate epoch, drain(),
 *    pending() and a snapshot in which submitted - completed is the
 *    exact in-flight count and queueDepth the exact queued count.
 */

#ifndef HEROSIGN_SERVICE_WORK_PLANE_HH
#define HEROSIGN_SERVICE_WORK_PLANE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "batch/sign_request.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "service/admission.hh"
#include "service/context_cache.hh"
#include "service/service_stats.hh"
#include "sphincs/thashx.hh"
#include "telemetry/telemetry.hh"

namespace herosign::service
{

/**
 * The fields the plane reads and settles on every job. A service's
 * job type derives from PlaneJob and adds its payload.
 */
template <typename R>
struct PlaneJob
{
    using Result = R;

    /// Routed at admission; jobs sharing it may run as one group.
    std::shared_ptr<const WarmContext> warm;
    TenantCounters *tenant = nullptr;
    uint64_t seq = 0; ///< submission order on this plane, 0-based
    std::optional<batch::Deadline> deadline;
    std::promise<R> promise;
    /// Set once the promise is fulfilled or failed, so supervision
    /// fails exactly the unsettled jobs of a pass.
    bool settled = false;
    telemetry::TraceClock trace;
    uint32_t traceFlags = 0; ///< kSpan* bits gathered on the way
};

/** Pool and coalescing shape of one plane. */
struct PlaneShape
{
    unsigned workers = 1;  ///< worker threads (clamped to >= 1)
    unsigned window = 1;   ///< jobs one worker takes per pass (>= 1)
    unsigned maxGroup = 1; ///< largest group given to process() (>= 1)
};

/** One reading of a plane's counters and gauges. */
struct PlaneSnapshot
{
    uint64_t submitted = 0;
    uint64_t completed = 0; ///< settled either way
    uint64_t failures = 0;  ///< settled with an exception
    uint64_t rejected = 0;  ///< refused by admission control
    uint64_t expired = 0;   ///< deadline drops at dequeue
    uint64_t restarts = 0;  ///< passes aborted by an escaped exception
    uint64_t queueDepth = 0;
    double wallUs = 0; ///< first submit -> last completion
};

/**
 * A locked FIFO plus worker pool running @p Job through
 * `Owner::process(std::span<Job *const> group)`. Every group holds
 * live (unsettled) jobs that share one warm context; process() must
 * settle each member through finish(), finishGroup() or fail().
 * Owner may befriend the plane to keep process() private.
 *
 * Thread-safe: submit() may be called from any number of producers.
 * Declare the plane as the owner's last member, so its destructor
 * joins the workers while everything process() touches is alive.
 */
template <typename Job, typename Owner>
class WorkPlane
{
  public:
    using Result = typename Job::Result;

    /**
     * Start the workers. @p name prefixes error messages; @p tel and
     * @p admission must outlive the plane.
     */
    WorkPlane(Owner &owner, Plane plane, const char *name,
              const PlaneShape &shape, telemetry::Telemetry &tel,
              AdmissionController &admission)
        : owner_(owner), plane_(plane), name_(name), tel_(tel),
          admission_(admission), window_(std::max(shape.window, 1u)),
          maxGroup_(std::max(shape.maxGroup, 1u))
    {
        const unsigned n = std::max(shape.workers, 1u);
        workers_.reserve(n);
        try {
            for (unsigned i = 0; i < n; ++i)
                workers_.emplace_back([this] { workerLoop(); });
        } catch (...) {
            // A failed launch (thread limit) must not leave joinable
            // threads behind: destroying one calls std::terminate.
            closeQueue();
            join();
            throw;
        }
    }

    /** Graceful: every queued job is processed before the join. */
    ~WorkPlane()
    {
        closeQueue();
        join();
    }

    WorkPlane(const WorkPlane &) = delete;
    WorkPlane &operator=(const WorkPlane &) = delete;

    /**
     * Refuse new submits, fail every still-queued job with
     * ServiceShutdown (its admission slot is released) and join the
     * workers. Jobs already in a pass finish normally. Idempotent.
     */
    void
    close()
    {
        closing_.store(true, std::memory_order_release);
        closeQueue();
        join();
    }

    /**
     * @throws ServiceShutdown once close() has begun. Called before
     * admission, so a refused submit never claims budget.
     */
    void
    checkOpen() const
    {
        if (closing_.load(std::memory_order_acquire))
            throw ServiceShutdown(std::string(name_) +
                                  ": submit after close()");
    }

    /**
     * Admit one job for tenant @p tc and queue it. @p route(job)
     * fills the payload and the warm context; it runs after the
     * admission slot and the sequence number are claimed. A failure
     * from there to a successful enqueue returns the slot and
     * completes the ledger entry, so drain() still converges.
     * @throws ServiceOverload when admission refuses the job
     */
    template <typename Route>
    std::future<Result>
    submit(TenantCounters &tc, const std::string &tenant_id,
           Route &&route)
    {
        try {
            admission_.admit(plane_, tc, tenant_id);
        } catch (const ServiceOverload &) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            throw;
        }
        const uint64_t seq = noteSubmitted();
        try {
            Job job;
            job.tenant = &tc;
            job.seq = seq;
            route(job);
            auto fut = job.promise.get_future();
            tel_.stamp(job.trace, telemetry::Stage::Admit);
            {
                // The closed flag is read under the lock the workers
                // take to find the queue drained, so an accepted job
                // is always processed.
                std::lock_guard<std::mutex> lk(queueM_);
                if (queueClosed_)
                    throw ServiceShutdown(std::string(name_) +
                                          ": submit after close()");
                queue_.push_back(std::move(job));
            }
            queueCv_.notify_one();
            return fut;
        } catch (...) {
            // Keep the per-tenant identity submitted == completed +
            // failures intact: the job will never reach a worker.
            failures_.fetch_add(1, std::memory_order_relaxed);
            tenantFailures(tc).fetch_add(1, std::memory_order_relaxed);
            retire(tc, 1);
            checkOpen();
            throw;
        }
    }

    /**
     * Count one submission and return its sequence number; opens the
     * rate epoch on first use. submit() calls it; a service calls it
     * directly only for a request it resolves inline.
     */
    uint64_t
    noteSubmitted()
    {
        std::lock_guard<std::mutex> lk(ledgerM_);
        if (!epochOpen_) {
            epochOpen_ = true;
            epochStart_ = std::chrono::steady_clock::now();
        }
        return submitted_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Count @p n completions (either outcome) and wake drain(). */
    void
    noteCompleted(uint64_t n = 1)
    {
        {
            std::lock_guard<std::mutex> lk(ledgerM_);
            completed_.fetch_add(n, std::memory_order_release);
            lastCompletion_ = std::chrono::steady_clock::now();
        }
        drainCv_.notify_all();
    }

    /** Fulfil @p job with @p value and retire it. */
    void
    finish(Job &job, Result value)
    {
        Job *const one[] = {&job};
        finishGroup(std::span<Job *const>(one),
                    [&](size_t) { return std::move(value); });
    }

    /**
     * Fulfil every member of one same-tenant group, member i with
     * value_of(i) (called right before it settles), then return the
     * group's admission slots and ledger entries in one step each.
     */
    template <typename ValueOf>
    void
    finishGroup(std::span<Job *const> group, ValueOf &&value_of)
    {
        for (size_t i = 0; i < group.size(); ++i) {
            group[i]->promise.set_value(value_of(i));
            settle(*group[i], true);
        }
        retire(*group[0]->tenant, group.size());
    }

    /** Fail @p job with @p err and retire it; no-op once settled. */
    void
    fail(Job &job, std::exception_ptr err)
    {
        if (job.settled)
            return;
        TenantCounters &tc = *job.tenant;
        failures_.fetch_add(1, std::memory_order_relaxed);
        tenantFailures(tc).fetch_add(1, std::memory_order_relaxed);
        job.promise.set_exception(std::move(err));
        settle(job, false);
        retire(tc, 1);
    }

    /** Block until everything submitted so far has completed. */
    void
    drain()
    {
        std::unique_lock<std::mutex> lk(ledgerM_);
        drainCv_.wait(lk, [&] {
            return completed_.load(std::memory_order_acquire) ==
                   submitted_.load(std::memory_order_acquire);
        });
    }

    /** Jobs submitted and not yet completed (approximate). */
    uint64_t
    pending() const
    {
        // Completed first: a job can complete between the loads, but
        // none before it was submitted, so this cannot underflow.
        const uint64_t done =
            completed_.load(std::memory_order_acquire);
        return submitted_.load(std::memory_order_acquire) - done;
    }

    /** Counters, then one consistent cut of the ledger and queue. */
    PlaneSnapshot
    snapshot() const
    {
        PlaneSnapshot s;
        // Counters are read before the ledger: a job is submitted
        // before it can fail or expire, so each stays <= submitted.
        s.failures = failures_.load(std::memory_order_relaxed);
        s.rejected = rejected_.load(std::memory_order_relaxed);
        s.expired = expired_.load(std::memory_order_relaxed);
        s.restarts = restarts_.load(std::memory_order_relaxed);
        // noteSubmitted() and noteCompleted() both serialize on
        // ledgerM_, so holding it freezes submitted/completed. Every
        // job still queued is submitted and not completed, so
        // queueDepth <= submitted - completed holds too. (No thread
        // takes ledgerM_ while holding queueM_.)
        std::lock_guard<std::mutex> lk(ledgerM_);
        s.submitted = submitted_.load(std::memory_order_acquire);
        s.completed = completed_.load(std::memory_order_acquire);
        {
            std::lock_guard<std::mutex> q(queueM_);
            s.queueDepth = queue_.size();
        }
        if (epochOpen_ && s.completed > 0)
            s.wallUs = std::chrono::duration<double, std::micro>(
                           lastCompletion_ - epochStart_)
                           .count();
        return s;
    }

    unsigned
    workers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Jobs one worker takes per pass (1 = no coalescing). */
    unsigned window() const { return window_; }

  private:
    void
    join()
    {
        for (auto &w : workers_) {
            if (w.joinable())
                w.join();
        }
    }

    /** Refuse further pushes and wake every idle worker. */
    void
    closeQueue()
    {
        {
            std::lock_guard<std::mutex> lk(queueM_);
            queueClosed_ = true;
        }
        queueCv_.notify_all();
    }

    /**
     * Block until a job is queued or the queue is closed, then move
     * up to window_ jobs into @p pass in the same lock hold.
     * @return false once the queue is closed and drained
     */
    bool
    takePass(std::vector<Job> &pass)
    {
        pass.clear();
        std::unique_lock<std::mutex> lk(queueM_);
        queueCv_.wait(lk, [&] { return !queue_.empty() || queueClosed_; });
        // Coalesce whatever is already queued — never wait for more:
        // an idle queue runs the single job at once.
        while (!queue_.empty() && pass.size() < window_) {
            pass.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        return !pass.empty();
    }

    void
    workerLoop()
    {
        std::vector<Job> pass;
        std::vector<Job *> live, group;
        pass.reserve(window_);
        live.reserve(window_);
        group.reserve(std::min(window_, maxGroup_));
        while (takePass(pass)) {
            for (Job &job : pass)
                tel_.stamp(job.trace, telemetry::Stage::Dequeue);

            try {
                if (FaultInjector::fire(FaultPoint::QueueStall))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            FaultInjector::instance().stallMs()));
                FaultInjector::throwIfFires(FaultPoint::WorkerThrow);
                runPass(pass, live, group);
            } catch (...) {
                // Supervision: fail only this pass's unsettled jobs
                // (returning their slots), then keep running — an
                // in-place restart that never shrinks the pool. The
                // restart is counted first, so a drain() that returns
                // after these failures also sees it in snapshot().
                restarts_.fetch_add(1, std::memory_order_relaxed);
                for (Job &j : pass)
                    fail(j, std::current_exception());
            }
        }
    }

    void
    runPass(std::vector<Job> &pass, std::vector<Job *> &live,
            std::vector<Job *> &group)
    {
        // Dequeue-time filter: a closing plane fails everything still
        // queued, and a passed deadline drops work already too late.
        const bool closing = closing_.load(std::memory_order_acquire);
        const auto now = std::chrono::steady_clock::now();
        live.clear();
        for (Job &job : pass) {
            if (closing) {
                fail(job, std::make_exception_ptr(ServiceShutdown(
                              std::string(name_) +
                              ": closed while the job was queued")));
            } else if (job.deadline && now > *job.deadline) {
                expired_.fetch_add(1, std::memory_order_relaxed);
                job.traceFlags |= telemetry::kSpanExpired;
                fail(job, std::make_exception_ptr(DeadlineExceeded(
                              std::string(name_) +
                              ": deadline passed while the job was "
                              "queued")));
            } else {
                live.push_back(&job);
            }
        }

        // Only jobs sharing one warm context (one tenant key) may run
        // as one group; a grouped job's slot in live is cleared.
        for (size_t i = 0; i < live.size(); ++i) {
            if (!live[i])
                continue;
            const WarmContext *ctx = live[i]->warm.get();
            group.clear();
            for (size_t j = i;
                 j < live.size() && group.size() < maxGroup_; ++j) {
                if (live[j] && live[j]->warm.get() == ctx) {
                    group.push_back(live[j]);
                    live[j] = nullptr;
                }
            }
            for (Job *m : group)
                tel_.stamp(m->trace, telemetry::Stage::GroupFormed);
            tel_.recordGroup(telPlane(), group.size(),
                             sphincs::hashLaneWidth());
            owner_.process(std::span<Job *const>(group));
        }
    }

    void
    settle(Job &job, bool ok)
    {
        job.settled = true;
        if (tel_.enabled()) {
            tel_.stamp(job.trace, telemetry::Stage::Done);
            telemetry::RequestOutcome out;
            out.plane = telPlane();
            out.seq = job.seq;
            out.tenant = &job.tenant->id;
            out.flags = job.traceFlags;
            if (!ok)
                out.flags |= telemetry::kSpanFailed;
            if (FaultInjector::armed())
                out.flags |= telemetry::kSpanFaultArmed;
            // Failed timelines are sampled into the trace ring but
            // kept out of the latency histograms, so percentiles
            // describe successful traffic only.
            out.recordHistograms = ok;
            out.tenantEndToEnd = ok ? &tenantLatency(*job.tenant)
                                    : nullptr;
            tel_.complete(job.trace, out);
        }
        job.warm.reset(); // release the context pin promptly
    }

    void
    retire(TenantCounters &tc, uint64_t n)
    {
        admission_.release(plane_, tc, n);
        noteCompleted(n);
    }

    telemetry::Plane
    telPlane() const
    {
        return plane_ == Plane::Sign ? telemetry::Plane::Sign
                                     : telemetry::Plane::Verify;
    }

    std::atomic<uint64_t> &
    tenantFailures(TenantCounters &tc) const
    {
        return plane_ == Plane::Sign ? tc.signFailures
                                     : tc.verifyFailures;
    }

    telemetry::LatencyHistogram &
    tenantLatency(TenantCounters &tc) const
    {
        return plane_ == Plane::Sign ? tc.signLatency
                                     : tc.verifyLatency;
    }

    Owner &owner_;
    const Plane plane_;
    const char *const name_;
    telemetry::Telemetry &tel_;
    AdmissionController &admission_;
    const unsigned window_;
    const unsigned maxGroup_;

    std::atomic<bool> closing_{false};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failures_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> expired_{0};
    std::atomic<uint64_t> restarts_{0};

    // The FIFO the workers drain, guarded by queueM_.
    mutable std::mutex queueM_;
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    bool queueClosed_ = false;

    // The ledger's rate epoch, guarded by ledgerM_.
    mutable std::mutex ledgerM_;
    std::condition_variable drainCv_;
    std::chrono::steady_clock::time_point epochStart_;
    std::chrono::steady_clock::time_point lastCompletion_;
    bool epochOpen_ = false;

    // Last: the workers start once everything above exists.
    std::vector<std::thread> workers_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_WORK_PLANE_HH
