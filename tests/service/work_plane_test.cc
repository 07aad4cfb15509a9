/**
 * @file
 * WorkPlane without crypto: a trivial echo job drives the plane, so
 * the machinery both serving planes share is pinned on its own — the
 * coalescing window that never waits for more jobs, close() fast-fail
 * vs graceful teardown, dequeue-time deadline drops, supervision of
 * escaped exceptions, wakeups of idle workers, the exact ledger
 * snapshot under concurrent producers, and idle workers lent to one
 * job's bands (idleHelpers(), runBands()). Cheap enough to run under
 * every sanitizer (a TSan target).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/errors.hh"
#include "common/fault.hh"
#include "service/work_plane.hh"

using namespace herosign;
using service::AdmissionController;
using service::Plane;
using service::PlaneShape;
using service::PlaneSnapshot;
using service::StatsRegistry;
using service::TenantCounters;
using service::WorkPlane;

namespace
{

using namespace std::chrono_literals;

/**
 * The job: a number in, twice the number out. A job with bands runs
 * them through runBands() before it settles.
 */
struct EchoJob : service::PlaneJob<int>
{
    int value = 0;
    unsigned bands = 0;
};

/**
 * A one-tenant echo service over a WorkPlane. process() doubles each
 * member's value; a negative value throws out of the pass after the
 * members before it were settled. A job with bands asks the plane
 * for idleHelpers(), runs its bands through runBands() (onBand runs
 * in each) and fails alone if one throws; afterBands then runs on the
 * job's worker once the job has settled.
 */
class Echo
{
  public:
    explicit Echo(const PlaneShape &shape)
        : plane(*this, Plane::Sign, "Echo", shape, registry.telemetry(),
                admission)
    {
    }

    std::future<int>
    submit(int v, std::optional<batch::Deadline> deadline = {},
           unsigned bands = 0)
    {
        plane.checkOpen();
        return plane.submit(tenant, "t", [&](EchoJob &job) {
            job.value = v;
            job.deadline = deadline;
            job.bands = bands;
        });
    }

    void
    process(std::span<EchoJob *const> group)
    {
        {
            std::lock_guard<std::mutex> lk(m);
            groups.push_back(group.size());
            workerOf[group[0]->value] = std::this_thread::get_id();
        }
        if (onGroup)
            onGroup();
        for (EchoJob *job : group) {
            if (job->value < 0)
                throw std::runtime_error("echo: negative value");
            if (job->bands > 0) {
                runJobBands(*job);
                continue;
            }
            plane.finish(*job, 2 * job->value);
        }
    }

    void
    runJobBands(EchoJob &job)
    {
        helpersSeen = plane.idleHelpers();
        const unsigned count =
            capBands ? std::min(job.bands, 1 + helpersSeen.load())
                     : job.bands;
        try {
            const unsigned helped =
                plane.runBands(count, [&](unsigned b) {
                    {
                        std::lock_guard<std::mutex> lk(m);
                        bandThreads[b] = std::this_thread::get_id();
                    }
                    if (onBand)
                        onBand(b);
                });
            helpedBands = helped;
            plane.finish(job, 2 * job.value);
        } catch (...) {
            plane.fail(job, std::current_exception());
        }
        if (afterBands)
            afterBands();
    }

    std::thread::id
    bandThread(unsigned b)
    {
        std::lock_guard<std::mutex> lk(m);
        return bandThreads[b];
    }

    std::thread::id
    worker(int value)
    {
        std::lock_guard<std::mutex> lk(m);
        return workerOf[value];
    }

    std::vector<size_t>
    groupSizes()
    {
        std::lock_guard<std::mutex> lk(m);
        return groups;
    }

    StatsRegistry registry;
    TenantCounters &tenant = registry.tenant("t");
    AdmissionController admission;
    /// Runs at the start of every process() call; set it before the
    /// first submit.
    std::function<void()> onGroup;
    /// Runs inside each band, with the band's index.
    std::function<void(unsigned)> onBand;
    /// Runs on a banded job's worker after the job settled.
    std::function<void()> afterBands;
    /// Post at most 1 + idleHelpers() bands, as SignService does.
    bool capBands = false;
    std::atomic<unsigned> helpersSeen{0};
    std::atomic<unsigned> helpedBands{0};
    std::mutex m;
    std::vector<size_t> groups;
    std::map<unsigned, std::thread::id> bandThreads;
    std::map<int, std::thread::id> workerOf; ///< by first job's value
    WorkPlane<EchoJob, Echo> plane; // last: joins first
};

/** Blocks the first process() call until open(). */
struct Gate
{
    std::promise<void> entered, released;
    std::shared_future<void> go = released.get_future().share();
    std::atomic<bool> first{true};

    std::function<void()>
    hook()
    {
        return [this] {
            if (first.exchange(false)) {
                entered.set_value();
                go.wait();
            }
        };
    }

    void open() { released.set_value(); }
};

/** A count that threads add to and wait on. */
struct Count
{
    void
    add()
    {
        {
            std::lock_guard<std::mutex> lk(m);
            ++n;
        }
        cv.notify_all();
    }

    bool
    waitFor(unsigned target)
    {
        std::unique_lock<std::mutex> lk(m);
        return cv.wait_for(lk, 30s, [&] { return n >= target; });
    }

    std::mutex m;
    std::condition_variable cv;
    unsigned n = 0;
};

PlaneShape
shape(unsigned workers, unsigned window)
{
    PlaneShape s;
    s.workers = workers;
    s.window = window;
    return s;
}

struct WorkPlaneTest : ::testing::Test
{
    void SetUp() override { FaultInjector::instance().disarm(); }
    void TearDown() override { FaultInjector::instance().disarm(); }
};

} // namespace

TEST_F(WorkPlaneTest, LoneJobRunsAloneWithoutWaitingToFillTheWindow)
{
    Echo echo(shape(1, 4));
    auto f = echo.submit(21);
    // A plane that waited to fill its window would never finish this.
    ASSERT_EQ(f.wait_for(30s), std::future_status::ready);
    EXPECT_EQ(f.get(), 42);
    EXPECT_EQ(echo.groupSizes(), std::vector<size_t>{1});
}

TEST_F(WorkPlaneTest, PassNeverExceedsTheWindow)
{
    Echo echo(shape(1, 4));
    Gate gate;
    echo.onGroup = gate.hook();

    std::vector<std::future<int>> futs;
    futs.push_back(echo.submit(0));
    gate.entered.get_future().wait(); // the worker holds job 0
    for (int v = 1; v <= 10; ++v)
        futs.push_back(echo.submit(v));
    gate.open();
    for (int v = 0; v <= 10; ++v)
        EXPECT_EQ(futs[v].get(), 2 * v);
    echo.plane.drain();
    // Ten queued jobs behind a window of 4: greedy passes of 4, 4, 2.
    EXPECT_EQ(echo.groupSizes(), (std::vector<size_t>{1, 4, 4, 2}));
}

TEST_F(WorkPlaneTest, CloseFailsQueuedJobsWithServiceShutdown)
{
    Echo echo(shape(1, 1));
    Gate gate;
    echo.onGroup = gate.hook();

    std::vector<std::future<int>> futs;
    futs.push_back(echo.submit(0));
    gate.entered.get_future().wait();
    for (int v = 1; v <= 5; ++v)
        futs.push_back(echo.submit(v));

    std::thread closer([&] { echo.plane.close(); });
    // Wait until close() has begun, then let the held pass finish.
    for (;;) {
        try {
            echo.plane.checkOpen();
            std::this_thread::yield();
        } catch (const ServiceShutdown &) {
            break;
        }
    }
    gate.open();
    closer.join();

    EXPECT_EQ(futs[0].get(), 0); // already in a pass: finishes
    for (int v = 1; v <= 5; ++v)
        EXPECT_THROW(futs[v].get(), ServiceShutdown) << v;
    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.completed, 6u);
    EXPECT_EQ(s.failures, 5u);
    EXPECT_EQ(echo.tenant.signFailures.load(), 5u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
    EXPECT_THROW(echo.submit(7), ServiceShutdown);
    EXPECT_EQ(echo.plane.snapshot().submitted, 6u);

    // A producer that passed checkOpen() just before close() began
    // still reaches the queue: the push refuses it, and the ledger
    // and the admission budget stay balanced.
    EXPECT_THROW(echo.plane.submit(echo.tenant, "t",
                                   [](EchoJob &job) { job.value = 8; }),
                 ServiceShutdown);
    const PlaneSnapshot raced = echo.plane.snapshot();
    EXPECT_EQ(raced.submitted, 7u);
    EXPECT_EQ(raced.completed, 7u);
    EXPECT_EQ(raced.failures, 6u);
    EXPECT_EQ(echo.tenant.signFailures.load(), 6u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

TEST_F(WorkPlaneTest, DestructionCompletesQueuedJobs)
{
    auto echo = std::make_unique<Echo>(shape(1, 1));
    Gate gate;
    echo->onGroup = gate.hook();

    std::vector<std::future<int>> futs;
    futs.push_back(echo->submit(0));
    gate.entered.get_future().wait();
    for (int v = 1; v <= 5; ++v)
        futs.push_back(echo->submit(v));

    std::thread killer([&] { echo.reset(); });
    std::this_thread::sleep_for(20ms); // let teardown close the queue
    gate.open();
    killer.join();
    for (int v = 0; v <= 5; ++v)
        EXPECT_EQ(futs[v].get(), 2 * v) << v;
}

TEST_F(WorkPlaneTest, PastDeadlineFailsAndCountsExpired)
{
    Echo echo(shape(1, 4));
    auto late = echo.submit(1, std::chrono::steady_clock::now() - 1s);
    auto on_time =
        echo.submit(2, std::chrono::steady_clock::now() + 1h);
    EXPECT_THROW(late.get(), DeadlineExceeded);
    EXPECT_EQ(on_time.get(), 4);
    echo.plane.drain();

    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.failures, 1u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
    // No work was spent on the expired job.
    size_t processed = 0;
    for (size_t n : echo.groupSizes())
        processed += n;
    EXPECT_EQ(processed, 1u);
}

TEST_F(WorkPlaneTest, WorkerThrowFailsThePassAndRestartsInPlace)
{
    FaultPlan plan;
    FaultRule &rule = plan.rule(FaultPoint::WorkerThrow);
    rule.active = true;
    rule.max = 1;
    FaultInjector::instance().arm(plan);

    Echo echo(shape(2, 4));
    EXPECT_THROW(echo.submit(1).get(), FaultInjected);
    EXPECT_EQ(echo.submit(2).get(), 4); // the pool still serves
    echo.plane.drain();
    FaultInjector::instance().disarm();

    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.restarts, 1u);
    EXPECT_EQ(s.failures, 1u);
    EXPECT_EQ(echo.plane.workers(), 2u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

TEST_F(WorkPlaneTest, SupervisionFailsOnlyUnsettledJobsOfThePass)
{
    Echo echo(shape(1, 4));
    Gate gate;
    echo.onGroup = gate.hook();

    auto first = echo.submit(0);
    gate.entered.get_future().wait();
    // One pass of three: 3 settles, then -1 throws out of process().
    auto settled = echo.submit(3);
    auto thrower = echo.submit(-1);
    auto behind = echo.submit(5);
    gate.open();

    EXPECT_EQ(first.get(), 0);
    EXPECT_EQ(settled.get(), 6); // kept its value
    EXPECT_THROW(thrower.get(), std::runtime_error);
    EXPECT_THROW(behind.get(), std::runtime_error);
    EXPECT_EQ(echo.submit(4).get(), 8); // the worker kept running
    echo.plane.drain();

    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.restarts, 1u);
    EXPECT_EQ(s.failures, 2u);
    EXPECT_EQ(s.completed, 5u);
    EXPECT_EQ(echo.plane.workers(), 1u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

// Idle workers wait on the queue without a timeout, so a lost wakeup
// fails a round's 30 s wait here.
TEST_F(WorkPlaneTest, IdleWorkersWakeForEveryJob)
{
    constexpr int kRounds = 2000;
    Echo echo(shape(4, 4));
    for (int i = 0; i < kRounds; ++i) {
        auto f = echo.submit(i);
        ASSERT_EQ(f.wait_for(30s), std::future_status::ready) << i;
        ASSERT_EQ(f.get(), 2 * i);
    }
    // The plane is idle: close() must wake every parked worker, or
    // its join never returns.
    echo.plane.close();
    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.completed, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(s.failures, 0u);
}

TEST_F(WorkPlaneTest, SnapshotLedgerStaysExactUnderFourProducers)
{
    constexpr unsigned kProducers = 4;
    constexpr int kPerProducer = 500;
    Echo echo(shape(4, 4));

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const PlaneSnapshot s = echo.plane.snapshot();
            const uint64_t in_flight = s.submitted - s.completed;
            ASSERT_LE(s.completed, s.submitted);
            ASSERT_LE(s.queueDepth, in_flight);
            ASSERT_LE(s.failures, s.submitted);
        }
    });

    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            const int base = static_cast<int>(t) * 1000;
            std::vector<std::future<int>> futs;
            for (int i = 0; i < kPerProducer; ++i)
                futs.push_back(echo.submit(base + i));
            for (int i = 0; i < kPerProducer; ++i)
                EXPECT_EQ(futs[i].get(), 2 * (base + i));
        });
    }
    for (auto &th : producers)
        th.join();
    echo.plane.drain();
    stop.store(true, std::memory_order_relaxed);
    sampler.join();

    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.submitted, kProducers * kPerProducer);
    EXPECT_EQ(s.completed, s.submitted);
    EXPECT_EQ(s.failures, 0u);
    EXPECT_EQ(s.queueDepth, 0u);
    EXPECT_GT(s.wallUs, 0.0);
    EXPECT_EQ(echo.plane.pending(), 0u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

// Lending idle workers: one job's bands through runBands().

TEST_F(WorkPlaneTest, IdleFourWorkerPlaneLendsUpToThreeHelpers)
{
    Count started;
    Echo echo(shape(4, 1));
    echo.capBands = true;
    const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
    // From this thread no pass runs anywhere, so once all four workers
    // wait on the queue the plane offers min(4, hw) of them.
    const auto until = std::chrono::steady_clock::now() + 30s;
    while (echo.plane.idleHelpers() < std::min(4u, hw) &&
           std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(1ms);
    ASSERT_EQ(echo.plane.idleHelpers(), std::min(4u, hw));

    // Every band waits until all have started, so each helper the
    // owner was offered must have claimed one, on its own thread.
    const unsigned lent = std::min(3u, hw - 1);
    echo.onBand = [&](unsigned) {
        started.add();
        EXPECT_TRUE(started.waitFor(1 + lent));
    };
    EXPECT_EQ(echo.submit(1, {}, 4).get(), 2);
    EXPECT_EQ(echo.helpersSeen.load(), lent);
    EXPECT_EQ(echo.helpedBands.load(), lent);
    EXPECT_EQ(echo.bandThread(0), echo.worker(1));
    std::set<std::thread::id> threads;
    for (unsigned b = 0; b <= lent; ++b)
        threads.insert(echo.bandThread(b));
    EXPECT_EQ(threads.size(), 1 + lent);
}

TEST_F(WorkPlaneTest, BusyPlaneRunsEveryBandOnTheOwnerWithoutWaiting)
{
    std::atomic<bool> hold{true};
    std::promise<void> release;
    std::shared_future<void> go = release.get_future().share();
    Count held;
    Echo echo(shape(4, 1));
    echo.onGroup = [&] {
        if (hold.load()) {
            held.add();
            go.wait();
        }
    };
    std::vector<std::future<int>> futs;
    for (int v = 1; v <= 3; ++v)
        futs.push_back(echo.submit(v));
    ASSERT_TRUE(held.waitFor(3));
    hold.store(false);

    // Three workers are held: nobody can help, and the owner takes
    // back and runs all four bands while they are still held.
    auto banded = echo.submit(10, {}, 4);
    ASSERT_EQ(banded.wait_for(30s), std::future_status::ready);
    EXPECT_EQ(banded.get(), 20);
    EXPECT_EQ(echo.helpersSeen.load(), 0u);
    EXPECT_EQ(echo.helpedBands.load(), 0u);
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_EQ(echo.bandThread(b), echo.worker(10)) << b;

    release.set_value();
    for (int v = 1; v <= 3; ++v)
        EXPECT_EQ(futs[v - 1].get(), 2 * v);
}

TEST_F(WorkPlaneTest, ThrowingBandFailsItsJobOnceAndTheHelperServesOn)
{
    // Declared before the plane: its workers use them until joined.
    Count started;
    std::promise<void> next_done;
    std::shared_future<void> next = next_done.get_future().share();
    Echo echo(shape(2, 1));
    echo.onBand = [&](unsigned b) {
        started.add();
        if (b == 0) {
            EXPECT_TRUE(started.waitFor(2)); // band 1 is on the helper
        }
        if (b == 1)
            throw std::runtime_error("echo: band 1");
    };
    // The owner stays in its pass until the next job is done, so only
    // the helper can take it.
    echo.afterBands = [&] { next.wait_for(30s); };

    auto banded = echo.submit(1, {}, 2);
    EXPECT_THROW(banded.get(), std::runtime_error);
    auto queued = echo.submit(5);
    ASSERT_EQ(queued.wait_for(30s), std::future_status::ready);
    EXPECT_EQ(queued.get(), 10);
    next_done.set_value();
    echo.plane.drain();

    EXPECT_EQ(echo.worker(5), echo.bandThread(1));
    EXPECT_NE(echo.worker(5), echo.worker(1));
    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.restarts, 0u);
    EXPECT_EQ(s.failures, 1u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(echo.tenant.signFailures.load(), 1u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

TEST_F(WorkPlaneTest, CloseWithClaimedBandsFinishesThemAndSettlesOnce)
{
    Count started;
    std::promise<void> release;
    std::shared_future<void> go = release.get_future().share();
    Echo echo(shape(2, 1));
    echo.onBand = [&](unsigned b) {
        started.add();
        if (b == 0) {
            EXPECT_TRUE(started.waitFor(2));
        }
        if (b == 1)
            go.wait();
    };
    auto banded = echo.submit(3, {}, 2);
    ASSERT_TRUE(started.waitFor(2));
    auto queued = echo.submit(4); // both workers are in the job

    std::thread closer([&] { echo.plane.close(); });
    for (;;) {
        try {
            echo.plane.checkOpen();
            std::this_thread::yield();
        } catch (const ServiceShutdown &) {
            break;
        }
    }
    release.set_value();
    closer.join();

    EXPECT_EQ(banded.get(), 6); // in a pass: finishes
    EXPECT_THROW(queued.get(), ServiceShutdown);
    EXPECT_EQ(echo.helpedBands.load(), 1u);
    const PlaneSnapshot s = echo.plane.snapshot();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.failures, 1u);
    EXPECT_EQ(s.restarts, 0u);
    EXPECT_EQ(echo.admission.pendingTotal(), 0u);
}

TEST_F(WorkPlaneTest, JobQueuedWhileEveryHelperRunsABandIsTakenOnReturn)
{
    Count started;
    std::promise<void> submitted;
    std::shared_future<void> queued_now = submitted.get_future().share();
    std::promise<void> next_done;
    std::shared_future<void> next = next_done.get_future().share();
    Echo echo(shape(2, 1));
    echo.onBand = [&](unsigned b) {
        started.add();
        if (b == 0) {
            EXPECT_TRUE(started.waitFor(2));
        }
        if (b == 1)
            queued_now.wait();
    };
    echo.afterBands = [&] { next.wait_for(30s); };

    auto banded = echo.submit(1, {}, 2);
    ASSERT_TRUE(started.waitFor(2));
    // No worker waits on the queue now: the push's wakeup reaches
    // nobody, and the helper must find the job when its band returns.
    auto queued = echo.submit(7);
    submitted.set_value();
    ASSERT_EQ(queued.wait_for(30s), std::future_status::ready);
    EXPECT_EQ(queued.get(), 14);
    next_done.set_value();
    EXPECT_EQ(banded.get(), 2);
    EXPECT_EQ(echo.worker(7), echo.bandThread(1));
}
