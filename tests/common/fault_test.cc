/**
 * @file
 * The deterministic fault-injection layer: plan grammar, firing
 * schedules, the quarantine switchboard and the forced-scalar scope.
 * Everything here is counter-based — a fixed plan over a fixed amount
 * of work always fires the same number of times, which is what lets
 * the chaos suite assert invariants instead of probabilities.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "hash/sha256xN.hh"

using namespace herosign;

namespace
{

/** Disarm + lift quarantines so tests cannot leak into each other
 *  (the fault-matrix CI mode starts this binary with an env plan
 *  already armed). */
struct CleanInjector : ::testing::Test
{
    void SetUp() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
    }
    void TearDown() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
    }
};

using FaultPlanTest = CleanInjector;
using FaultScheduleTest = CleanInjector;
using QuarantineTest = CleanInjector;

} // namespace

TEST_F(FaultPlanTest, ParsesTheDocumentedExample)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=7;simd-lane:every=5:max=40;"
        "worker-throw:start=10:every=97;queue-stall:every=50:ms=2");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_TRUE(plan.anyActive());

    const FaultRule &simd = plan.rule(FaultPoint::SimdLane);
    EXPECT_TRUE(simd.active);
    EXPECT_EQ(simd.every, 5u);
    EXPECT_EQ(simd.start, 0u);
    EXPECT_EQ(simd.max, 40u);

    const FaultRule &wt = plan.rule(FaultPoint::WorkerThrow);
    EXPECT_TRUE(wt.active);
    EXPECT_EQ(wt.start, 10u);
    EXPECT_EQ(wt.every, 97u);
    EXPECT_EQ(wt.max, UINT64_MAX);

    const FaultRule &qs = plan.rule(FaultPoint::QueueStall);
    EXPECT_TRUE(qs.active);
    EXPECT_EQ(qs.every, 50u);
    EXPECT_EQ(qs.ms, 2u);

    EXPECT_FALSE(plan.rule(FaultPoint::HashCompress).active);
    EXPECT_FALSE(plan.rule(FaultPoint::CallbackThrow).active);
}

TEST_F(FaultPlanTest, BarePointNameActivatesWithDefaults)
{
    const FaultPlan plan = FaultPlan::parse("callback-throw");
    const FaultRule &cb = plan.rule(FaultPoint::CallbackThrow);
    EXPECT_TRUE(cb.active);
    EXPECT_EQ(cb.every, 1u);
    EXPECT_EQ(cb.start, 0u);
}

TEST_F(FaultPlanTest, WhitespaceAndEmptyClausesAreTolerated)
{
    EXPECT_FALSE(FaultPlan::parse("").anyActive());
    EXPECT_FALSE(FaultPlan::parse(" ;  ; ").anyActive());
    const FaultPlan plan =
        FaultPlan::parse("  hash-compress:every=3 ;\n seed=9 ;");
    EXPECT_TRUE(plan.rule(FaultPoint::HashCompress).active);
    EXPECT_EQ(plan.seed, 9u);
}

TEST_F(FaultPlanTest, TyposFailLoudly)
{
    // A CI fault-matrix entry with a typo must fail, not silently
    // run fault-free.
    EXPECT_THROW(FaultPlan::parse("bogus-point"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("simd-lane:flub=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("simd-lane:every=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("simd-lane:every"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=xyz"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("simd-lane:every=5x"),
                 std::invalid_argument);
    // A sign is a typo too: every=-1 would wrap to 2^64 - 1 and never
    // fire.
    EXPECT_THROW(FaultPlan::parse("worker-throw:every=-1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("queue-stall:ms=-5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=-1"), std::invalid_argument);
    // So is a missing number, which read as 0.
    EXPECT_THROW(FaultPlan::parse("queue-stall:ms="), std::invalid_argument);
}

TEST_F(FaultScheduleTest, StartEveryMaxScheduleIsExact)
{
    FaultPlan plan;
    FaultRule &rule = plan.rule(FaultPoint::HashCompress);
    rule.active = true;
    rule.start = 2;
    rule.every = 3;
    rule.max = 4;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(plan);

    // Hits 1,2 skipped (start); then every 3rd hit fires: 3,6,9,12;
    // max=4 stops it there, so 15 and 18 do not fire.
    std::vector<uint64_t> firing_hits;
    for (uint64_t hit = 1; hit <= 20; ++hit) {
        if (FaultInjector::fire(FaultPoint::HashCompress))
            firing_hits.push_back(hit);
    }
    EXPECT_EQ(firing_hits,
              (std::vector<uint64_t>{3, 6, 9, 12}));
    EXPECT_EQ(inj.hits(FaultPoint::HashCompress), 20u);
    EXPECT_EQ(inj.fired(FaultPoint::HashCompress), 4u);
    // The other points never fired or counted.
    EXPECT_EQ(inj.hits(FaultPoint::SimdLane), 0u);
}

TEST_F(FaultScheduleTest, RearmResetsCounters)
{
    FaultPlan plan;
    plan.rule(FaultPoint::WorkerThrow).active = true;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(plan);
    EXPECT_TRUE(FaultInjector::fire(FaultPoint::WorkerThrow));
    EXPECT_EQ(inj.hits(FaultPoint::WorkerThrow), 1u);
    inj.arm(plan);
    EXPECT_EQ(inj.hits(FaultPoint::WorkerThrow), 0u);
    EXPECT_EQ(inj.fired(FaultPoint::WorkerThrow), 0u);
}

TEST_F(FaultScheduleTest, DisarmedFireIsFalseAndCountsNothing)
{
    FaultPlan plan;
    plan.rule(FaultPoint::WorkerThrow).active = true;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(plan);
    inj.disarm();
    EXPECT_FALSE(FaultInjector::armed());
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(FaultInjector::fire(FaultPoint::WorkerThrow));
    EXPECT_EQ(inj.hits(FaultPoint::WorkerThrow), 0u);
}

TEST_F(FaultScheduleTest, ThrowIfFiresCarriesThePointName)
{
    FaultPlan plan;
    plan.rule(FaultPoint::CallbackThrow).active = true;
    FaultInjector::instance().arm(plan);
    try {
        FaultInjector::throwIfFires(FaultPoint::CallbackThrow);
        FAIL() << "expected FaultInjected";
    } catch (const FaultInjected &e) {
        EXPECT_NE(std::strstr(e.what(), "callback-throw"), nullptr);
    }
}

TEST_F(FaultScheduleTest, LaneChoiceIsSeededDeterministicAndBounded)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.rule(FaultPoint::SimdLane).active = true;
    FaultInjector &inj = FaultInjector::instance();
    inj.arm(plan);
    std::vector<unsigned> lanes;
    for (uint64_t i = 1; i <= 64; ++i) {
        const unsigned lane = inj.laneFor(i, 16);
        ASSERT_LT(lane, 16u);
        lanes.push_back(lane);
    }
    // Re-arming with the same seed replays the identical walk.
    inj.arm(plan);
    for (uint64_t i = 1; i <= 64; ++i)
        EXPECT_EQ(inj.laneFor(i, 16), lanes[i - 1]);
    // The walk visits more than one lane (seeded, not stuck at 0).
    EXPECT_GT(std::set<unsigned>(lanes.begin(), lanes.end()).size(),
              1u);
}

TEST_F(FaultScheduleTest, HashCompressFaultFlipsExactlyOneLane)
{
    const uint8_t block[Sha256Lanes::blockSize] = {0x5a};
    const uint8_t *data[2] = {block, block};

    uint8_t clean[2][Sha256Lanes::digestSize];
    uint8_t *cleanp[2] = {clean[0], clean[1]};
    {
        Sha256Lanes h(2);
        h.update(data, sizeof(block));
        h.final(cleanp);
    }

    FaultPlan plan;
    FaultRule &rule = plan.rule(FaultPoint::HashCompress);
    rule.active = true;
    rule.max = 1;
    FaultInjector::instance().arm(plan);
    uint8_t faulty[2][Sha256Lanes::digestSize];
    uint8_t *faultyp[2] = {faulty[0], faulty[1]};
    {
        Sha256Lanes h(2);
        h.update(data, sizeof(block));
        h.final(faultyp);
    }
    FaultInjector::instance().disarm();

    const unsigned differing =
        (std::memcmp(clean[0], faulty[0], sizeof(clean[0])) != 0) +
        (std::memcmp(clean[1], faulty[1], sizeof(clean[1])) != 0);
    EXPECT_EQ(differing, 1u);
    EXPECT_EQ(FaultInjector::instance().fired(
                  FaultPoint::HashCompress),
              1u);
}

TEST_F(QuarantineTest, QuarantineDemotesDispatchProcessWide)
{
    const LaneBackend before = laneDispatch().backend;
    const uint64_t count0 = sha256LanesQuarantineCount();
    const LaneBackend hit = sha256LanesQuarantineActiveTier();
    EXPECT_EQ(hit, before);
    if (before == LaneBackend::Scalar) {
        // Portable host (or env-pinned): nothing below to demote to.
        EXPECT_EQ(sha256LanesQuarantineCount(), count0);
        return;
    }
    EXPECT_EQ(sha256LanesQuarantineCount(), count0 + 1);
    EXPECT_NE(laneDispatch().backend, before);
    // Quarantining the same tier again is idempotent.
    sha256LanesQuarantine(before);
    EXPECT_EQ(sha256LanesQuarantineCount(), count0 + 1);
    // Another thread sees the demotion too — the switch is global.
    LaneBackend other = before;
    std::thread([&other] { other = laneDispatch().backend; }).join();
    EXPECT_NE(other, before);

    sha256LanesClearQuarantines();
    EXPECT_EQ(laneDispatch().backend, before);
}

TEST_F(QuarantineTest, Avx2QuarantineDemotesToPortableOutright)
{
    if (laneDispatch().backend != LaneBackend::Avx512)
        GTEST_SKIP() << "needs active AVX-512 dispatch";
    // The shared vector unit is suspect: an AVX2 quarantine must not
    // leave the wider tier of the same unit selectable.
    sha256LanesQuarantine(LaneBackend::Avx2);
    EXPECT_EQ(laneDispatch().backend, LaneBackend::Scalar);
    sha256LanesClearQuarantines();
}

TEST_F(QuarantineTest, ScopedScalarLanesPinsOnlyThisThread)
{
    const LaneBackend before = laneDispatch().backend;
    EXPECT_FALSE(ScopedScalarLanes::activeOnThisThread());
    {
        ScopedScalarLanes outer;
        EXPECT_TRUE(ScopedScalarLanes::activeOnThisThread());
        EXPECT_EQ(laneDispatch().backend, LaneBackend::Scalar);
        {
            ScopedScalarLanes inner; // nestable
            EXPECT_EQ(laneDispatch().backend, LaneBackend::Scalar);
        }
        EXPECT_TRUE(ScopedScalarLanes::activeOnThisThread());
        // Sibling threads keep their SIMD dispatch.
        LaneBackend other = LaneBackend::Scalar;
        std::thread([&other] { other = laneDispatch().backend; })
            .join();
        EXPECT_EQ(other, before);
    }
    EXPECT_FALSE(ScopedScalarLanes::activeOnThisThread());
    EXPECT_EQ(laneDispatch().backend, before);
}
