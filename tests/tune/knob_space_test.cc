/**
 * @file
 * KnobSpace: the default config IS the hand-set baseline, the
 * standard space is well-formed and hardware-derived, point/config
 * mappings round-trip, the annealing move is valid and replayable,
 * and clamp() mirrors the consuming constructors exactly.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "batch/lane_scheduler.hh"
#include "common/random.hh"
#include "tune/knob_space.hh"

using namespace herosign;
using tune::Knob;
using tune::KnobConfig;
using tune::KnobSpace;

TEST(KnobConfig, DefaultsEqualHandSetBaseline)
{
    const KnobConfig k;
    const service::ServiceConfig s = k.toServiceConfig();
    const service::ServiceConfig hand;
    EXPECT_EQ(s.workers, hand.workers);
    EXPECT_EQ(s.shards, hand.shards);
    EXPECT_EQ(s.signCoalesce, hand.signCoalesce);
    EXPECT_EQ(s.verifyWorkers, hand.verifyWorkers);
    EXPECT_EQ(s.verifyShards, hand.verifyShards);
    EXPECT_EQ(s.verifyCoalesce, hand.verifyCoalesce);
    EXPECT_EQ(s.contextCacheCapacity, hand.contextCacheCapacity);
}

TEST(KnobSpace, StandardSpaceIsWellFormed)
{
    const KnobSpace space = KnobSpace::standard(4, 16);
    ASSERT_EQ(space.dims(), 7u);
    size_t product = 1;
    for (const Knob &k : space.knobs()) {
        ASSERT_FALSE(k.values.empty()) << k.name;
        EXPECT_TRUE(std::is_sorted(k.values.begin(), k.values.end()))
            << k.name;
        EXPECT_EQ(std::set<unsigned>(k.values.begin(),
                                     k.values.end())
                      .size(),
                  k.values.size())
            << k.name << " has duplicate values";
        product *= k.values.size();
    }
    EXPECT_EQ(space.size(), product);

    // The sign coalescing axis never exceeds the lockstep bound.
    const Knob &sign_co = space.knobs()[2];
    EXPECT_EQ(sign_co.name, "sign_coalesce");
    EXPECT_LE(sign_co.values.back(), batch::LaneScheduler::maxGroup);

    // Worker axes reach the mild-oversubscription cap.
    EXPECT_EQ(space.knobs()[0].name, "sign_workers");
    EXPECT_EQ(space.knobs()[0].values.back(), 8u);
    EXPECT_EQ(space.knobs()[0].values.front(), 1u);
}

TEST(KnobSpace, HardwareBoundsScaleTheWorkerAxis)
{
    const KnobSpace big = KnobSpace::standard(32, 8);
    EXPECT_EQ(big.knobs()[0].values.back(), 64u);
    // Degenerate hardware report: still a usable ladder.
    const KnobSpace tiny = KnobSpace::standard(1, 8);
    EXPECT_EQ(tiny.knobs()[0].values.front(), 1u);
    EXPECT_GE(tiny.knobs()[0].values.size(), 2u);
}

TEST(KnobSpace, PointConfigRoundTrip)
{
    const KnobSpace space = KnobSpace::standard(4, 16);
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
        const KnobSpace::Point pt = space.randomPoint(rng);
        for (size_t d = 0; d < space.dims(); ++d)
            ASSERT_LT(pt[d], space.knobs()[d].values.size());
        // Axis values are unique, so nearest inverts configAt.
        EXPECT_EQ(space.nearestPoint(space.configAt(pt)), pt);
    }
}

TEST(KnobSpace, DefaultPointDenotesTheBaseline)
{
    const KnobSpace space = KnobSpace::standard(4, 16);
    const KnobConfig def = space.configAt(space.defaultPoint());
    // Worker/shard/capacity baselines are on their axes verbatim;
    // the 0 = auto coalescing windows resolve to their effective
    // widths (sign: lane width 16, verify: 4x = 64), so the denoted
    // config behaves exactly like ServiceConfig{}.
    EXPECT_EQ(def.signWorkers, 4u);
    EXPECT_EQ(def.signShards, 4u);
    EXPECT_EQ(def.signCoalesce, 16u);
    EXPECT_EQ(def.verifyWorkers, 2u);
    EXPECT_EQ(def.verifyShards, 2u);
    EXPECT_EQ(def.verifyCoalesce, 64u);
    EXPECT_EQ(def.cacheCapacity, 64u);
}

TEST(KnobSpace, NeighborMovesExactlyOneKnobToAValidSlot)
{
    const KnobSpace space = KnobSpace::standard(4, 16);
    Rng rng(7);
    KnobSpace::Point pt = space.defaultPoint();
    for (int i = 0; i < 200; ++i) {
        const KnobSpace::Point next = space.neighbor(pt, rng);
        size_t changed = 0;
        for (size_t d = 0; d < space.dims(); ++d) {
            ASSERT_LT(next[d], space.knobs()[d].values.size());
            if (next[d] != pt[d])
                ++changed;
        }
        EXPECT_EQ(changed, 1u);
        pt = next;
    }
}

TEST(KnobSpace, NeighborWalkReplaysUnderTheSameSeed)
{
    const KnobSpace space = KnobSpace::standard(4, 16);
    Rng a(99), b(99);
    KnobSpace::Point pa = space.defaultPoint(), pb = pa;
    for (int i = 0; i < 100; ++i) {
        pa = space.neighbor(pa, a);
        pb = space.neighbor(pb, b);
        ASSERT_EQ(pa, pb) << "walks diverged at step " << i;
    }
}

TEST(KnobSpace, ClampMirrorsTheConstructors)
{
    KnobConfig bad;
    bad.signWorkers = 0;
    bad.signShards = 0;
    bad.verifyWorkers = 0;
    bad.verifyShards = 0;
    bad.cacheCapacity = 0;
    bad.signCoalesce = 33; // beyond the lockstep bound
    const KnobConfig c = KnobSpace::clamp(bad);
    EXPECT_EQ(c.signWorkers, 1u);
    EXPECT_EQ(c.signShards, 1u);
    EXPECT_EQ(c.verifyWorkers, 1u);
    EXPECT_EQ(c.verifyShards, 1u);
    EXPECT_EQ(c.cacheCapacity, 1u);
    EXPECT_EQ(c.signCoalesce, batch::LaneScheduler::maxGroup);

    // 0 = auto survives clamping; in-range values pass through.
    KnobConfig ok;
    ok.signCoalesce = 0;
    EXPECT_EQ(KnobSpace::clamp(ok), ok);
}

TEST(KnobConfig, LabelIsCompactAndComplete)
{
    KnobConfig k;
    k.signWorkers = 2;
    k.signShards = 1;
    k.signCoalesce = 16;
    k.verifyWorkers = 3;
    k.verifyShards = 5;
    k.verifyCoalesce = 64;
    k.cacheCapacity = 4;
    EXPECT_EQ(k.label(), "w2/s1/c16 vw3/vs5/vc64 cap4");
}
