/**
 * @file
 * The spec oracle (tests/oracle) as the signer's reference. On its
 * own, the oracle re-derives every recorded golden digest. Then the
 * production signer must match it byte for byte at lane widths 1, 8
 * and 16 on the Table I sets, the mini set and a custom set: keygen
 * and lone signatures (SphincsPlus::sign, a SignTask group of one)
 * everywhere, ragged and full SignTask::signGroup groups on the two
 * small sets, and lone signatures cut into bands (SignTask::runBand)
 * run in reverse order on one thread: every band count and every
 * contiguous cut on the small sets, the production plans for 2..4
 * bands and a FORS-cutting plan on the Table I sets.
 * lane_scheduler_test holds the Table I sets' groups to the oracle.
 * The one test of batch::LaneScheduler, the alias the serving
 * benchmark still calls, is here too.
 */

#include <gtest/gtest.h>

#include "../batch/batch_test_util.hh"
#include "batch/lane_scheduler.hh"
#include "golden_vectors.hh"
#include "oracle_ref.hh"
#include "sphincs/sign_task.hh"

using namespace herosign;
using namespace herosign::golden;
using batchtest::ScopedWidth;
using oracle::SpxOracle;
using sphincs::Context;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/**
 * A set unlike the others: n = 32 makes every node combine two
 * blocks, 32-leaf subtrees span two leaf waves, and k = 13 FORS trees
 * fill no lane width.
 */
Params
customParams()
{
    Params p;
    p.name = "custom-32-10";
    p.n = 32;
    p.fullHeight = 10;
    p.layers = 2;
    p.forsHeight = 5;
    p.forsTrees = 13;
    p.wotsW = 16;
    p.validate();
    return p;
}

struct DiffCase
{
    Params params;
    bool groups; ///< also sign ragged and full groups
    /// Bands: every count and contiguous cut (small sets) rather than
    /// the production plans for 2..4 bands (Table I sets).
    bool everyCut;
};

using Plan = std::vector<sphincs::SignBand>;

/**
 * Every cut of the d layers into @p bands contiguous non-empty bands,
 * FORS whole in band 0; each cut also comes with the FORS trees spread
 * over the bands as evenly as they go, so layer 0 is a seam.
 */
std::vector<Plan>
everyCut(const Params &p, unsigned bands)
{
    std::vector<Plan> plans;
    std::vector<unsigned> ends(bands);
    // ends[b] is the layer band b ends before; the last is d.
    const auto recurse = [&](auto &&self, unsigned b, unsigned from) {
        if (b + 1 == bands) {
            ends[b] = p.layers;
            Plan whole, spread;
            unsigned begin = 0;
            for (unsigned i = 0; i < bands; ++i) {
                whole.push_back({i == 0 ? 0 : p.forsTrees, p.forsTrees,
                                 begin, ends[i]});
                spread.push_back({p.forsTrees * i / bands,
                                  p.forsTrees * (i + 1) / bands, begin,
                                  ends[i]});
                begin = ends[i];
            }
            plans.push_back(whole);
            plans.push_back(spread);
            return;
        }
        for (unsigned e = from + 1; e + (bands - 1 - b) <= p.layers; ++e) {
            ends[b] = e;
            self(self, b + 1, e);
        }
    };
    recurse(recurse, 0, 0);
    return plans;
}

/** Sign @p msg as @p plan's bands, run last to first on this thread. */
ByteVec
signInBands(const Context &ctx, const sphincs::SecretKey &sk,
            const ByteVec &msg, const ByteVec &opt_rand, const Plan &plan)
{
    sphincs::SignTask task(ctx, sk, msg, opt_rand);
    for (auto band = plan.rbegin(); band != plan.rend(); ++band)
        task.runBand(*band);
    task.joinBands(plan);
    return task.takeSignature();
}

class SpecOracleGolden : public ::testing::TestWithParam<GoldenVector>
{
};

class SpecOracleDiff : public ::testing::TestWithParam<DiffCase>
{
};

} // namespace

TEST_P(SpecOracleGolden, ReproducesRecordedVectors)
{
    const GoldenVector &g = GetParam();
    const Params &p = Params::byName(g.name);
    const ByteVec seed = fixedSeed(p);
    const ByteSpan sk_seed(seed.data(), p.n);
    const ByteSpan sk_prf(seed.data() + p.n, p.n);
    const ByteSpan pk_seed(seed.data() + 2 * p.n, p.n);
    const SpxOracle spx(p, pk_seed, sk_seed);

    const ByteVec pk_root = spx.pkRoot();
    EXPECT_EQ(hexEncode(pk_root), g.pkRootHex);

    const ByteVec msg = fixedMsg();
    const ByteVec sig = spx.sign(msg, sk_prf, pk_root);
    ASSERT_EQ(sig.size(), p.sigBytes());
    EXPECT_EQ(sigDigestHex(sig), g.sigSha256Hex);
    EXPECT_TRUE(spx.verify(msg, sig, pk_root));

    const ByteVec opt_sig =
        spx.sign(msg, sk_prf, pk_root, fixedOptRand(p));
    EXPECT_EQ(sigDigestHex(opt_sig), g.optSigSha256Hex);
    EXPECT_TRUE(spx.verify(msg, opt_sig, pk_root));

    ByteVec bad = sig;
    bad[bad.size() / 2] ^= 0x01;
    EXPECT_FALSE(spx.verify(msg, bad, pk_root));
}

INSTANTIATE_TEST_SUITE_P(TableI, SpecOracleGolden,
                         ::testing::ValuesIn(goldens),
                         [](const auto &info) {
                             return goldenName(info.param);
                         });

TEST_P(SpecOracleDiff, ProductionMatchesOracleAtEveryWidth)
{
    const Params p = GetParam().params;
    const unsigned count = GetParam().groups ? 16 : 2;
    const SphincsPlus scheme(p);
    const ByteVec seed = batchtest::fixedSeed(p, 0x11);
    const std::vector<ByteVec> msgs = batchtest::patternBatch(count, 33);
    std::vector<ByteVec> rands;
    for (unsigned i = 0; i < msgs.size(); ++i)
        rands.push_back(i % 2 ? ByteVec(p.n, static_cast<uint8_t>(i))
                              : ByteVec{});

    const auto want_kp = scheme.keygenFromSeed(seed);
    EXPECT_EQ(oracle::oraclePkRoot(want_kp.sk), want_kp.pk.pkRoot);
    std::vector<ByteVec> want;
    for (unsigned i = 0; i < msgs.size(); ++i)
        want.push_back(oracle::oracleSign(want_kp.sk, msgs[i], rands[i]));

    for (unsigned width : {1u, 8u, 16u}) {
        ScopedWidth w(width);
        const auto kp = scheme.keygenFromSeed(seed);
        EXPECT_EQ(kp.pk.pkRoot, want_kp.pk.pkRoot)
            << p.name << " width " << width;

        // Lone signatures, deterministic and randomized.
        for (unsigned i = 0; i < 2; ++i) {
            const ByteVec sig = scheme.sign(msgs[i], kp.sk, rands[i]);
            EXPECT_EQ(sig, want[i]) << p.name << " width " << width;
            EXPECT_TRUE(scheme.verify(msgs[i], sig, kp.pk));
        }

        // Lone signatures in bands.
        const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
        std::vector<Plan> plans;
        if (GetParam().everyCut) {
            for (unsigned b = 1; b <= p.layers; ++b)
                for (Plan &plan : everyCut(p, b))
                    plans.push_back(std::move(plan));
        } else {
            for (unsigned b = 2; b <= 4; ++b)
                plans.push_back(sphincs::SignTask::planBands(p, b));
            // Half the FORS trees and half the layers per band.
            plans.push_back({{0, p.forsTrees / 2, 0, p.layers / 2},
                             {p.forsTrees / 2, p.forsTrees, p.layers / 2,
                              p.layers}});
        }
        for (size_t c = 0; c < plans.size(); ++c) {
            for (unsigned i = 0; i < 2; ++i)
                EXPECT_EQ(signInBands(ctx, kp.sk, msgs[i], rands[i],
                                      plans[c]),
                          want[i])
                    << p.name << " width " << width << " plan " << c
                    << " of " << plans[c].size() << " bands, msg " << i;
        }

        if (!GetParam().groups)
            continue;
        // A ragged group and a full one.
        for (unsigned group : {5u, 16u}) {
            std::vector<ByteSpan> msg_spans, rand_spans;
            for (unsigned i = 0; i < group; ++i) {
                msg_spans.emplace_back(msgs[i]);
                rand_spans.emplace_back(rands[i]);
            }
            std::vector<ByteVec> got(group);
            sphincs::SignTask::signGroup(ctx, kp.sk, msg_spans.data(),
                                         rand_spans.data(), got.data(),
                                         group);
            for (unsigned i = 0; i < group; ++i)
                EXPECT_EQ(got[i], want[i])
                    << p.name << " width " << width << " group " << group
                    << " msg " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sets, SpecOracleDiff,
    ::testing::Values(DiffCase{Params::sphincs128f(), false, false},
                      DiffCase{Params::sphincs192f(), false, false},
                      DiffCase{Params::sphincs256f(), false, false},
                      DiffCase{batchtest::miniParams(), true, true},
                      DiffCase{customParams(), true, true}),
    [](const auto &info) {
        std::string name = info.param.params.name;
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

// The production plans: contiguous tiles, balanced in layer units,
// FORS whole at 128f (so band 0 captures layer 0) and cut in lane
// groups at 192f and 256f once it outweighs a band's share.
TEST(SignBandPlan, TilesInLaneGroupsAndKeepsLightForsWhole)
{
    for (unsigned width : {8u, 16u}) {
        ScopedWidth w(width);
        // The dispatched width: a runtime pin may hold it below 16.
        const unsigned lanes = sphincs::hashLaneWidth();
        for (const Params &p : Params::all()) {
            for (unsigned b = 1; b <= 6; ++b) {
                const Plan plan = sphincs::SignTask::planBands(p, b);
                ASSERT_EQ(plan.size(), b) << p.name;
                unsigned fors = 0, layer = 0;
                for (const sphincs::SignBand &band : plan) {
                    EXPECT_EQ(band.forsBegin, fors);
                    EXPECT_EQ(band.layerBegin, layer);
                    EXPECT_TRUE(band.forsEnd > band.forsBegin ||
                                band.layerEnd > band.layerBegin);
                    EXPECT_TRUE(band.forsEnd == p.forsTrees ||
                                band.forsEnd % lanes == 0)
                        << p.name << " cuts FORS inside a lane group";
                    fors = band.forsEnd;
                    layer = band.layerEnd;
                }
                EXPECT_EQ(fors, p.forsTrees);
                EXPECT_EQ(layer, p.layers);
            }
        }
        // 128f: FORS (about 2.5 layers of time) stays in band 0 with
        // the first layers; 22 layers in 3 bands go 6 + 8 + 8.
        const Plan p128 =
            sphincs::SignTask::planBands(Params::sphincs128f(), 3);
        EXPECT_EQ(p128[0].forsEnd, Params::sphincs128f().forsTrees);
        EXPECT_EQ(p128[0].layerBegin, 0u);
        EXPECT_EQ(p128[0].layerEnd, 6u);
        EXPECT_EQ(p128[1].layerEnd, 14u);
        // 192f and 256f at 4 bands: FORS (9.1 / 7.3 layers) exceeds a
        // quarter, so band 0 no longer holds every tree.
        for (const Params *p :
             {&Params::sphincs192f(), &Params::sphincs256f()}) {
            const Plan plan = sphincs::SignTask::planBands(*p, 4);
            EXPECT_LT(plan[0].forsEnd, p->forsTrees) << p->name;
        }
    }
    // More bands than work units: one unit per band.
    const Params mini = batchtest::miniParams();
    EXPECT_EQ(sphincs::SignTask::planBands(mini, 99).size(),
              mini.layers + 1);
    EXPECT_EQ(sphincs::SignTask::planBands(mini, 0).size(), 1u);
}

TEST(SignBandPlan, JoinRejectsPlansThatDoNotTile)
{
    const Params p = batchtest::miniParams();
    const SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
    const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
    const ByteVec msg = batchtest::patternMsg(16);
    const unsigned k = p.forsTrees, d = p.layers;

    sphincs::SignTask task(ctx, kp.sk, msg);
    EXPECT_THROW(task.runBand({0, k + 1, 0, 1}), std::invalid_argument);
    EXPECT_THROW(task.runBand({0, k, 1, d + 1}), std::invalid_argument);
    for (const Plan &bad : {Plan{{0, k, 0, 1}},            // a gap
                            Plan{{0, k, 0, 2}, {k, k, 1, d}}, // overlap
                            Plan{{0, k - 1, 0, d}}}) {     // no FORS end
        sphincs::SignTask t(ctx, kp.sk, msg);
        for (const sphincs::SignBand &band : bad)
            t.runBand(band);
        EXPECT_THROW(t.joinBands(bad), std::invalid_argument);
        EXPECT_THROW(t.takeSignature(), std::logic_error);
    }
}

// batch::LaneScheduler stays only for the serving benchmark; this is
// the one test that still compiles it. A ragged group through its
// signGroup must equal the oracle, and preferredGroup() is the lane
// width.
TEST(LaneSchedulerAlias, ForwardsToSignGroup)
{
    const Params p = batchtest::miniParams();
    const SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
    const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    constexpr unsigned group = 5;
    const std::vector<ByteVec> msgs = batchtest::patternBatch(group);
    const std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<ByteVec> got(group);
    batch::LaneScheduler::signGroup(ctx, kp.sk, spans.data(), nullptr,
                                    got.data(), group);
    for (unsigned i = 0; i < group; ++i)
        EXPECT_EQ(got[i], oracle::oracleSign(kp.sk, msgs[i])) << i;

    EXPECT_EQ(batch::LaneScheduler::preferredGroup(),
              sphincs::hashLaneWidth());
}
