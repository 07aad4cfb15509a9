/**
 * @file
 * The spec oracle (tests/oracle) as the signer's reference. On its
 * own, the oracle re-derives every recorded golden digest. Then the
 * production signer must match it byte for byte at lane widths 1, 8
 * and 16 on the Table I sets, the mini set and a custom set: keygen
 * and lone signatures (SphincsPlus::sign, a SignTask group of one)
 * everywhere, ragged and full SignTask::signGroup groups on the two
 * small sets. lane_scheduler_test holds the Table I sets' groups to
 * the oracle. The one test of batch::LaneScheduler, the alias the
 * serving benchmark still calls, is here too.
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
};

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

        if (!GetParam().groups)
            continue;
        // A ragged group and a full one.
        const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
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
    ::testing::Values(DiffCase{Params::sphincs128f(), false},
                      DiffCase{Params::sphincs192f(), false},
                      DiffCase{Params::sphincs256f(), false},
                      DiffCase{batchtest::miniParams(), true},
                      DiffCase{customParams(), true}),
    [](const auto &info) {
        std::string name = info.param.params.name;
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

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
