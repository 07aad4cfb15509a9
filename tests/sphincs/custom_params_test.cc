/**
 * @file
 * Generality tests on custom (non-standard) parameter sets: the
 * library is not hard-wired to the three -f presets. Small sets make
 * exhaustive end-to-end checks cheap, including cross-validation of
 * the signer and the GPU-simulated engine against the spec oracle.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "oracle_ref.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

Params
miniParams(unsigned n, unsigned h, unsigned d, unsigned a, unsigned k)
{
    Params p;
    p.name = "mini-" + std::to_string(n * 8) + "-" + std::to_string(h);
    p.n = n;
    p.fullHeight = h;
    p.layers = d;
    p.forsHeight = a;
    p.forsTrees = k;
    p.wotsW = 16;
    return p;
}

} // namespace

class CustomParams : public ::testing::TestWithParam<Params>
{
};

TEST_P(CustomParams, Validates)
{
    EXPECT_NO_THROW(GetParam().validate());
}

TEST_P(CustomParams, SignVerifyRoundtrip)
{
    const Params p = GetParam();
    SphincsPlus scheme(p);
    Rng rng(808);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(24);
    ByteVec sig = scheme.sign(msg, kp.sk);
    EXPECT_EQ(sig.size(), p.sigBytes());
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk));
    msg[0] ^= 1;
    EXPECT_FALSE(scheme.verify(msg, sig, kp.pk));
}

TEST_P(CustomParams, ManyMessagesAllVerify)
{
    const Params p = GetParam();
    SphincsPlus scheme(p);
    Rng rng(809);
    auto kp = scheme.keygen(rng);
    for (int i = 0; i < 8; ++i) {
        ByteVec msg = rng.bytes(1 + i * 3);
        ByteVec sig = scheme.sign(msg, kp.sk);
        EXPECT_TRUE(scheme.verify(msg, sig, kp.pk)) << "msg " << i;
    }
}

TEST_P(CustomParams, EngineMatchesReference)
{
    const Params p = GetParam();
    SphincsPlus scheme(p);
    Rng rng(810);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(16);

    core::SignEngine engine(p, gpu::DeviceProps::rtx4090(),
                            core::EngineConfig::hero());
    auto outcome = engine.sign(msg, kp.sk);
    const ByteVec ref = oracle::oracleSign(kp.sk, msg);
    EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref)) << p.name;
    EXPECT_EQ(hexEncode(scheme.sign(msg, kp.sk)), hexEncode(ref))
        << p.name;
    EXPECT_TRUE(scheme.verify(msg, outcome.signature, kp.pk));
}

TEST_P(CustomParams, BaselineEngineMatchesReference)
{
    const Params p = GetParam();
    SphincsPlus scheme(p);
    Rng rng(811);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(8);

    core::SignEngine engine(p, gpu::DeviceProps::rtx2080ti(),
                            core::EngineConfig::baseline());
    auto outcome = engine.sign(msg, kp.sk);
    EXPECT_EQ(hexEncode(outcome.signature),
              hexEncode(oracle::oracleSign(kp.sk, msg)))
        << p.name;
}

INSTANTIATE_TEST_SUITE_P(MiniSets, CustomParams,
    ::testing::Values(
        // n, h, d, a, k — small hypertrees and forests.
        miniParams(16, 6, 3, 4, 8),
        miniParams(16, 8, 4, 5, 6),
        miniParams(24, 6, 2, 4, 10),
        miniParams(32, 8, 2, 6, 4),
        miniParams(16, 9, 3, 6, 33),
        miniParams(24, 10, 5, 8, 3)),
    [](const ::testing::TestParamInfo<Params> &info) {
        std::string n = info.param.name;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(CustomParams, SignatureSizeScalesWithParameters)
{
    // More FORS trees, taller hypertrees, larger n -> strictly larger
    // signatures.
    Params small = miniParams(16, 6, 3, 4, 8);
    Params more_trees = miniParams(16, 6, 3, 4, 12);
    Params taller = miniParams(16, 9, 3, 4, 8);
    Params wider = miniParams(24, 6, 3, 4, 8);
    EXPECT_LT(small.sigBytes(), more_trees.sigBytes());
    EXPECT_LT(small.sigBytes(), taller.sigBytes());
    EXPECT_LT(small.sigBytes(), wider.sigBytes());
}

TEST(CustomParams, CrossSetSignaturesDoNotVerify)
{
    // A signature under one mini set must not verify under another
    // with the same key material length.
    Params a = miniParams(16, 6, 3, 4, 8);
    Params b = miniParams(16, 6, 3, 4, 12);
    SphincsPlus sa(a), sb(b);
    Rng rng(812);
    auto kp = sa.keygen(rng);
    ByteVec msg = rng.bytes(16);
    ByteVec sig = sa.sign(msg, kp.sk);

    PublicKey pk_b;
    pk_b.params = b;
    pk_b.pkSeed = kp.pk.pkSeed;
    pk_b.pkRoot = kp.pk.pkRoot;
    EXPECT_FALSE(sb.verify(msg, sig, pk_b)); // wrong length: rejected
}
