/**
 * @file
 * Golden-vector fixtures for the SPHINCS+ signer: for every parameter
 * set, a keypair expanded from a fixed seed and a deterministic and an
 * opt_rand signature over a fixed message are pinned to recorded
 * digests (tests/sphincs/golden_vectors.hh).
 *
 * This is a non-interoperable instantiation: 192f and 256f use
 * SHA-256 for every function where SPHINCS+ r3.1 and FIPS 205 use
 * SHA-512, so no official KAT applies, and none is available offline
 * either. The vectors were recorded from this implementation; what
 * keeps them honest is the spec oracle (tests/oracle), a separate
 * transcription of the r3.1 pseudo-code that re-derives all nine
 * digests on its own in spec_oracle_test. The hash substrate under
 * both is KAT-validated in tests/hash/hash_kat_test.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "golden_vectors.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::golden;
using sphincs::Params;
using sphincs::SphincsPlus;

class GoldenSign : public ::testing::TestWithParam<GoldenVector>
{
};

TEST_P(GoldenSign, KeygenAndSignMatchRecordedVectors)
{
    const GoldenVector &g = GetParam();
    const Params &p = Params::byName(g.name);
    SphincsPlus scheme(p);

    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    EXPECT_EQ(hexEncode(kp.pk.pkRoot), g.pkRootHex) << p.name;
    EXPECT_EQ(kp.sk.pkRoot, kp.pk.pkRoot);
    EXPECT_EQ(kp.sk.encode().size(), p.skBytes());
    EXPECT_EQ(kp.pk.encode().size(), p.pkBytes());

    ByteVec msg = fixedMsg();
    ByteVec sig = scheme.sign(msg, kp.sk);
    ASSERT_EQ(sig.size(), p.sigBytes());
    EXPECT_EQ(sigDigestHex(sig), g.sigSha256Hex) << p.name;
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk));

    // Deterministic signing is a function: sign twice, compare.
    EXPECT_EQ(scheme.sign(msg, kp.sk), sig);

    // Randomized variant with pinned opt_rand is deterministic too.
    ByteVec optSig = scheme.sign(msg, kp.sk, fixedOptRand(p));
    EXPECT_EQ(sigDigestHex(optSig), g.optSigSha256Hex) << p.name;
    EXPECT_NE(optSig, sig);
    EXPECT_TRUE(scheme.verify(msg, optSig, kp.pk));
}

TEST_P(GoldenSign, TamperedSignatureOrMessageRejected)
{
    const GoldenVector &g = GetParam();
    const Params &p = Params::byName(g.name);
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    ByteVec msg = fixedMsg();
    ByteVec sig = scheme.sign(msg, kp.sk);

    // Flip one bit in a few spread-out positions of the signature.
    for (size_t pos : {size_t{0}, sig.size() / 2, sig.size() - 1}) {
        ByteVec bad = sig;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(scheme.verify(msg, bad, kp.pk)) << p.name;
    }

    ByteVec badMsg = msg;
    badMsg[0] ^= 0x80;
    EXPECT_FALSE(scheme.verify(badMsg, sig, kp.pk)) << p.name;

    // Truncated signature must be rejected, not crash.
    ByteVec shortSig(sig.begin(), sig.end() - 1);
    EXPECT_FALSE(scheme.verify(msg, shortSig, kp.pk)) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllParamSets, GoldenSign,
    ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<GoldenVector> &info) {
        return goldenName(info.param);
    });
