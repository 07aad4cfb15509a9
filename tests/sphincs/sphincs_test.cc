/**
 * @file
 * Full-scheme tests: keygen determinism, sign/verify roundtrips for
 * all parameter sets, negative verification paths, digest splitting,
 * and key serialization.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

class SphincsRoundtrip : public ::testing::TestWithParam<const Params *>
{
  protected:
    const Params &p() const { return *GetParam(); }
};

} // namespace

TEST_P(SphincsRoundtrip, SignVerify)
{
    SphincsPlus scheme(p());
    Rng rng(60);
    KeyPair kp = scheme.keygen(rng);

    ByteVec msg = rng.bytes(64);
    ByteVec sig = scheme.sign(msg, kp.sk);
    EXPECT_EQ(sig.size(), p().sigBytes());
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk));
}

TEST_P(SphincsRoundtrip, TamperedMessageFails)
{
    SphincsPlus scheme(p());
    Rng rng(61);
    KeyPair kp = scheme.keygen(rng);

    ByteVec msg = rng.bytes(32);
    ByteVec sig = scheme.sign(msg, kp.sk);
    msg[5] ^= 0x01;
    EXPECT_FALSE(scheme.verify(msg, sig, kp.pk));
}

TEST_P(SphincsRoundtrip, TamperedSignatureFails)
{
    SphincsPlus scheme(p());
    Rng rng(62);
    KeyPair kp = scheme.keygen(rng);

    ByteVec msg = rng.bytes(32);
    ByteVec sig = scheme.sign(msg, kp.sk);

    // Corrupt one byte in several structurally distinct regions.
    const size_t offsets[] = {
        0,                                   // randomizer R
        p().n + 1,                           // FORS secret value
        p().n + p().forsSigBytes() + 3,      // first WOTS sig
        sig.size() - 1,                      // last auth path node
    };
    for (size_t off : offsets) {
        ByteVec bad = sig;
        bad[off] ^= 0x80;
        EXPECT_FALSE(scheme.verify(msg, bad, kp.pk)) << "offset " << off;
    }
}

TEST_P(SphincsRoundtrip, WrongPublicKeyFails)
{
    SphincsPlus scheme(p());
    Rng rng(63);
    KeyPair kp = scheme.keygen(rng);
    KeyPair other = scheme.keygen(rng);

    ByteVec msg = rng.bytes(32);
    ByteVec sig = scheme.sign(msg, kp.sk);
    EXPECT_FALSE(scheme.verify(msg, sig, other.pk));
}

TEST_P(SphincsRoundtrip, WrongLengthSignatureRejected)
{
    SphincsPlus scheme(p());
    Rng rng(64);
    KeyPair kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(16);
    ByteVec sig = scheme.sign(msg, kp.sk);

    ByteVec truncated(sig.begin(), sig.end() - 1);
    EXPECT_FALSE(scheme.verify(msg, truncated, kp.pk));
    ByteVec extended = sig;
    extended.push_back(0);
    EXPECT_FALSE(scheme.verify(msg, extended, kp.pk));
    EXPECT_FALSE(scheme.verify(msg, {}, kp.pk));
}

TEST_P(SphincsRoundtrip, EmptyMessageSigns)
{
    SphincsPlus scheme(p());
    Rng rng(65);
    KeyPair kp = scheme.keygen(rng);
    ByteVec sig = scheme.sign({}, kp.sk);
    EXPECT_TRUE(scheme.verify({}, sig, kp.pk));
}

INSTANTIATE_TEST_SUITE_P(AllSets, SphincsRoundtrip,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });

TEST(Sphincs, KeygenDeterministicFromSeed)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n, 0x42);
    KeyPair a = scheme.keygenFromSeed(seed);
    KeyPair b = scheme.keygenFromSeed(seed);
    EXPECT_EQ(hexEncode(a.pk.pkRoot), hexEncode(b.pk.pkRoot));
    EXPECT_EQ(hexEncode(a.sk.encode()), hexEncode(b.sk.encode()));
}

TEST(Sphincs, DeterministicSignatures)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    Rng rng(70);
    KeyPair kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(20);

    ByteVec s1 = scheme.sign(msg, kp.sk);
    ByteVec s2 = scheme.sign(msg, kp.sk);
    EXPECT_EQ(hexEncode(s1), hexEncode(s2));
}

TEST(Sphincs, RandomizedSignaturesDifferButVerify)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    Rng rng(71);
    KeyPair kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(20);

    ByteVec r1 = rng.bytes(p.n);
    ByteVec r2 = rng.bytes(p.n);
    ByteVec s1 = scheme.sign(msg, kp.sk, r1);
    ByteVec s2 = scheme.sign(msg, kp.sk, r2);
    EXPECT_NE(hexEncode(s1), hexEncode(s2));
    EXPECT_TRUE(scheme.verify(msg, s1, kp.pk));
    EXPECT_TRUE(scheme.verify(msg, s2, kp.pk));
}

TEST(Sphincs, KeySerializationRoundtrip)
{
    const Params &p = Params::sphincs192f();
    SphincsPlus scheme(p);
    Rng rng(72);
    KeyPair kp = scheme.keygen(rng);

    ByteVec sk_bytes = kp.sk.encode();
    EXPECT_EQ(sk_bytes.size(), p.skBytes());
    SecretKey sk2 = SecretKey::decode(p, sk_bytes);
    EXPECT_EQ(hexEncode(sk2.encode()), hexEncode(sk_bytes));

    ByteVec pk_bytes = kp.pk.encode();
    EXPECT_EQ(pk_bytes.size(), p.pkBytes());
    PublicKey pk2 = PublicKey::decode(p, pk_bytes);
    EXPECT_EQ(hexEncode(pk2.encode()), hexEncode(pk_bytes));

    // A decoded key still verifies signatures.
    ByteVec msg = rng.bytes(10);
    ByteVec sig = scheme.sign(msg, sk2);
    EXPECT_TRUE(scheme.verify(msg, sig, pk2));
}

TEST(Sphincs, DecodeRejectsWrongLength)
{
    const Params &p = Params::sphincs128f();
    ByteVec bad(p.skBytes() + 1, 0);
    EXPECT_THROW(SecretKey::decode(p, bad), std::invalid_argument);
    EXPECT_THROW(PublicKey::decode(p, bad), std::invalid_argument);
}

TEST(Sphincs, SplitDigestBitExact)
{
    const Params &p = Params::sphincs128f();
    ByteVec digest(p.msgDigestBytes(), 0xff);
    DigestSplit s = splitDigest(p, digest);
    EXPECT_EQ(s.forsMsg.size(), p.forsMsgBytes());
    // 63 tree bits, all ones.
    EXPECT_EQ(s.idxTree, (1ULL << 63) - 1);
    // 3 leaf bits, all ones.
    EXPECT_EQ(s.idxLeaf, 7u);

    ByteVec zeros(p.msgDigestBytes(), 0x00);
    DigestSplit z = splitDigest(p, zeros);
    EXPECT_EQ(z.idxTree, 0u);
    EXPECT_EQ(z.idxLeaf, 0u);
}

TEST(Sphincs, SplitDigest256fUses64TreeBits)
{
    const Params &p = Params::sphincs256f();
    ByteVec digest(p.msgDigestBytes(), 0xff);
    DigestSplit s = splitDigest(p, digest);
    EXPECT_EQ(s.idxTree, ~0ULL);
    EXPECT_EQ(s.idxLeaf, 15u);
}

TEST(Sphincs, SplitDigestRejectsShortInput)
{
    const Params &p = Params::sphincs128f();
    ByteVec digest(p.msgDigestBytes() - 1, 0);
    EXPECT_THROW(splitDigest(p, digest), std::invalid_argument);
}

TEST(Sphincs, SignRejectsBadOptRand)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    Rng rng(73);
    KeyPair kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(8);
    ByteVec bad_rand(p.n + 1, 0);
    EXPECT_THROW(scheme.sign(msg, kp.sk, bad_rand),
                 std::invalid_argument);
}

// A warm context of another parameter shape must not sign under this
// scheme, even when it matches the key: the signature would take the
// context's layout, which this scheme's verify() rejects.
TEST(Sphincs, SignRejectsContextOfOtherParameters)
{
    Params small;
    small.name = "custom-16-6";
    small.n = 16;
    small.fullHeight = 6;
    small.layers = 2;
    small.forsHeight = 4;
    small.forsTrees = 8;
    small.wotsW = 16;
    small.validate();
    const KeyPair kp =
        SphincsPlus(small).keygenFromSeed(ByteVec(3 * small.n, 0x21));
    const Context ctx(small, kp.sk.pkSeed, kp.sk.skSeed);

    const SphincsPlus scheme(Params::sphincs128f());
    const ByteVec msg(16, 0x42);
    EXPECT_THROW(scheme.sign(ctx, msg, kp.sk), std::invalid_argument);
    EXPECT_EQ(SphincsPlus(small).sign(ctx, msg, kp.sk).size(),
              small.sigBytes());
}
