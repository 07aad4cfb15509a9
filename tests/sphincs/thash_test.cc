/**
 * @file
 * Tweakable-hash construction tests: seeded mid-state equivalence,
 * domain separation by address, PRF behaviour, H_msg structure.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/mgf1.hh"
#include "hash/sha256.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

class ThashTest : public ::testing::TestWithParam<const Params *>
{
  protected:
    const Params &p() const { return *GetParam(); }
};

} // namespace

TEST_P(ThashTest, MatchesDirectShaConstruction)
{
    Rng rng(11);
    ByteVec pk_seed = rng.bytes(p().n);
    ByteVec sk_seed = rng.bytes(p().n);
    Context ctx(p(), pk_seed, sk_seed);

    Address adrs;
    adrs.setLayer(1);
    adrs.setTree(7);
    adrs.setType(AddrType::WotsHash);
    adrs.setKeypair(3);
    adrs.setChain(2);
    adrs.setHash(1);

    ByteVec in = rng.bytes(p().n);
    uint8_t out[maxN];
    thash(out, ctx, adrs, in);

    // Direct construction: SHA-256(pk_seed || 0^(64-n) || adrs_c || in)
    ByteVec direct_in(64, 0);
    std::memcpy(direct_in.data(), pk_seed.data(), p().n);
    auto c = adrs.compressed();
    append(direct_in, ByteSpan(c.data(), c.size()));
    append(direct_in, in);
    auto digest = Sha256::digest(direct_in);

    EXPECT_TRUE(ctEqual(ByteSpan(out, p().n),
                        ByteSpan(digest.data(), p().n)));
}

TEST_P(ThashTest, AddressSeparation)
{
    Rng rng(12);
    ByteVec pk_seed = rng.bytes(p().n);
    Context ctx(p(), pk_seed, {});

    ByteVec in = rng.bytes(p().n);
    Address a, b;
    a.setType(AddrType::WotsHash);
    b.setType(AddrType::WotsHash);
    b.setHash(1);

    uint8_t out_a[maxN], out_b[maxN];
    thash(out_a, ctx, a, in);
    thash(out_b, ctx, b, in);
    EXPECT_FALSE(ctEqual(ByteSpan(out_a, p().n), ByteSpan(out_b, p().n)));
}

TEST_P(ThashTest, PrfDependsOnSkSeed)
{
    Rng rng(13);
    ByteVec pk_seed = rng.bytes(p().n);
    ByteVec sk1 = rng.bytes(p().n);
    ByteVec sk2 = rng.bytes(p().n);
    Context c1(p(), pk_seed, sk1), c2(p(), pk_seed, sk2);

    Address adrs;
    adrs.setType(AddrType::WotsPrf);

    uint8_t o1[maxN], o2[maxN];
    prfAddr(o1, c1, adrs);
    prfAddr(o2, c2, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(o1, p().n), ByteSpan(o2, p().n)));
}

TEST_P(ThashTest, PrfMsgDeterministicInInputs)
{
    Rng rng(14);
    ByteVec pk_seed = rng.bytes(p().n);
    Context ctx(p(), pk_seed, {});
    ByteVec sk_prf = rng.bytes(p().n);
    ByteVec opt = rng.bytes(p().n);
    ByteVec msg = rng.bytes(100);

    uint8_t r1[maxN], r2[maxN];
    prfMsg(r1, ctx, sk_prf, opt, msg);
    prfMsg(r2, ctx, sk_prf, opt, msg);
    EXPECT_TRUE(ctEqual(ByteSpan(r1, p().n), ByteSpan(r2, p().n)));

    ByteVec opt2 = opt;
    opt2[0] ^= 1;
    prfMsg(r2, ctx, sk_prf, opt2, msg);
    EXPECT_FALSE(ctEqual(ByteSpan(r1, p().n), ByteSpan(r2, p().n)));
}

TEST_P(ThashTest, HashMessageMatchesMgf1Construction)
{
    Rng rng(15);
    ByteVec pk_seed = rng.bytes(p().n);
    Context ctx(p(), pk_seed, {});
    ByteVec r = rng.bytes(p().n);
    ByteVec pk_root = rng.bytes(p().n);
    ByteVec msg = rng.bytes(33);

    ByteVec digest(p().msgDigestBytes());
    hashMessage(digest, ctx, r, pk_root, msg);

    // Reconstruct: MGF1(R || pk_seed || SHA256(R||pk_seed||root||msg))
    ByteVec inner;
    append(inner, r);
    append(inner, pk_seed);
    append(inner, pk_root);
    append(inner, msg);
    auto seed1 = Sha256::digest(inner);

    ByteVec mgf_seed;
    append(mgf_seed, r);
    append(mgf_seed, pk_seed);
    append(mgf_seed, ByteSpan(seed1.data(), seed1.size()));
    ByteVec expected(p().msgDigestBytes());
    mgf1Sha256(expected, mgf_seed);

    EXPECT_EQ(hexEncode(digest), hexEncode(expected));
}

TEST(ThashContext, RejectsBadSeeds)
{
    const Params &p = Params::sphincs128f();
    ByteVec good(p.n, 1), bad(p.n + 1, 1);
    EXPECT_NO_THROW(Context(p, good, good));
    EXPECT_NO_THROW(Context(p, good, {}));
    EXPECT_THROW(Context(p, bad, good), std::invalid_argument);
    EXPECT_THROW(Context(p, good, bad), std::invalid_argument);
}

TEST(ThashContext, SeededStateIsOneCompression)
{
    const Params &p = Params::sphincs128f();
    ByteVec pk_seed(p.n, 0x5a);
    Sha256::resetCompressionCount();
    Context ctx(p, pk_seed, {});
    EXPECT_EQ(Sha256::compressionCount(), 1u);
    EXPECT_EQ(ctx.seededState().bytesCompressed, 64u);
}

INSTANTIATE_TEST_SUITE_P(AllSets, ThashTest,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });
