/**
 * @file
 * FORS tests: index extraction, leaf derivation, the sign ->
 * pk-from-sig roundtrip property, and the fused forsSign() against the
 * spec oracle's tree-by-tree fors_sign at every lane width.
 */

#include <gtest/gtest.h>

#include "../batch/batch_test_util.hh"
#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "oracle/spx_oracle.hh"
#include "sphincs/fors.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"

using namespace herosign;
using namespace herosign::sphincs;
using batchtest::ScopedWidth;

namespace
{

/** The FORS public key recomputed from a signature, as one lane. */
void
pkFromSig(uint8_t *pk_out, const uint8_t *sig, const uint8_t *mhash,
          const Context &ctx, const Address &fors_adrs)
{
    forsPkFromSigXN(&pk_out, &sig, &mhash, ctx, &fors_adrs, 1);
}

class ForsTest : public ::testing::TestWithParam<const Params *>
{
  protected:
    const Params &p() const { return *GetParam(); }

    Context
    makeContext(Rng &rng) const
    {
        return Context(p(), rng.bytes(p().n), rng.bytes(p().n));
    }

    Address
    forsAddress() const
    {
        Address a;
        a.setLayer(0);
        a.setTree(77);
        a.setType(AddrType::ForsTree);
        a.setKeypair(3);
        return a;
    }
};

} // namespace

TEST_P(ForsTest, IndicesInRangeAndBitExact)
{
    Rng rng(30);
    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    uint32_t indices[64];
    messageToIndices(indices, p(), mhash.data());

    // Recompute by walking the bitstream.
    size_t bit = 0;
    for (unsigned i = 0; i < p().forsTrees; ++i) {
        uint32_t expected = 0;
        for (unsigned b = 0; b < p().forsHeight; ++b, ++bit) {
            expected = (expected << 1) |
                       ((mhash[bit >> 3] >> (7 - (bit & 7))) & 1u);
        }
        EXPECT_EQ(indices[i], expected) << "tree " << i;
        EXPECT_LT(indices[i], p().forsLeaves());
    }
}

TEST_P(ForsTest, IndicesAllZeroAllOnes)
{
    ByteVec zeros(p().forsMsgBytes(), 0x00);
    ByteVec ones(p().forsMsgBytes(), 0xff);
    uint32_t idx0[64], idx1[64];
    messageToIndices(idx0, p(), zeros.data());
    messageToIndices(idx1, p(), ones.data());
    for (unsigned i = 0; i < p().forsTrees; ++i) {
        EXPECT_EQ(idx0[i], 0u);
        EXPECT_EQ(idx1[i], p().forsLeaves() - 1);
    }
}

TEST_P(ForsTest, SignRecoverRoundtrip)
{
    Rng rng(31);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    uint8_t recovered[maxN];
    pkFromSig(recovered, sig.data(), mhash.data(), ctx, adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(recovered, p().n), ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, TamperedSignatureChangesPk)
{
    Rng rng(32);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    sig[0] ^= 0x01; // corrupt the first revealed secret value
    uint8_t recovered[maxN];
    pkFromSig(recovered, sig.data(), mhash.data(), ctx, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(recovered, p().n),
                         ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, DifferentMessageDifferentPkRecovery)
{
    Rng rng(33);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    ByteVec other = mhash;
    other[0] ^= 0x80; // flips the first tree's index
    uint8_t recovered[maxN];
    pkFromSig(recovered, sig.data(), other.data(), ctx, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(recovered, p().n),
                         ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, SkGenDistinctPerIndex)
{
    Rng rng(34);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    uint8_t sk0[maxN], sk1[maxN];
    forsSkGen(sk0, ctx, adrs, 0);
    forsSkGen(sk1, ctx, adrs, 1);
    EXPECT_FALSE(ctEqual(ByteSpan(sk0, p().n), ByteSpan(sk1, p().n)));
}

TEST_P(ForsTest, LeafIsThashOfSk)
{
    Rng rng(35);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    const uint32_t idx = 5;
    uint8_t sk[maxN];
    forsSkGen(sk, ctx, adrs, idx);

    Address leaf_adrs = adrs;
    leaf_adrs.setTreeHeight(0);
    leaf_adrs.setTreeIndex(idx);
    uint8_t expected[maxN];
    thashF(expected, ctx, leaf_adrs, sk);

    uint8_t leaf[maxN];
    ForsLeafReq req;
    req.adrs = adrs;
    req.idx = idx;
    req.out = leaf;
    forsLeafBatch(ctx, &req, 1);
    EXPECT_TRUE(ctEqual(ByteSpan(leaf, p().n),
                        ByteSpan(expected, p().n)));
}

TEST(ForsFusion, FusedSignMatchesOracleAtEveryWidth)
{
    // k = 5 sits below both lane widths, so the whole forest is one
    // ragged group; n = 24 makes every node combine two blocks.
    Params small;
    small.name = "fors-k5";
    small.n = 24;
    small.fullHeight = 6;
    small.layers = 3;
    small.forsHeight = 5;
    small.forsTrees = 5;
    small.wotsW = 16;
    small.validate();

    struct Case
    {
        const Params *p;
        uint64_t comps; ///< pinned compressions; 0 = parity only
    };
    const Case cases[] = {
        {&Params::sphincs128f(), 6345},
        {&Params::sphincs192f(), 33772},
        {&Params::sphincs256f(), 71663},
        {&small, 0},
    };
    for (const Case &c : cases) {
        const Params &p = *c.p;
        Rng rng(36);
        const ByteVec pk_seed = rng.bytes(p.n);
        const ByteVec sk_seed = rng.bytes(p.n);
        Context ctx(p, pk_seed, sk_seed);
        Address adrs;
        adrs.setLayer(0);
        adrs.setTree(77);
        adrs.setType(AddrType::ForsTree);
        adrs.setKeypair(3);
        const ByteVec mhash = rng.bytes(p.forsMsgBytes());

        const oracle::SpxOracle spx(p, pk_seed, sk_seed);
        const ByteVec want_sig = spx.forsSign(mhash, adrs);
        const ByteVec want_pk = spx.forsPkFromSig(want_sig, mhash, adrs);

        uint64_t first_comps = 0;
        for (unsigned width : {1u, 8u, 16u}) {
            ScopedWidth w(width);
            ByteVec sig(p.forsSigBytes());
            uint8_t pk[maxN];
            const uint64_t c0 = Sha256::compressionCount();
            forsSign(sig.data(), pk, mhash.data(), ctx, adrs);
            const uint64_t comps = Sha256::compressionCount() - c0;
            EXPECT_EQ(sig, want_sig) << p.name << " width " << width;
            EXPECT_EQ(hexEncode(ByteSpan(pk, p.n)), hexEncode(want_pk))
                << p.name << " width " << width;
            if (width == 1)
                first_comps = comps;
            EXPECT_EQ(comps, first_comps) << p.name << " width " << width;
            if (c.comps != 0) {
                EXPECT_EQ(comps, c.comps) << p.name << " width " << width;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, ForsTest,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });
