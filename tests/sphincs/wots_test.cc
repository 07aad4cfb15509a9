/**
 * @file
 * WOTS+ tests: base-w digits, checksum, chain algebra, the core
 * sign -> pk-from-sig == pk-gen property, and every WOTS+ entry point
 * against the spec oracle, across all parameter sets.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "oracle/spx_oracle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

/** The compressed public key of the keypair @p adrs names. */
void
pkGen(uint8_t *pk_out, const Context &ctx, const Address &adrs)
{
    WotsLeafReq req;
    req.layer = adrs.layer();
    req.tree = adrs.tree();
    req.keypair = adrs.keypair();
    req.leafOut = pk_out;
    wotsLeafBatch(ctx, &req, 1);
}

/** The public key recomputed from a signature, as one lane. */
void
pkFromSig(uint8_t *pk_out, const uint8_t *sig, const uint8_t *msg,
          const Context &ctx, const Address &adrs)
{
    wotsPkFromSigXN(&pk_out, &sig, &msg, ctx, &adrs, 1);
}

class WotsTest : public ::testing::TestWithParam<const Params *>
{
  protected:
    const Params &p() const { return *GetParam(); }

    Context
    makeContext(Rng &rng) const
    {
        ByteVec pk_seed = rng.bytes(p().n);
        ByteVec sk_seed = rng.bytes(p().n);
        return Context(p(), pk_seed, sk_seed);
    }

    Address
    leafAddress() const
    {
        Address a;
        a.setLayer(2);
        a.setTree(1234);
        a.setType(AddrType::WotsHash);
        a.setKeypair(5);
        return a;
    }
};

} // namespace

TEST_P(WotsTest, ChainLengthsInRange)
{
    Rng rng(20);
    for (int trial = 0; trial < 20; ++trial) {
        ByteVec msg = rng.bytes(p().n);
        uint32_t lengths[maxWotsLen];
        chainLengths(lengths, p(), msg.data());
        for (unsigned i = 0; i < p().wotsLen(); ++i)
            EXPECT_LT(lengths[i], p().wotsW);
    }
}

TEST_P(WotsTest, ChecksumProperty)
{
    // The checksum digits encode sum(w-1-msg_i) shifted into whole
    // base-w digits; verify by recomputing from the digit split.
    Rng rng(21);
    ByteVec msg = rng.bytes(p().n);
    uint32_t lengths[maxWotsLen];
    chainLengths(lengths, p(), msg.data());

    uint32_t csum = 0;
    for (unsigned i = 0; i < p().wotsLen1(); ++i)
        csum += p().wotsW - 1 - lengths[i];

    const unsigned lg_w = p().lgW();
    const unsigned len2 = p().wotsLen2();
    uint32_t shifted = csum << ((8 - (len2 * lg_w) % 8) % 8);

    uint32_t decoded = 0;
    for (unsigned i = 0; i < len2; ++i)
        decoded = (decoded << lg_w) | lengths[p().wotsLen1() + i];

    // The decoded digits are the top len2*lg_w bits of the shifted
    // checksum byte string.
    const unsigned csum_bits = ((len2 * lg_w + 7) / 8) * 8;
    EXPECT_EQ(decoded, shifted >> (csum_bits - len2 * lg_w));
}

TEST_P(WotsTest, AllZeroMessageMaximizesChecksum)
{
    ByteVec msg(p().n, 0x00);
    uint32_t lengths[maxWotsLen];
    chainLengths(lengths, p(), msg.data());
    for (unsigned i = 0; i < p().wotsLen1(); ++i)
        EXPECT_EQ(lengths[i], 0u);
    // The checksum digits must decode to csum = len1 * (w-1).
    uint32_t decoded = 0;
    for (unsigned i = 0; i < p().wotsLen2(); ++i)
        decoded = (decoded << 4) | lengths[p().wotsLen1() + i];
    uint32_t expected = p().wotsLen1() * 15;
    uint32_t shifted = expected << ((8 - (p().wotsLen2() * 4) % 8) % 8);
    const unsigned csum_bits = ((p().wotsLen2() * 4 + 7) / 8) * 8;
    EXPECT_EQ(decoded, shifted >> (csum_bits - p().wotsLen2() * 4));
}

TEST_P(WotsTest, ChainComposition)
{
    // chain(x, 0, a+b) == chain(chain(x, 0, a), a, b)
    Rng rng(22);
    Context ctx = makeContext(rng);
    Address adrs = leafAddress();
    adrs.setChain(3);

    ByteVec x = rng.bytes(p().n);
    uint8_t full[maxN], part[maxN];

    Address a1 = adrs;
    genChain(full, x.data(), 0, 9, ctx, a1);

    Address a2 = adrs;
    genChain(part, x.data(), 0, 4, ctx, a2);
    Address a3 = adrs;
    genChain(part, part, 4, 5, ctx, a3);

    EXPECT_TRUE(ctEqual(ByteSpan(full, p().n), ByteSpan(part, p().n)));
}

TEST_P(WotsTest, ChainZeroStepsIsIdentity)
{
    Rng rng(23);
    Context ctx = makeContext(rng);
    Address adrs = leafAddress();
    ByteVec x = rng.bytes(p().n);
    uint8_t out[maxN];
    genChain(out, x.data(), 2, 0, ctx, adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(out, p().n), x));
}

TEST_P(WotsTest, SignThenRecoverPkMatchesPkGen)
{
    Rng rng(24);
    Context ctx = makeContext(rng);
    Address adrs = leafAddress();

    uint8_t pk[maxN];
    pkGen(pk, ctx, adrs);

    for (int trial = 0; trial < 5; ++trial) {
        ByteVec msg = rng.bytes(p().n);
        ByteVec sig(p().wotsSigBytes());
        wotsSign(sig.data(), msg.data(), ctx, adrs);

        uint8_t recovered[maxN];
        pkFromSig(recovered, sig.data(), msg.data(), ctx, adrs);
        EXPECT_TRUE(ctEqual(ByteSpan(recovered, p().n),
                            ByteSpan(pk, p().n)))
            << "trial " << trial;
    }
}

TEST_P(WotsTest, WrongMessageYieldsWrongPk)
{
    Rng rng(25);
    Context ctx = makeContext(rng);
    Address adrs = leafAddress();

    uint8_t pk[maxN];
    pkGen(pk, ctx, adrs);

    ByteVec msg = rng.bytes(p().n);
    ByteVec sig(p().wotsSigBytes());
    wotsSign(sig.data(), msg.data(), ctx, adrs);

    ByteVec tampered = msg;
    tampered[0] ^= 0x01;
    uint8_t recovered[maxN];
    pkFromSig(recovered, sig.data(), tampered.data(), ctx, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(recovered, p().n), ByteSpan(pk, p().n)));
}

TEST_P(WotsTest, DifferentKeypairsDifferentPks)
{
    Rng rng(26);
    Context ctx = makeContext(rng);
    Address a1 = leafAddress(), a2 = leafAddress();
    a2.setKeypair(6);

    uint8_t pk1[maxN], pk2[maxN];
    pkGen(pk1, ctx, a1);
    pkGen(pk2, ctx, a2);
    EXPECT_FALSE(ctEqual(ByteSpan(pk1, p().n), ByteSpan(pk2, p().n)));
}

TEST_P(WotsTest, SignPkGenAndPkFromSigMatchOracle)
{
    Rng rng(27);
    const ByteVec pk_seed = rng.bytes(p().n);
    const ByteVec sk_seed = rng.bytes(p().n);
    Context ctx(p(), pk_seed, sk_seed);
    const oracle::SpxOracle spx(p(), pk_seed, sk_seed);
    Address adrs = leafAddress();

    uint8_t pk[maxN];
    pkGen(pk, ctx, adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(pk, p().n), spx.wotsPkGen(adrs)));

    // An all-zero message has the longest checksum chains; a random
    // one the usual ragged mix.
    for (const ByteVec &msg : {ByteVec(p().n, 0x00), rng.bytes(p().n)}) {
        ByteVec sig(p().wotsSigBytes());
        wotsSign(sig.data(), msg.data(), ctx, adrs);
        EXPECT_EQ(sig, spx.wotsSign(msg, adrs));

        uint8_t recovered[maxN];
        pkFromSig(recovered, sig.data(), msg.data(), ctx, adrs);
        EXPECT_TRUE(ctEqual(ByteSpan(recovered, p().n),
                            spx.wotsPkFromSig(sig, msg, adrs)));
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, WotsTest,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });
