/**
 * @file
 * Batched tweakable-hash layer tests: thashFX/prfAddrX against the
 * scalar calls (full, partial and 16-lane batches), the batched
 * WOTS+/FORS leaf generators against reconstructions from the scalar
 * building blocks the simulator kernels use, and end-to-end keygen and
 * sign byte-equality with the spec oracle plus compression-count
 * parity across the AVX-512 (width 16), AVX2 (width 8) and portable
 * backends.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "oracle_ref.hh"
#include "sphincs/fors.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

Context
makeContext(const Params &p, uint64_t seed)
{
    Rng rng(seed);
    ByteVec pk_seed = rng.bytes(p.n);
    ByteVec sk_seed = rng.bytes(p.n);
    return Context(p, pk_seed, sk_seed);
}

TEST(ThashX, FullBatchMatchesScalarF)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 1);
    Rng rng(2);

    Address adrs[maxHashLanes];
    ByteVec inputs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    uint8_t out[maxHashLanes][maxN];
    uint8_t *outs[maxHashLanes];
    for (unsigned l = 0; l < maxHashLanes; ++l) {
        adrs[l].setLayer(l);
        adrs[l].setTree(100 + l);
        adrs[l].setType(AddrType::WotsHash);
        adrs[l].setChain(l);
        adrs[l].setHash(2 * l);
        inputs[l] = rng.bytes(p.n);
        ins[l] = inputs[l].data();
        outs[l] = out[l];
    }
    thashFX(outs, ctx, adrs, ins, maxHashLanes);

    for (unsigned l = 0; l < maxHashLanes; ++l) {
        uint8_t expected[maxN];
        thashF(expected, ctx, adrs[l], inputs[l].data());
        EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                  hexEncode(ByteSpan(expected, p.n)))
            << "lane " << l;
    }
}

TEST(ThashX, PartialBatchesMatchScalar)
{
    const Params &p = Params::sphincs192f();
    Context ctx = makeContext(p, 3);
    Rng rng(4);

    // Every count 1..16 crosses all greedy-split shapes: pure scalar
    // tails, one 8-wide chunk + tail, and the full 16-wide kernel.
    for (unsigned count = 1; count <= maxHashLanes; ++count) {
        Address adrs[maxHashLanes];
        ByteVec inputs[maxHashLanes];
        const uint8_t *ins[maxHashLanes];
        uint8_t out[maxHashLanes][maxN];
        uint8_t *outs[maxHashLanes];
        for (unsigned l = 0; l < count; ++l) {
            adrs[l].setType(AddrType::ForsTree);
            adrs[l].setTreeIndex(count * 100 + l);
            inputs[l] = rng.bytes(p.n);
            ins[l] = inputs[l].data();
            outs[l] = out[l];
        }
        thashFX(outs, ctx, adrs, ins, count);
        for (unsigned l = 0; l < count; ++l) {
            uint8_t expected[maxN];
            thashF(expected, ctx, adrs[l], inputs[l].data());
            EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                      hexEncode(ByteSpan(expected, p.n)))
                << "count " << count << " lane " << l;
        }
    }
}

TEST(ThashX, BatchCompressionCountsMatchScalar)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 29);
    Rng rng(30);

    for (unsigned count : {1u, 7u, 8u, 9u, 16u}) {
        Address adrs[maxHashLanes];
        ByteVec inputs[maxHashLanes];
        const uint8_t *ins[maxHashLanes];
        uint8_t out[maxHashLanes][maxN];
        uint8_t *outs[maxHashLanes];
        for (unsigned l = 0; l < count; ++l) {
            adrs[l].setType(AddrType::WotsHash);
            adrs[l].setChain(l);
            inputs[l] = rng.bytes(p.n);
            ins[l] = inputs[l].data();
            outs[l] = out[l];
        }

        Sha256::resetCompressionCount();
        for (unsigned l = 0; l < count; ++l) {
            uint8_t expected[maxN];
            thashF(expected, ctx, adrs[l], inputs[l].data());
        }
        const uint64_t scalar_count = Sha256::compressionCount();

        Sha256::resetCompressionCount();
        thashFX(outs, ctx, adrs, ins, count);
        EXPECT_EQ(Sha256::compressionCount(), scalar_count)
            << "count " << count;
    }
}

TEST(ThashX, LongInputBatchMatchesScalarThash)
{
    const Params &p = Params::sphincs256f();
    Context ctx = makeContext(p, 5);
    Rng rng(6);

    // WOTS pk compression shape: len * n input per lane, at both SIMD
    // widths and a ragged width.
    const size_t in_len = static_cast<size_t>(p.wotsLen()) * p.n;
    for (unsigned count : {8u, 13u, 16u}) {
        Address adrs[maxHashLanes];
        ByteVec inputs[maxHashLanes];
        const uint8_t *ins[maxHashLanes];
        uint8_t out[maxHashLanes][maxN];
        uint8_t *outs[maxHashLanes];
        for (unsigned l = 0; l < count; ++l) {
            adrs[l].setType(AddrType::WotsPk);
            adrs[l].setKeypair(l);
            inputs[l] = rng.bytes(in_len);
            ins[l] = inputs[l].data();
            outs[l] = out[l];
        }
        thashX(outs, ctx, adrs, ins, in_len, count);

        for (unsigned l = 0; l < count; ++l) {
            uint8_t expected[maxN];
            thash(expected, ctx, adrs[l], inputs[l]);
            EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                      hexEncode(ByteSpan(expected, p.n)))
                << "count " << count << " lane " << l;
        }
    }
}

TEST(ThashX, PrfBatchMatchesScalar)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 7);

    Address adrs[maxHashLanes];
    uint8_t out[maxHashLanes][maxN];
    uint8_t *outs[maxHashLanes];
    for (unsigned l = 0; l < maxHashLanes; ++l) {
        adrs[l].setType(AddrType::WotsPrf);
        adrs[l].setKeypair(3);
        adrs[l].setChain(l);
        outs[l] = out[l];
    }
    prfAddrX(outs, ctx, adrs, maxHashLanes);

    for (unsigned l = 0; l < maxHashLanes; ++l) {
        uint8_t expected[maxN];
        prfAddr(expected, ctx, adrs[l]);
        EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                  hexEncode(ByteSpan(expected, p.n)));
    }
}

TEST(ThashX, RejectsBadCounts)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 8);
    Address adrs[1];
    uint8_t buf[maxN];
    uint8_t *outs[1] = {buf};
    const uint8_t *ins[1] = {buf};
    EXPECT_THROW(thashX(outs, ctx, adrs, ins, p.n, 0),
                 std::invalid_argument);
    EXPECT_THROW(thashX(outs, ctx, adrs, ins, p.n, maxHashLanes + 1),
                 std::invalid_argument);
}

/**
 * Reference WOTS+ leaf built only from the scalar building blocks
 * (wotsChainSk + genChain + thash), mirroring the pre-batching
 * implementation.
 */
void
scalarWotsLeaf(uint8_t *pk_out, const Context &ctx, uint32_t layer,
               uint64_t tree, uint32_t keypair)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;

    Address prf_adrs;
    prf_adrs.setLayer(layer);
    prf_adrs.setTree(tree);
    prf_adrs.setType(AddrType::WotsPrf);
    prf_adrs.setKeypair(keypair);
    Address hash_adrs;
    hash_adrs.setLayer(layer);
    hash_adrs.setTree(tree);
    hash_adrs.setType(AddrType::WotsHash);
    hash_adrs.setKeypair(keypair);

    uint8_t chains[maxWotsLen * maxN];
    for (unsigned i = 0; i < len; ++i) {
        uint8_t sk[maxN];
        wotsChainSk(sk, ctx, prf_adrs, i);
        hash_adrs.setChain(i);
        genChain(chains + i * n, sk, 0, p.wotsW - 1, ctx, hash_adrs);
    }

    Address pk_adrs;
    pk_adrs.setLayer(layer);
    pk_adrs.setTree(tree);
    pk_adrs.setType(AddrType::WotsPk);
    pk_adrs.setKeypair(keypair);
    thash(pk_out, ctx, pk_adrs, ByteSpan(chains, len * n));
}

TEST(BatchedLeaves, WotsLeafBatchMatchesScalarComposition)
{
    for (const Params *pp : {&Params::sphincs128f(),
                             &Params::sphincs192f(),
                             &Params::sphincs256f()}) {
        const Params &p = *pp;
        Context ctx = makeContext(p, 11);
        const uint32_t layer = 1, leaf0 = 4;
        const uint64_t tree = 77;

        // 19 spans one full internal sub-batch plus a ragged one.
        for (unsigned count : {1u, 3u, 8u, 11u, 16u, 19u}) {
            std::vector<uint8_t> pks(count * p.n);
            std::vector<WotsLeafReq> reqs(count);
            for (unsigned j = 0; j < count; ++j) {
                reqs[j].layer = layer;
                reqs[j].tree = tree;
                reqs[j].keypair = leaf0 + j;
                reqs[j].leafOut = pks.data() + j * p.n;
            }
            wotsLeafBatch(ctx, reqs.data(), count);
            for (unsigned j = 0; j < count; ++j) {
                uint8_t expected[maxN];
                scalarWotsLeaf(expected, ctx, layer, tree, leaf0 + j);
                EXPECT_EQ(hexEncode(ByteSpan(pks.data() + j * p.n, p.n)),
                          hexEncode(ByteSpan(expected, p.n)))
                    << p.name << " count " << count << " leaf " << j;
            }
        }
    }
}

TEST(BatchedLeaves, ForsLeafBatchMatchesScalar)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 13);

    // Requests alternate between two forests (different hypertree
    // positions), as a pooled cross-signature batch does. 37 spans
    // two full internal sub-batches plus a ragged tail.
    Address fors_adrs[2];
    for (unsigned f = 0; f < 2; ++f) {
        fors_adrs[f].setLayer(0);
        fors_adrs[f].setTree(5 + f);
        fors_adrs[f].setType(AddrType::ForsTree);
        fors_adrs[f].setKeypair(9 - f);
    }

    for (unsigned count : {1u, 5u, 8u, 13u, 16u, 37u}) {
        std::vector<uint8_t> leaves(count * p.n);
        std::vector<ForsLeafReq> reqs(count);
        for (unsigned j = 0; j < count; ++j) {
            reqs[j].adrs = fors_adrs[j % 2];
            reqs[j].idx = 40 + j;
            reqs[j].out = leaves.data() + j * p.n;
        }
        forsLeafBatch(ctx, reqs.data(), count);
        for (unsigned j = 0; j < count; ++j) {
            // F of the secret value, from the scalar building blocks.
            uint8_t sk[maxN], expected[maxN];
            forsSkGen(sk, ctx, fors_adrs[j % 2], 40 + j);
            Address leaf_adrs = fors_adrs[j % 2];
            leaf_adrs.setTreeHeight(0);
            leaf_adrs.setTreeIndex(40 + j);
            thashF(expected, ctx, leaf_adrs, sk);
            EXPECT_EQ(
                hexEncode(ByteSpan(leaves.data() + j * p.n, p.n)),
                hexEncode(ByteSpan(expected, p.n)))
                << "count " << count << " leaf " << j;
        }
    }
}

/**
 * Sign/keygen under a specific lane configuration, returning the
 * signature, pk root and compression count of the sign() call.
 */
struct ModeResult
{
    ByteVec sig;
    ByteVec pkRoot;
    uint64_t signCompressions;
    bool verified;
};

ModeResult
runMode(const Params &p, const ByteVec &seed, const ByteVec &msg,
        bool scalar, bool no_avx512)
{
    SphincsPlus scheme(p);
    sha256LanesForceScalar(scalar);
    sha256LanesDisableAvx512(no_avx512);
    auto kp = scheme.keygenFromSeed(seed);
    Sha256::resetCompressionCount();
    ModeResult r;
    r.sig = scheme.sign(msg, kp.sk);
    r.signCompressions = Sha256::compressionCount();
    r.pkRoot = ByteVec(kp.pk.pkRoot.begin(), kp.pk.pkRoot.end());
    r.verified = scheme.verify(msg, r.sig, kp.pk);
    sha256LanesForceScalar(false);
    sha256LanesDisableAvx512(false);
    return r;
}

TEST(BackendEquivalence, SignaturesByteIdenticalAcrossAllWidths)
{
    // Cross-width byte-identity on every Table I set: the scalar
    // path, the width-8 path (AVX-512 disabled) and the full
    // dispatched path (width 16 where the host supports it) must
    // produce the spec oracle's key and signature, identical verify
    // verdicts and identical compression counts.
    for (const Params *pp : {&Params::sphincs128f(),
                             &Params::sphincs192f(),
                             &Params::sphincs256f()}) {
        const Params &p = *pp;
        Rng rng(23);
        ByteVec seed = rng.bytes(3 * p.n);
        ByteVec msg = rng.bytes(57);

        ModeResult scalar = runMode(p, seed, msg, true, false);
        ModeResult x8 = runMode(p, seed, msg, false, true);
        ModeResult widest = runMode(p, seed, msg, false, false);

        const oracle::SpxOracle spx(
            p, ByteSpan(seed).subspan(2 * p.n, p.n),
            ByteSpan(seed).first(p.n));
        const ByteVec want_root = spx.pkRoot();
        EXPECT_EQ(hexEncode(scalar.pkRoot), hexEncode(want_root))
            << p.name;
        EXPECT_EQ(hexEncode(scalar.sig),
                  hexEncode(spx.sign(msg, ByteSpan(seed).subspan(p.n, p.n),
                                     want_root)))
            << p.name;

        EXPECT_EQ(hexEncode(scalar.pkRoot), hexEncode(x8.pkRoot))
            << p.name;
        EXPECT_EQ(hexEncode(scalar.pkRoot), hexEncode(widest.pkRoot))
            << p.name;
        EXPECT_EQ(hexEncode(scalar.sig), hexEncode(x8.sig)) << p.name;
        EXPECT_EQ(hexEncode(scalar.sig), hexEncode(widest.sig))
            << p.name;
        EXPECT_TRUE(scalar.verified) << p.name;
        EXPECT_TRUE(x8.verified) << p.name;
        EXPECT_TRUE(widest.verified) << p.name;
        EXPECT_EQ(scalar.signCompressions, x8.signCompressions)
            << p.name;
        EXPECT_EQ(scalar.signCompressions, widest.signCompressions)
            << p.name;
    }
}

TEST(BackendEquivalence, CrossBackendVerifyAgrees)
{
    // A signature produced at the widest dispatch verifies on the
    // scalar path and vice versa.
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    Rng rng(27);
    ByteVec seed = rng.bytes(3 * p.n);
    ByteVec msg = rng.bytes(33);

    auto kp = scheme.keygenFromSeed(seed);
    ByteVec sig_auto = scheme.sign(msg, kp.sk);

    sha256LanesForceScalar(true);
    auto kp_scalar = scheme.keygenFromSeed(seed);
    ByteVec sig_scalar = scheme.sign(msg, kp_scalar.sk);
    const bool verify_scalar = scheme.verify(msg, sig_auto, kp.pk);
    sha256LanesForceScalar(false);

    EXPECT_EQ(hexEncode(kp.pk.pkRoot), hexEncode(kp_scalar.pk.pkRoot));
    EXPECT_EQ(hexEncode(sig_auto), hexEncode(sig_scalar));
    EXPECT_TRUE(verify_scalar);
    EXPECT_TRUE(scheme.verify(msg, sig_scalar, kp.pk));
}

} // namespace
