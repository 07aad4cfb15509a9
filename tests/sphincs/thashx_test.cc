/**
 * @file
 * Batched tweakable-hash layer tests: thashFX/prfAddrX against the
 * scalar calls (full, partial and 16-lane batches), the WOTS+ chain
 * entry thashChainX against per-step F and the oracle's chain at
 * widths 16, 8 and 1, the AVX-512 chain kernel called directly, the
 * simd-lane fault seam on the chain kernel, the batched WOTS+/FORS
 * leaf generators against reconstructions from the scalar building
 * blocks the simulator kernels use, and end-to-end keygen and sign
 * byte-equality with the spec oracle plus compression-count parity
 * across the AVX-512 (width 16), AVX2 (width 8) and portable
 * backends.
 *
 * Each chain test records the lane backend it ran on as the XML
 * property laneBackend; the direct-kernel cases skip, with that
 * reason, when AVX-512 dispatch is not active.
 */

#include <gtest/gtest.h>

#include "common/fault.hh"
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

const char *
laneBackendName(LaneBackend b)
{
    return b == LaneBackend::Avx512 ? "avx512"
           : b == LaneBackend::Avx2 ? "avx2"
                                    : "portable";
}

/** The dispatch widths every chain-entry case runs at. */
enum class LaneMode { Widest, Width8, Scalar };

/** Pins lane dispatch to one LaneMode for a scope. */
class ScopedLaneMode
{
  public:
    explicit ScopedLaneMode(LaneMode mode)
    {
        sha256LanesForceScalar(mode == LaneMode::Scalar);
        sha256LanesDisableAvx512(mode == LaneMode::Width8);
    }
    ~ScopedLaneMode()
    {
        sha256LanesForceScalar(false);
        sha256LanesDisableAvx512(false);
    }
    ScopedLaneMode(const ScopedLaneMode &) = delete;
    ScopedLaneMode &operator=(const ScopedLaneMode &) = delete;
};

class ChainX : public ::testing::TestWithParam<LaneMode>
{
};

TEST_P(ChainX, SegmentsMatchPerStepFAndOracleChain)
{
    const ScopedLaneMode mode(GetParam());
    RecordProperty("laneBackend",
                   laneBackendName(laneDispatch().backend));
    constexpr uint8_t untouched = 0xA5;

    for (const Params *pp : {&Params::sphincs128f(),
                             &Params::sphincs192f(),
                             &Params::sphincs256f()}) {
        const Params &p = *pp;
        const unsigned n = p.n;
        Context ctx = makeContext(p, 41);
        const oracle::SpxOracle spx(p, ctx.pkSeed(), ctx.skSeed());
        Rng rng(42);
        const uint32_t last = p.wotsW - 1;

        for (unsigned count = 1; count <= maxHashLanes; ++count) {
            for (uint32_t steps = 1; steps <= last; ++steps) {
                Address adrs[maxHashLanes];
                uint32_t start[maxHashLanes], cap_pos[maxHashLanes];
                ByteVec init[maxHashLanes];
                uint8_t vals[maxHashLanes][maxN];
                uint8_t caps[maxHashLanes][maxN];
                uint8_t *vptrs[maxHashLanes], *cptrs[maxHashLanes];
                for (unsigned l = 0; l < count; ++l) {
                    adrs[l].setLayer(l % 3);
                    adrs[l].setTree(1000 + count);
                    adrs[l].setType(AddrType::WotsHash);
                    adrs[l].setKeypair(steps);
                    adrs[l].setChain(l);
                    adrs[l].setHash(99); // ignored by the entry
                    // A full group covers every start for this step
                    // count and every capture step, the last one
                    // included; every fifth lane asks for its start
                    // position, which the entry does not capture.
                    start[l] = (l + count) % (last - steps + 1);
                    cap_pos[l] = l % 5 == 4
                                     ? start[l]
                                     : start[l] + 1 + (l + count) % steps;
                    init[l] = rng.bytes(n);
                    std::memcpy(vals[l], init[l].data(), n);
                    std::memset(caps[l], untouched, n);
                    vptrs[l] = vals[l];
                    cptrs[l] = caps[l];
                }
                Sha256::resetCompressionCount();
                thashChainX(vptrs, ctx, adrs, start, steps, count, cptrs,
                            cap_pos);
                const uint64_t chain_comps = Sha256::compressionCount();

                // The per-step reference: one scalar F per step.
                uint8_t want[maxHashLanes][maxN];
                uint8_t want_cap[maxHashLanes][maxN];
                Sha256::resetCompressionCount();
                for (unsigned l = 0; l < count; ++l) {
                    std::memset(want_cap[l], untouched, n);
                    std::memcpy(want[l], init[l].data(), n);
                    Address a = adrs[l];
                    for (uint32_t s = 0; s < steps; ++s) {
                        a.setHash(start[l] + s);
                        thashF(want[l], ctx, a, want[l]);
                        if (start[l] + s + 1 == cap_pos[l])
                            std::memcpy(want_cap[l], want[l], n);
                    }
                }
                ASSERT_EQ(chain_comps, Sha256::compressionCount());
                ASSERT_EQ(chain_comps, uint64_t{count} * steps);

                for (unsigned l = 0; l < count; ++l) {
                    const std::string where =
                        p.name + " count " + std::to_string(count) +
                        " steps " + std::to_string(steps) + " lane " +
                        std::to_string(l);
                    ASSERT_EQ(hexEncode(ByteSpan(vals[l], n)),
                              hexEncode(ByteSpan(want[l], n)))
                        << where;
                    ASSERT_EQ(hexEncode(ByteSpan(caps[l], n)),
                              hexEncode(ByteSpan(want_cap[l], n)))
                        << where;
                    Address oa = adrs[l];
                    ASSERT_EQ(hexEncode(spx.chain(init[l], start[l],
                                                  steps, oa)),
                              hexEncode(ByteSpan(vals[l], n)))
                        << where;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ChainX,
    ::testing::Values(LaneMode::Widest, LaneMode::Width8,
                      LaneMode::Scalar),
    [](const ::testing::TestParamInfo<LaneMode> &info) {
        return info.param == LaneMode::Widest   ? "Widest"
               : info.param == LaneMode::Width8 ? "Width8"
                                                : "Scalar";
    });

TEST(ChainXArgs, RejectsBadCountsAndOverlongChains)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 43);
    Address adrs[maxHashLanes + 1];
    uint8_t buf[maxHashLanes + 1][maxN] = {};
    uint8_t *vals[maxHashLanes + 1];
    uint32_t start[maxHashLanes + 1] = {};
    for (unsigned l = 0; l <= maxHashLanes; ++l)
        vals[l] = buf[l];
    const uint32_t last = p.wotsW - 1;

    EXPECT_THROW(thashChainX(vals, ctx, adrs, start, 1, 0),
                 std::invalid_argument);
    EXPECT_THROW(thashChainX(vals, ctx, adrs, start, 1, maxHashLanes + 1),
                 std::invalid_argument);
    EXPECT_THROW(thashChainX(vals, ctx, adrs, start, last + 1, 1),
                 std::invalid_argument);
    // One lane past the end fails the whole call.
    start[3] = last;
    EXPECT_THROW(thashChainX(vals, ctx, adrs, start, 1, maxHashLanes),
                 std::invalid_argument);
    start[3] = last + 1;
    EXPECT_THROW(thashChainX(vals, ctx, adrs, start, 0, 4),
                 std::invalid_argument);
    // Reaching w - 1 exactly is fine, and zero steps change nothing.
    start[3] = last - 2;
    Sha256::resetCompressionCount();
    EXPECT_NO_THROW(thashChainX(vals, ctx, adrs, start, 2, 4));
    EXPECT_NO_THROW(thashChainX(vals, ctx, adrs, start, 0, 4));
    EXPECT_EQ(Sha256::compressionCount(), 8u);
}

TEST(ChainKernel, DirectCallsMatchScalarStepsForEveryN)
{
    RecordProperty("laneBackend",
                   laneBackendName(laneDispatch().backend));
    if (!sha256LanesAvx512Active())
        GTEST_SKIP() << "the chain kernel needs active AVX-512 dispatch; "
                        "this run dispatches "
                     << laneBackendName(laneDispatch().backend);

    constexpr unsigned lanes = 16;
    Rng rng(44);
    Sha256State mid;
    for (unsigned i = 0; i < 8; ++i)
        mid.h[i] = static_cast<uint32_t>(rng.below(1ull << 32));
    mid.bytesCompressed = Sha256::blockSize;

    // Every n the block layout admits, not only the Table I sizes: the
    // pad byte walks through all four byte positions of a word.
    for (unsigned n = 1; n <= maxN; ++n) {
        for (unsigned steps : {1u, 2u, 7u, 15u}) {
            alignas(64) uint8_t blocks[lanes][Sha256::blockSize] = {};
            const uint8_t *bptrs[lanes];
            uint8_t out[lanes][maxN], cap[lanes][maxN];
            uint8_t *optrs[lanes], *cptrs[lanes];
            uint32_t cap_step[lanes];
            for (unsigned l = 0; l < lanes; ++l) {
                const ByteVec head = rng.bytes(18 + n);
                std::memcpy(blocks[l], head.data(), 18);
                // A 16-bit position field whose low byte carries into
                // the high byte during the walk on some lanes.
                storeBe32(blocks[l] + 18, 0xF8u * (l % 3) + l);
                std::memcpy(blocks[l] + 22, head.data() + 18, n);
                blocks[l][22 + n] = 0x80;
                storeBe64(blocks[l] + Sha256::blockSize - 8,
                          (Sha256::blockSize + 22 + n) * 8);
                bptrs[l] = blocks[l];
                optrs[l] = out[l];
                cptrs[l] = cap[l];
                cap_step[l] = l % (steps + 1); // 0: no capture
            }
            sha256Chain16SeededAvx512(mid.h, bptrs, n, steps, optrs,
                                      cap_step, cptrs);

            for (unsigned l = 0; l < lanes; ++l) {
                uint8_t block[Sha256::blockSize];
                std::memcpy(block, blocks[l], sizeof(block));
                uint8_t want_cap[maxN] = {};
                for (unsigned s = 1; s <= steps; ++s) {
                    std::array<uint32_t, 8> h = mid.h;
                    sha256CompressNative(h, block);
                    uint8_t digest[Sha256::digestSize];
                    for (int i = 0; i < 8; ++i)
                        storeBe32(digest + 4 * i, h[i]);
                    std::memcpy(block + 22, digest, n);
                    storeBe32(block + 18, loadBe32(block + 18) + 1);
                    if (s == cap_step[l])
                        std::memcpy(want_cap, digest, n);
                }
                const std::string where = "n " + std::to_string(n) +
                                          " steps " +
                                          std::to_string(steps) +
                                          " lane " + std::to_string(l);
                ASSERT_EQ(hexEncode(ByteSpan(out[l], n)),
                          hexEncode(ByteSpan(block + 22, n)))
                    << where;
                if (cap_step[l] != 0) {
                    ASSERT_EQ(hexEncode(ByteSpan(cap[l], n)),
                              hexEncode(ByteSpan(want_cap, n)))
                        << where;
                }
            }
        }
    }
}

TEST(ChainFaultSeam, SimdLaneCorruptsLeafBatchUnlessScalar)
{
    RecordProperty("laneBackend",
                   laneBackendName(laneDispatch().backend));
    if (laneDispatch().backend == LaneBackend::Scalar)
        GTEST_SKIP() << "needs active SIMD dispatch";

    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 45);
    const oracle::SpxOracle spx(p, ctx.pkSeed(), ctx.skSeed());
    constexpr unsigned leaves = 16;
    std::vector<ByteVec> want(leaves);
    for (unsigned j = 0; j < leaves; ++j) {
        Address a;
        a.setLayer(2);
        a.setTree(9);
        a.setKeypair(j);
        want[j] = spx.wotsPkGen(a);
    }
    auto leafBatch = [&] {
        std::vector<uint8_t> pks(leaves * p.n);
        std::vector<WotsLeafReq> reqs(leaves);
        for (unsigned j = 0; j < leaves; ++j) {
            reqs[j].layer = 2;
            reqs[j].tree = 9;
            reqs[j].keypair = j;
            reqs[j].leafOut = pks.data() + j * p.n;
        }
        wotsLeafBatch(ctx, reqs.data(), leaves);
        unsigned differing = 0;
        for (unsigned j = 0; j < leaves; ++j)
            differing += hexEncode(ByteSpan(pks.data() + j * p.n, p.n)) !=
                         hexEncode(want[j]);
        return differing;
    };

    FaultInjector &inj = FaultInjector::instance();
    const FaultPlan plan = FaultPlan::parse("simd-lane:every=1");
    inj.arm(plan);
    const unsigned faulty = leafBatch();
    const uint64_t simd_hits = inj.hits(FaultPoint::SimdLane);
    inj.arm(plan);
    unsigned scalar_differing = 0;
    {
        ScopedScalarLanes scalar;
        scalar_differing = leafBatch();
    }
    const uint64_t scalar_hits = inj.hits(FaultPoint::SimdLane);
    inj.disarm();

    EXPECT_GT(faulty, 0u);
    EXPECT_EQ(scalar_differing, 0u);
    EXPECT_EQ(scalar_hits, 0u);
    if (laneDispatch().backend == LaneBackend::Avx512) {
        // 16 leaves x 35 chains = 35 full groups: 35 chain-start PRF
        // batches plus 35 kernel calls of 15 steps, one hit each.
        const uint64_t groups = leaves * p.wotsLen() / 16;
        EXPECT_EQ(simd_hits, 2 * groups);
    }
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
