/**
 * @file
 * TreehashStream / auth-path / computeRootXN algebra, with a synthetic
 * leaf function so trees of several heights can be exercised cheaply,
 * plus merkleSign and the simulator's wotsGenLeaf against the spec
 * oracle.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "oracle/spx_oracle.hh"
#include "sphincs/merkle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

Context
makeContext(Rng &rng, const Params &p)
{
    return Context(p, rng.bytes(p.n), rng.bytes(p.n));
}

/** Deterministic synthetic leaf: F(index bytes) under a FORS address. */
void
syntheticLeaf(uint8_t *out, const Context &ctx, uint32_t idx)
{
    uint8_t seed[maxN] = {};
    storeBe32(seed, idx);
    Address a;
    a.setType(AddrType::ForsTree);
    a.setTreeHeight(0);
    a.setTreeIndex(idx);
    thashF(out, ctx, a, seed);
}

/**
 * Root (and optionally the auth path of @p leaf_idx) of the tree of
 * synthetic leaves idx_offset .. idx_offset + 2^height - 1, absorbed
 * one leaf at a time into a lone stream.
 */
void
streamTree(uint8_t *root, uint8_t *auth, const Context &ctx,
           uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
           const Address &adrs)
{
    TreehashStream stream;
    stream.begin(ctx, height, leaf_idx, idx_offset, auth, adrs);
    TreehashStream *const streams[1] = {&stream};
    uint8_t leaf[maxN];
    const uint8_t *leaves[1] = {leaf};
    for (uint32_t i = 0; i < (1u << height); ++i) {
        syntheticLeaf(leaf, ctx, idx_offset + i);
        TreehashStream::absorbLockstep(streams, leaves, 1);
    }
    std::memcpy(root, stream.root(), ctx.params().n);
}

} // namespace

class TreehashProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, uint32_t>>
{
};

TEST_P(TreehashProperty, AuthPathReconstructsRoot)
{
    const auto [height, leaf_pick] = GetParam();
    const Params &p = Params::sphincs128f();
    Rng rng(40 + height);
    Context ctx = makeContext(rng, p);

    const uint32_t leaves = 1u << height;
    const uint32_t leaf_idx = leaf_pick % leaves;

    Address tree_adrs;
    tree_adrs.setType(AddrType::ForsTree);

    ByteVec auth(height * p.n);
    uint8_t root[maxN];
    streamTree(root, auth.data(), ctx, leaf_idx, 0, height, tree_adrs);

    uint8_t leaf[maxN];
    syntheticLeaf(leaf, ctx, leaf_idx);

    uint8_t rebuilt[maxN];
    uint8_t *const out[1] = {rebuilt};
    const uint8_t *const in[1] = {leaf};
    const uint8_t *const paths[1] = {auth.data()};
    const uint32_t offset = 0;
    computeRootXN(out, ctx, in, &leaf_idx, &offset, paths, height,
                  &tree_adrs, 1);

    EXPECT_TRUE(ctEqual(ByteSpan(rebuilt, p.n), ByteSpan(root, p.n)));
}

INSTANTIATE_TEST_SUITE_P(HeightsAndLeaves, TreehashProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u),
                       ::testing::Values(0u, 1u, 2u, 5u, 7u, 12u, 63u)));

TEST(Treehash, RootIndependentOfAuthLeaf)
{
    const Params &p = Params::sphincs128f();
    Rng rng(50);
    Context ctx = makeContext(rng, p);

    Address adrs;
    adrs.setType(AddrType::ForsTree);
    const unsigned height = 4;

    ByteVec auth(height * p.n);
    uint8_t root_a[maxN], root_b[maxN];
    streamTree(root_a, auth.data(), ctx, 3, 0, height, adrs);
    streamTree(root_b, auth.data(), ctx, 11, 0, height, adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(root_a, p.n), ByteSpan(root_b, p.n)));
}

TEST(Treehash, NullAuthPathAllowed)
{
    const Params &p = Params::sphincs128f();
    Rng rng(51);
    Context ctx = makeContext(rng, p);
    Address adrs;
    adrs.setType(AddrType::ForsTree);
    uint8_t root[maxN];
    EXPECT_NO_THROW(streamTree(root, nullptr, ctx, 0, 0, 3, adrs));
}

TEST(Treehash, IdxOffsetChangesRoot)
{
    // FORS trees differ only by their index offset; the roots must
    // differ even for identical leaf contents ordering.
    const Params &p = Params::sphincs128f();
    Rng rng(52);
    Context ctx = makeContext(rng, p);

    Address adrs;
    adrs.setType(AddrType::ForsTree);

    uint8_t r1[maxN], r2[maxN];
    streamTree(r1, nullptr, ctx, 0, 0, 3, adrs);
    streamTree(r2, nullptr, ctx, 0, 8, 3, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(r1, p.n), ByteSpan(r2, p.n)));
}

TEST(Treehash, StreamRejectsMisuse)
{
    const Params &p = Params::sphincs128f();
    Rng rng(56);
    Context ctx = makeContext(rng, p);
    Address adrs;
    TreehashStream tall;
    EXPECT_THROW(tall.begin(ctx, TreehashStream::maxHeight + 1, 0, 0,
                            nullptr, adrs),
                 std::invalid_argument);

    // Streams of different heights cannot share a lockstep group, and
    // no stream takes more than its 2^height leaves.
    TreehashStream a, b;
    a.begin(ctx, 1, 0, 0, nullptr, adrs);
    b.begin(ctx, 2, 0, 0, nullptr, adrs);
    uint8_t leaf[maxN] = {};
    const uint8_t *leaves[2] = {leaf, leaf};
    TreehashStream *mixed[2] = {&a, &b};
    EXPECT_THROW(TreehashStream::absorbLockstep(mixed, leaves, 2),
                 std::invalid_argument);
    TreehashStream *lone[1] = {&a};
    TreehashStream::absorbLockstep(lone, leaves, 1);
    EXPECT_THROW(a.root(), std::logic_error);
    TreehashStream::absorbLockstep(lone, leaves, 1);
    EXPECT_NO_THROW(a.root());
    EXPECT_THROW(TreehashStream::absorbLockstep(lone, leaves, 1),
                 std::invalid_argument);
}

TEST(MerkleSign, MatchesOracleXmssSign)
{
    const Params &p = Params::sphincs128f();
    Rng rng(53);
    const ByteVec pk_seed = rng.bytes(p.n);
    const ByteVec sk_seed = rng.bytes(p.n);
    Context ctx(p, pk_seed, sk_seed);

    const uint32_t layer = 1;
    const uint64_t tree = 9;
    const uint32_t leaf_idx = 5;

    ByteVec msg = rng.bytes(p.n);
    ByteVec sig(p.xmssSigBytes());
    uint8_t root[maxN];
    merkleSign(sig.data(), root, ctx, layer, tree, leaf_idx, msg.data());

    const oracle::SpxOracle spx(p, pk_seed, sk_seed);
    Address adrs;
    adrs.setLayer(layer);
    adrs.setTree(tree);
    EXPECT_EQ(sig, spx.xmssSign(msg, leaf_idx, adrs));
    const ByteVec want_root = spx.treehash(0, p.treeHeight(), adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(root, p.n), want_root));
    EXPECT_EQ(spx.xmssPkFromSig(leaf_idx, sig, msg, adrs), want_root);
}

TEST(MerkleSign, WotsGenLeafMatchesOracle)
{
    const Params &p = Params::sphincs128f();
    Rng rng(54);
    const ByteVec pk_seed = rng.bytes(p.n);
    const ByteVec sk_seed = rng.bytes(p.n);
    Context ctx(p, pk_seed, sk_seed);

    uint8_t leaf[maxN];
    wotsGenLeaf(leaf, ctx, 2, 4, 1);

    Address adrs;
    adrs.setLayer(2);
    adrs.setTree(4);
    adrs.setType(AddrType::WotsHash);
    adrs.setKeypair(1);
    const ByteVec want =
        oracle::SpxOracle(p, pk_seed, sk_seed).wotsPkGen(adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(leaf, p.n), want));
}
