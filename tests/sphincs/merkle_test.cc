/**
 * @file
 * treeLevels / auth-path / computeRootXN algebra: trees of several
 * heights, several per call, against the spec oracle's treehash, and
 * with a synthetic leaf function for cheap properties; plus
 * merkleSign and the simulator's wotsGenLeaf against the spec oracle.
 */

#include <gtest/gtest.h>

#include <map>

#include "../batch/batch_test_util.hh"
#include "common/random.hh"
#include "oracle/spx_oracle.hh"
#include "sphincs/merkle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;
using batchtest::ScopedWidth;

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
 * synthetic leaves idx_offset .. idx_offset + 2^height - 1, built by a
 * one-tree treeLevels() call.
 */
void
synthTree(uint8_t *root, uint8_t *auth, const Context &ctx,
          uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
          const Address &adrs)
{
    const unsigned n = ctx.params().n;
    ByteVec nodes((size_t{1} << height) * n);
    ByteVec scratch(nodes.size() / 2);
    for (uint32_t i = 0; i < (1u << height); ++i)
        syntheticLeaf(&nodes[i * n], ctx, idx_offset + i);
    TreeReq req;
    req.adrs = adrs;
    req.idxOffset = idx_offset;
    req.leafIdx = leaf_idx;
    req.authOut = auth;
    req.rootOut = root;
    treeLevels(ctx, height, &req, 1, nodes, scratch);
}

/** Keys and subtree address shared by every TreehashProperty case. */
struct OracleTrees
{
    const Params &p = Params::sphincs128f();
    ByteVec pkSeed = Rng(40).bytes(p.n);
    ByteVec skSeed = Rng(41).bytes(p.n);
    Context ctx{p, pkSeed, skSeed};
    oracle::SpxOracle spx{p, pkSeed, skSeed};
    Address adrs;
    std::map<std::pair<unsigned, unsigned>, ByteVec> roots;

    OracleTrees()
    {
        adrs.setLayer(1);
        adrs.setTree(9);
        adrs.setType(AddrType::Tree);
    }

    /** The oracle's treehash of tree @p i: leaves i * 2^height on. */
    const ByteVec &
    root(unsigned height, unsigned i)
    {
        auto [it, fresh] = roots.try_emplace({height, i});
        if (fresh)
            it->second = spx.treehash(i << height, height, adrs);
        return it->second;
    }
};

OracleTrees &
oracleTrees()
{
    static OracleTrees trees;
    return trees;
}

} // namespace

class TreehashProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, uint32_t, unsigned>>
{
};

TEST_P(TreehashProperty, LevelsMatchOracleAndAuthPathsRebuildRoots)
{
    // `count` hypertree-shaped trees in one call, tree i over the
    // WOTS leaves i * 2^height on: FORS-style offsets, so every tree's
    // node indices differ.
    const auto [height, leaf_pick, count] = GetParam();
    OracleTrees &o = oracleTrees();
    const Params &p = o.p;
    const unsigned n = p.n;
    const uint32_t leaves = 1u << height;

    ByteVec leaf_buf(static_cast<size_t>(count) * leaves * n);
    std::vector<WotsLeafReq> reqs(static_cast<size_t>(count) * leaves);
    for (uint32_t q = 0; q < reqs.size(); ++q) {
        reqs[q].layer = o.adrs.layer();
        reqs[q].tree = o.adrs.tree();
        reqs[q].keypair = q;
        reqs[q].leafOut = &leaf_buf[q * n];
    }
    wotsLeafBatch(o.ctx, reqs.data(), static_cast<unsigned>(reqs.size()));

    std::vector<TreeReq> trees(count);
    ByteVec roots(static_cast<size_t>(count) * n);
    ByteVec auth(static_cast<size_t>(count) * height * n);
    for (unsigned i = 0; i < count; ++i) {
        trees[i].adrs = o.adrs;
        trees[i].idxOffset = i * leaves;
        trees[i].leafIdx = (leaf_pick + 5 * i) % leaves;
        trees[i].authOut = &auth[i * height * n];
        trees[i].rootOut = &roots[i * n];
    }

    ByteVec first_auth;
    for (unsigned width : {1u, 8u, 16u}) {
        ScopedWidth w(width);
        ByteVec nodes = leaf_buf;
        ByteVec scratch(nodes.size() / 2);
        treeLevels(o.ctx, height, trees.data(), count, nodes, scratch);
        if (first_auth.empty())
            first_auth = auth;
        EXPECT_EQ(auth, first_auth) << "width " << width;

        for (unsigned i = 0; i < count; ++i) {
            const ByteSpan root(&roots[i * n], n);
            EXPECT_TRUE(ctEqual(root, o.root(height, i)))
                << "tree " << i << " width " << width;

            uint8_t rebuilt[maxN];
            uint8_t *const out[1] = {rebuilt};
            const uint8_t *const in[1] = {&leaf_buf[(i * leaves +
                                                     trees[i].leafIdx) *
                                                    n]};
            const uint8_t *const paths[1] = {trees[i].authOut};
            Address walk = o.adrs;
            computeRootXN(out, o.ctx, in, &trees[i].leafIdx,
                          &trees[i].idxOffset, paths, height, &walk, 1);
            EXPECT_TRUE(ctEqual(ByteSpan(rebuilt, n), root))
                << "tree " << i << " width " << width;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(HeightsLeavesAndTrees, TreehashProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u),
                       ::testing::Values(0u, 1u, 2u, 5u, 7u, 12u, 63u),
                       ::testing::Values(1u, 3u, 17u)));

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
    synthTree(root_a, auth.data(), ctx, 3, 0, height, adrs);
    synthTree(root_b, auth.data(), ctx, 11, 0, height, adrs);
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
    EXPECT_NO_THROW(synthTree(root, nullptr, ctx, 0, 0, 3, adrs));
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
    synthTree(r1, nullptr, ctx, 0, 0, 3, adrs);
    synthTree(r2, nullptr, ctx, 0, 8, 3, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(r1, p.n), ByteSpan(r2, p.n)));
}

TEST(Treehash, LevelsRejectShortBuffersAndStrayLeaves)
{
    const Params &p = Params::sphincs128f();
    Rng rng(56);
    Context ctx = makeContext(rng, p);
    uint8_t root[maxN];
    uint8_t auth[3 * maxN];
    TreeReq trees[2];
    trees[0].rootOut = trees[1].rootOut = root;
    trees[1].authOut = auth;

    // Two trees of height 3 need 16 leaves and 8 scratch nodes.
    ByteVec nodes(16 * p.n), scratch(8 * p.n);
    EXPECT_NO_THROW(treeLevels(ctx, 3, trees, 2, nodes, scratch));
    EXPECT_THROW(treeLevels(ctx, 3, trees, 2,
                            MutByteSpan(nodes).first(15 * p.n), scratch),
                 std::invalid_argument);
    EXPECT_THROW(treeLevels(ctx, 3, trees, 2, nodes,
                            MutByteSpan(scratch).first(7 * p.n)),
                 std::invalid_argument);

    // Leaf 8 of a height-3 tree does not exist: its auth path would be
    // read from past the tree's nodes (merkleSign() passes a caller's
    // index through).
    trees[1].leafIdx = 8;
    EXPECT_THROW(treeLevels(ctx, 3, trees, 2, nodes, scratch),
                 std::invalid_argument);
    EXPECT_THROW(xmssTreehash(root, auth, ctx, 0, 0, p.treeLeaves()),
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
