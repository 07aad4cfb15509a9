#include "sphincs/merkle.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

void
treeLevels(const Context &ctx, unsigned height, const TreeReq trees[],
           size_t count, MutByteSpan nodes, MutByteSpan scratch)
{
    const size_t n = ctx.params().n;
    const size_t leaves = count << height;
    if (nodes.size() < leaves * n || scratch.size() < leaves / 2 * n)
        throw std::invalid_argument("treeLevels: node buffer too short");
    for (size_t i = 0; i < count; ++i)
        if (trees[i].leafIdx >> height)
            throw std::invalid_argument("treeLevels: leaf outside its tree");
    // Nodes g .. g + span - 1 of a level, as a checked view.
    const auto at = [n](MutByteSpan level, size_t g, size_t span) {
        return level.subspan(g * n, span * n).data();
    };

    const unsigned width = hashLaneWidth();
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    MutByteSpan cur = nodes;
    MutByteSpan next = scratch;
    for (unsigned h = 0; h < height; ++h) {
        // Each tree has 2^shift nodes on the level being built.
        const unsigned shift = height - h - 1;
        for (size_t i = 0; i < count; ++i) {
            const TreeReq &t = trees[i];
            const size_t sibling =
                (i << (shift + 1)) + ((t.leafIdx >> h) ^ 1u);
            if (t.authOut)
                std::memcpy(t.authOut + h * n, at(cur, sibling, 1), n);
        }
        const size_t combines = count << shift;
        for (size_t g0 = 0; g0 < combines; g0 += width) {
            const unsigned m = static_cast<unsigned>(
                std::min<size_t>(width, combines - g0));
            for (unsigned j = 0; j < m; ++j) {
                const size_t g = g0 + j;
                const TreeReq &t = trees[g >> shift];
                adrs[j] = t.adrs;
                adrs[j].setTreeHeight(h + 1);
                adrs[j].setTreeIndex(
                    (t.idxOffset >> (h + 1)) +
                    static_cast<uint32_t>(g & ((size_t{1} << shift) - 1)));
                ins[j] = at(cur, 2 * g, 2);
                outs[j] = at(next, g, 1);
            }
            thashX(outs, ctx, adrs, ins, 2 * n, m);
        }
        std::swap(cur, next);
    }
    for (size_t i = 0; i < count; ++i)
        std::memcpy(trees[i].rootOut, at(cur, i, 1), n);
}

void
computeRootXN(uint8_t *const root[], const Context &ctx,
              const uint8_t *const leaf[], const uint32_t leaf_idx[],
              const uint32_t idx_offset[],
              const uint8_t *const auth_path[], unsigned height,
              Address tree_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "computeRootXN: count must be 1..16");
    const unsigned n = ctx.params().n;

    // Current node per lane; the walks advance in lockstep because
    // every lane climbs the same number of levels.
    uint8_t nodes[maxHashLanes][maxN];
    uint8_t pairs[maxHashLanes][2 * maxN];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        std::memcpy(nodes[l], leaf[l], n);
        outs[l] = nodes[l];
        ins[l] = pairs[l];
    }

    for (unsigned h = 0; h < height; ++h) {
        for (unsigned l = 0; l < count; ++l) {
            tree_adrs[l].setTreeHeight(h + 1);
            tree_adrs[l].setTreeIndex((leaf_idx[l] >> (h + 1)) +
                                      (idx_offset[l] >> (h + 1)));
            const uint8_t *sibling = auth_path[l] + h * n;
            if ((leaf_idx[l] >> h) & 1u) {
                std::memcpy(pairs[l], sibling, n);
                std::memcpy(pairs[l] + n, nodes[l], n);
            } else {
                std::memcpy(pairs[l], nodes[l], n);
                std::memcpy(pairs[l] + n, sibling, n);
            }
        }
        thashX(outs, ctx, tree_adrs, ins, 2 * n, count);
    }
    for (unsigned l = 0; l < count; ++l)
        std::memcpy(root[l], nodes[l], n);
}

void
wotsGenLeaf(uint8_t *leaf_out, const Context &ctx, uint32_t layer,
            uint64_t tree, uint32_t leaf_idx)
{
    WotsLeafReq req;
    req.layer = layer;
    req.tree = tree;
    req.keypair = leaf_idx;
    req.leafOut = leaf_out;
    wotsLeafBatch(ctx, &req, 1);
}

void
xmssTreehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
             uint32_t layer, uint64_t tree, uint32_t leaf_idx)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const uint32_t total = p.treeLeaves();
    ByteVec nodes(static_cast<size_t>(total) * n);
    ByteVec scratch(nodes.size() / 2);

    std::vector<WotsLeafReq> reqs(total);
    for (uint32_t j = 0; j < total; ++j) {
        reqs[j].layer = layer;
        reqs[j].tree = tree;
        reqs[j].keypair = j;
        reqs[j].leafOut = &nodes[static_cast<size_t>(j) * n];
    }
    wotsLeafBatch(ctx, reqs.data(), total);

    TreeReq req;
    req.adrs.setLayer(layer);
    req.adrs.setTree(tree);
    req.adrs.setType(AddrType::Tree);
    req.leafIdx = leaf_idx;
    req.authOut = auth_path;
    req.rootOut = root;
    treeLevels(ctx, p.treeHeight(), &req, 1, nodes, scratch);
}

void
merkleSign(uint8_t *sig, uint8_t *root_out, const Context &ctx,
           uint32_t layer, uint64_t tree, uint32_t leaf_idx,
           const uint8_t *msg)
{
    Address wots_adrs;
    wots_adrs.setLayer(layer);
    wots_adrs.setTree(tree);
    wots_adrs.setType(AddrType::WotsHash);
    wots_adrs.setKeypair(leaf_idx);
    wotsSign(sig, msg, ctx, wots_adrs);
    xmssTreehash(root_out, sig + ctx.params().wotsSigBytes(), ctx, layer,
                 tree, leaf_idx);
}

} // namespace herosign::sphincs
