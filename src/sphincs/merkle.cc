#include "sphincs/merkle.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

void
TreehashStream::begin(const Context &ctx, unsigned height,
                      uint32_t leaf_idx, uint32_t idx_offset,
                      uint8_t *auth_path, const Address &tree_adrs)
{
    if (height > maxHeight)
        throw std::invalid_argument(
            "TreehashStream: height exceeds bound");
    ctx_ = &ctx;
    adrs_ = tree_adrs;
    auth_ = auth_path;
    leafIdx_ = leaf_idx;
    idxOffset_ = idx_offset;
    next_ = 0;
    total_ = 1u << height;
    height_ = height;
    sp_ = 0;
}

const uint8_t *
TreehashStream::root() const
{
    if (!done())
        throw std::logic_error(
            "TreehashStream: root before all leaves absorbed");
    return stack_;
}

void
TreehashStream::absorbLockstep(TreehashStream *const streams[],
                               const uint8_t *const leaves[],
                               unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "TreehashStream::absorbLockstep: count must be 1..16");
    const TreehashStream &lead = *streams[0];
    if (!lead.ctx_)
        throw std::logic_error(
            "TreehashStream: absorbLockstep before begin");
    for (unsigned l = 1; l < count; ++l) {
        if (streams[l]->ctx_ != lead.ctx_ ||
            streams[l]->height_ != lead.height_ ||
            streams[l]->next_ != lead.next_)
            throw std::invalid_argument(
                "TreehashStream::absorbLockstep: streams must share "
                "context, height and absorbed count");
    }

    const unsigned n = lead.ctx_->params().n;
    const uint32_t idx = lead.next_;
    if (idx >= lead.total_)
        throw std::invalid_argument(
            "TreehashStream: absorbing past the leaf count");

    // Per-stream current node plus the left||right pair scratch each
    // batched combine hashes from.
    uint8_t nodes[maxHashLanes][maxN];
    uint8_t pairs[maxHashLanes][2 * maxN];
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        std::memcpy(nodes[l], leaves[l], n);
        TreehashStream &s = *streams[l];
        if (s.auth_ && (s.leafIdx_ ^ 1u) == idx)
            std::memcpy(s.auth_, nodes[l], n);
        outs[l] = nodes[l];
        ins[l] = pairs[l];
    }

    // Same-shape streams at the same position collapse identically,
    // so the cascade depth is shared and each level is one batch.
    unsigned node_height = 0;
    while (lead.sp_ > 0 &&
           lead.stackHeights_[lead.sp_ - 1] == node_height) {
        for (unsigned l = 0; l < count; ++l) {
            TreehashStream &s = *streams[l];
            s.adrs_.setTreeHeight(node_height + 1);
            s.adrs_.setTreeIndex((idx >> (node_height + 1)) +
                                 (s.idxOffset_ >> (node_height + 1)));
            adrs[l] = s.adrs_;
            const uint8_t *left =
                s.stack_ + static_cast<size_t>(s.sp_ - 1) * n;
            std::memcpy(pairs[l], left, n);
            std::memcpy(pairs[l] + n, nodes[l], n);
        }
        thashX(outs, *lead.ctx_, adrs, ins, 2 * static_cast<size_t>(n),
               count);
        ++node_height;
        for (unsigned l = 0; l < count; ++l) {
            TreehashStream &s = *streams[l];
            --s.sp_;
            if (s.auth_ && ((s.leafIdx_ >> node_height) ^ 1u) ==
                               (idx >> node_height))
                std::memcpy(s.auth_ + node_height * n, nodes[l], n);
        }
    }

    for (unsigned l = 0; l < count; ++l) {
        TreehashStream &s = *streams[l];
        std::memcpy(s.stack_ + static_cast<size_t>(s.sp_) * n, nodes[l],
                    n);
        s.stackHeights_[s.sp_] = node_height;
        ++s.sp_;
        ++s.next_;
    }
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

    Address tree_adrs;
    tree_adrs.setLayer(layer);
    tree_adrs.setTree(tree);
    tree_adrs.setType(AddrType::Tree);
    TreehashStream stream;
    stream.begin(ctx, p.treeHeight(), leaf_idx, 0, auth_path, tree_adrs);
    TreehashStream *const streams[1] = {&stream};

    uint8_t leaves[maxHashLanes * maxN];
    WotsLeafReq reqs[maxHashLanes];
    const uint32_t total = p.treeLeaves();
    for (uint32_t base = 0; base < total; base += maxHashLanes) {
        const uint32_t m = std::min<uint32_t>(maxHashLanes, total - base);
        for (uint32_t j = 0; j < m; ++j) {
            reqs[j].layer = layer;
            reqs[j].tree = tree;
            reqs[j].keypair = base + j;
            reqs[j].leafOut = leaves + static_cast<size_t>(j) * n;
        }
        wotsLeafBatch(ctx, reqs, m);
        for (uint32_t j = 0; j < m; ++j) {
            const uint8_t *leaf = reqs[j].leafOut;
            TreehashStream::absorbLockstep(streams, &leaf, 1);
        }
    }
    std::memcpy(root, stream.root(), n);
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
