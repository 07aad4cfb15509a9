#include <cstring>

#include "core/kernels.hh"
#include "sphincs/merkle.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

namespace herosign::core
{

using sphincs::Address;
using sphincs::AddrType;
using sphincs::maxN;

namespace
{

template <typename Fn>
void
charged(gpu::BlockContext &blk, unsigned tid, Fn &&fn)
{
    const uint64_t before = Sha256::compressionCount();
    fn();
    blk.chargeHash(tid, Sha256::compressionCount() - before);
}

} // namespace

TreeSignKernel::TreeSignKernel(MessageJob &job, bool padded,
                               const MemPolicy &mem)
    : job_(job), mem_(mem)
{
    const sphincs::Params &p = job_.ctx->params();
    if (padded) {
        layout_ = std::make_unique<gpu::PaddedReductionLayout>(
            p.treeLeaves(), p.n, 0);
    } else {
        layout_ = std::make_unique<gpu::NaiveReductionLayout>(
            p.treeLeaves(), p.n, 0);
    }
}

unsigned
TreeSignKernel::blockThreads() const
{
    const sphincs::Params &p = job_.ctx->params();
    return p.layers * p.treeLeaves();
}

size_t
TreeSignKernel::sharedBytes() const
{
    const sphincs::Params &p = job_.ctx->params();
    return static_cast<size_t>(p.layers) * layout_->footprint();
}

unsigned
TreeSignKernel::numPhases(unsigned) const
{
    return 1 + job_.ctx->params().treeHeight();
}

void
TreeSignKernel::run(unsigned phase, gpu::BlockContext &blk, unsigned tid)
{
    const sphincs::Params &p = job_.ctx->params();
    const sphincs::Context &ctx = *job_.ctx;
    const unsigned n = p.n;
    const uint32_t leaves = p.treeLeaves();
    const unsigned th = p.treeHeight();

    if (phase == 0) {
        // wots_gen_leaf: one thread per hypertree leaf.
        if (tid >= p.layers * leaves)
            return;
        const unsigned layer = tid / leaves;
        const uint32_t leaf_idx = tid % leaves;
        const uint32_t region = layer * layout_->footprint();

        uint8_t leaf[maxN];
        charged(blk, tid, [&] {
            sphincs::wotsGenLeaf(leaf, ctx, layer,
                                 job_.layerTree[layer], leaf_idx);
        });
        // Each of the len chains derives a secret (sk_seed) and runs
        // under the pk_seed mid-state.
        mem_.chargeSeedRead(blk, tid, 2ull * p.wotsLen() * n);

        blk.storeShared(tid, region + layout_->nodeAddr(0, leaf_idx),
                        leaf, n);
        if (leaf_idx == (job_.layerLeaf[layer] ^ 1u)) {
            std::memcpy(job_.authPaths.data() +
                            (static_cast<size_t>(layer) * th + 0) * n,
                        leaf, n);
            blk.chargeGlobal(tid, n);
        }
        return;
    }

    // Reduction phases: level `phase` is produced from level
    // `phase - 1`, all d subtrees in parallel.
    const unsigned sub = phase;
    const uint32_t parents_per_tree = leaves >> sub;
    if (tid >= p.layers * parents_per_tree)
        return;
    const unsigned layer = tid / parents_per_tree;
    const uint32_t parent = tid % parents_per_tree;
    const uint32_t region = layer * layout_->footprint();

    uint8_t left[maxN], right[maxN], node[maxN];
    blk.loadShared(tid, region + layout_->nodeAddr(sub - 1, 2 * parent),
                   left, n);
    blk.loadShared(tid,
                   region + layout_->nodeAddr(sub - 1, 2 * parent + 1),
                   right, n);

    Address tree_adrs;
    tree_adrs.setLayer(layer);
    tree_adrs.setTree(job_.layerTree[layer]);
    tree_adrs.setType(AddrType::Tree);
    tree_adrs.setTreeHeight(sub);
    tree_adrs.setTreeIndex(parent);
    charged(blk, tid, [&] {
        sphincs::thashH(node, ctx, tree_adrs, left, right);
    });

    if (parents_per_tree == 1) {
        // Subtree root: consumed by WOTS+_Sign and the verifier path.
        std::memcpy(job_.roots.data() + static_cast<size_t>(layer) * n,
                    node, n);
        blk.chargeGlobal(tid, n);
    } else {
        blk.storeShared(tid, region + layout_->nodeAddr(sub, parent),
                        node, n);
    }

    if (sub < th && parent == ((job_.layerLeaf[layer] >> sub) ^ 1u)) {
        std::memcpy(job_.authPaths.data() +
                        (static_cast<size_t>(layer) * th + sub) * n,
                    node, n);
        blk.chargeGlobal(tid, n);
    }
}

} // namespace herosign::core
