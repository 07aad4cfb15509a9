#include <cstring>
#include <stdexcept>

#include "core/kernels.hh"
#include "sphincs/fors.hh"
#include "sphincs/thash.hh"

namespace herosign::core
{

using sphincs::Address;
using sphincs::AddrType;
using sphincs::maxN;

void
MessageJob::allocate(const sphincs::Params &params)
{
    forsSig.assign(params.forsSigBytes(), 0);
    forsPk.assign(params.n, 0);
    authPaths.assign(static_cast<size_t>(params.layers) *
                         params.treeHeight() * params.n,
                     0);
    roots.assign(static_cast<size_t>(params.layers) * params.n, 0);
    wotsMessages.assign(static_cast<size_t>(params.layers) * params.n,
                        0);
    wotsSigs.assign(static_cast<size_t>(params.layers) *
                        params.wotsSigBytes(),
                    0);
    layerTree.assign(params.layers, 0);
    layerLeaf.assign(params.layers, 0);
}

namespace
{

/** Run a hash-bearing closure and charge its compressions to tid. */
template <typename Fn>
void
charged(gpu::BlockContext &blk, unsigned tid, Fn &&fn)
{
    const uint64_t before = Sha256::compressionCount();
    fn();
    blk.chargeHash(tid, Sha256::compressionCount() - before);
}

} // namespace

ForsSignKernel::ForsSignKernel(MessageJob &job, const ForsGeometry &geo,
                               const MemPolicy &mem)
    : job_(job), geo_(geo), mem_(mem)
{
    const sphincs::Params &p = job_.ctx->params();
    const uint32_t t = p.forsLeaves();
    const uint32_t layout_leaves = geo_.relax ? t / 2 : t;
    if (geo_.threadsPerSet == 0) {
        geo_.threadsPerSet =
            geo_.treesPerSet * (geo_.relax ? t / 2 : t);
    }
    if (geo_.threadsPerSet !=
        geo_.treesPerSet * (geo_.relax ? t / 2 : t)) {
        throw std::invalid_argument(
            "ForsSignKernel: threadsPerSet must be Ntree * Tmin");
    }

    if (geo_.padded) {
        layout_ = std::make_unique<gpu::PaddedReductionLayout>(
            layout_leaves, p.n, 0);
    } else {
        layout_ = std::make_unique<gpu::NaiveReductionLayout>(
            layout_leaves, p.n, 0);
    }
    storedLevels_ = geo_.relax ? p.forsHeight - 1 : p.forsHeight;
    rootsBase_ = geo_.fusedSets * geo_.treesPerSet *
                 layout_->footprint();
}

const gpu::ReductionLayout &
ForsSignKernel::treeLayout() const
{
    return *layout_;
}

uint32_t
ForsSignKernel::treeRegionBase(unsigned fused_idx,
                               unsigned tree_in_set) const
{
    return (fused_idx * geo_.treesPerSet + tree_in_set) *
           layout_->footprint();
}

size_t
ForsSignKernel::sharedBytes() const
{
    const sphincs::Params &p = job_.ctx->params();
    return rootsBase_ + static_cast<size_t>(p.forsTrees) * p.n;
}

unsigned
ForsSignKernel::numPhases(unsigned) const
{
    const sphincs::Params &p = job_.ctx->params();
    return geo_.rounds(p.forsTrees) * (1 + storedLevels_) + 1;
}

void
ForsSignKernel::run(unsigned phase, gpu::BlockContext &blk, unsigned tid)
{
    const sphincs::Params &p = job_.ctx->params();
    const unsigned per_round = 1 + storedLevels_;
    const unsigned rounds = geo_.rounds(p.forsTrees);
    if (phase == rounds * per_round) {
        compressRoots(blk, tid);
        return;
    }
    const unsigned round = phase / per_round;
    const unsigned sub = phase % per_round;
    if (sub == 0)
        leafGen(blk, tid, round);
    else
        reduceLevel(blk, tid, round, sub);
}

void
ForsSignKernel::leafGen(gpu::BlockContext &blk, unsigned tid,
                        unsigned round)
{
    const sphincs::Params &p = job_.ctx->params();
    const sphincs::Context &ctx = *job_.ctx;
    const unsigned n = p.n;
    const uint32_t t = p.forsLeaves();
    const unsigned t_min = geo_.relax ? t / 2 : t;
    if (tid >= geo_.threadsPerSet)
        return;
    const unsigned tree_in_set = tid / t_min;
    const unsigned pos = tid % t_min;
    const size_t sig_stride = static_cast<size_t>(p.forsHeight + 1) * n;

    Address fors_adrs;
    fors_adrs.setLayer(0);
    fors_adrs.setTree(job_.idxTree);
    fors_adrs.setType(AddrType::ForsTree);
    fors_adrs.setKeypair(job_.idxLeaf);

    for (unsigned f = 0; f < geo_.fusedSets; ++f) {
        const unsigned set = round * geo_.fusedSets + f;
        const unsigned g = set * geo_.treesPerSet + tree_in_set;
        if (set >= geo_.setsTotal(p.forsTrees) || g >= p.forsTrees)
            continue;
        const uint32_t region = treeRegionBase(f, tree_in_set);
        const uint32_t sel = job_.forsIndices[g];
        uint8_t *sig_tree = job_.forsSig.data() + g * sig_stride;

        auto make_leaf = [&](uint32_t j, uint8_t *leaf_out) {
            const uint32_t abs = g * t + j;
            uint8_t sk[maxN];
            charged(blk, tid, [&] {
                sphincs::forsSkGen(sk, ctx, fors_adrs, abs);
            });
            // FORS thash calls are short-lived: each re-reads the
            // seeded state block (64 B) — the traffic HybridME moves
            // to constant memory (paper §III-D).
            mem_.chargeSeedRead(blk, tid, 64);
            mem_.chargeSeedRead(blk, tid, 64); // the F call below
            if (j == sel) {
                std::memcpy(sig_tree, sk, n);
                blk.chargeGlobal(tid, n);
            }
            Address leaf_adrs = fors_adrs;
            leaf_adrs.setTreeHeight(0);
            leaf_adrs.setTreeIndex(abs);
            charged(blk, tid, [&] {
                sphincs::thashF(leaf_out, ctx, leaf_adrs, sk);
            });
            if (j == (sel ^ 1u)) {
                std::memcpy(sig_tree + n, leaf_out, n);
                blk.chargeGlobal(tid, n);
            }
        };

        if (!geo_.relax) {
            uint8_t leaf[maxN];
            make_leaf(pos, leaf);
            blk.storeShared(tid, region + layout_->nodeAddr(0, pos),
                            leaf, n);
        } else {
            // Relax-FORS: two leaves in the register relax buffer,
            // combine immediately, store only the level-1 parent.
            uint8_t leaf0[maxN], leaf1[maxN], parent[maxN];
            make_leaf(2 * pos, leaf0);
            make_leaf(2 * pos + 1, leaf1);
            Address h_adrs = fors_adrs;
            h_adrs.setTreeHeight(1);
            h_adrs.setTreeIndex(pos + ((g * t) >> 1));
            charged(blk, tid, [&] {
                sphincs::thashH(parent, ctx, h_adrs, leaf0, leaf1);
            });
            mem_.chargeSeedRead(blk, tid, 64);
            blk.storeShared(tid, region + layout_->nodeAddr(0, pos),
                            parent, n);
            if (pos == ((sel >> 1) ^ 1u)) {
                // The level-1 auth node is produced right here.
                std::memcpy(sig_tree + 2 * n, parent, n);
                blk.chargeGlobal(tid, n);
            }
        }
    }
}

void
ForsSignKernel::reduceLevel(gpu::BlockContext &blk, unsigned tid,
                            unsigned round, unsigned sub)
{
    const sphincs::Params &p = job_.ctx->params();
    const sphincs::Context &ctx = *job_.ctx;
    const unsigned n = p.n;
    const uint32_t t = p.forsLeaves();
    const uint32_t layout_leaves = geo_.relax ? t / 2 : t;
    const uint32_t parents_per_tree = layout_leaves >> sub;
    const size_t sig_stride = static_cast<size_t>(p.forsHeight + 1) * n;
    // Level produced in real tree coordinates.
    const unsigned out_level = geo_.relax ? sub + 1 : sub;

    // Threads keep their leaf-generation tree assignment ("Threads
    // Fixed per Set", Algorithm 1 line 12): each tree's reduction is
    // handled by the warps that own its leaves, so a warp never
    // mixes trees — which is what keeps the padded layout fully
    // conflict-free (Table VI) at every level.
    const unsigned t_min = geo_.relax ? t / 2 : t;
    if (tid >= geo_.threadsPerSet)
        return;
    const unsigned tree_in_set = tid / t_min;
    const uint32_t parent = tid % t_min;
    if (parent >= parents_per_tree)
        return;

    Address fors_adrs;
    fors_adrs.setLayer(0);
    fors_adrs.setTree(job_.idxTree);
    fors_adrs.setType(AddrType::ForsTree);
    fors_adrs.setKeypair(job_.idxLeaf);

    for (unsigned f = 0; f < geo_.fusedSets; ++f) {
        const unsigned set = round * geo_.fusedSets + f;
        const unsigned g = set * geo_.treesPerSet + tree_in_set;
        if (set >= geo_.setsTotal(p.forsTrees) || g >= p.forsTrees)
            continue;
        const uint32_t region = treeRegionBase(f, tree_in_set);
        const uint32_t sel = job_.forsIndices[g];
        uint8_t *sig_tree = job_.forsSig.data() + g * sig_stride;

        uint8_t left[maxN], right[maxN], node[maxN];
        blk.loadShared(tid,
                       region + layout_->nodeAddr(sub - 1, 2 * parent),
                       left, n);
        blk.loadShared(tid,
                       region +
                           layout_->nodeAddr(sub - 1, 2 * parent + 1),
                       right, n);

        Address h_adrs = fors_adrs;
        h_adrs.setTreeHeight(out_level);
        h_adrs.setTreeIndex(parent + ((g * t) >> out_level));
        charged(blk, tid, [&] {
            sphincs::thashH(node, ctx, h_adrs, left, right);
        });
        mem_.chargeSeedRead(blk, tid, 64);

        if (parents_per_tree == 1) {
            // Root: stash in the shared roots region for the final
            // compression phase.
            blk.storeShared(tid, rootsBase_ + g * n, node, n);
        } else {
            blk.storeShared(tid,
                            region + layout_->nodeAddr(sub, parent),
                            node, n);
        }

        if (out_level < p.forsHeight &&
            parent == ((sel >> out_level) ^ 1u)) {
            std::memcpy(sig_tree + (1 + out_level) * n, node, n);
            blk.chargeGlobal(tid, n);
        }
    }
}

void
ForsSignKernel::compressRoots(gpu::BlockContext &blk, unsigned tid)
{
    if (tid != 0)
        return;
    const sphincs::Params &p = job_.ctx->params();
    const sphincs::Context &ctx = *job_.ctx;
    const unsigned n = p.n;

    std::vector<uint8_t> roots(static_cast<size_t>(p.forsTrees) * n);
    for (unsigned g = 0; g < p.forsTrees; ++g) {
        blk.loadShared(tid, rootsBase_ + g * n, roots.data() + g * n,
                       n);
    }

    Address pk_adrs;
    pk_adrs.setLayer(0);
    pk_adrs.setTree(job_.idxTree);
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(job_.idxLeaf);
    charged(blk, tid, [&] {
        sphincs::thash(job_.forsPk.data(), ctx, pk_adrs, roots);
    });
    mem_.chargeSeedRead(blk, tid, 64);
    blk.chargeGlobal(tid, n);
}

} // namespace herosign::core
