#include "sphincs/fors.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/merkle.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

namespace herosign::sphincs
{

namespace
{

/**
 * Leaves per forsTreeBatch() chunk: it takes whole trees while their
 * leaves fit, and a taller tree is a chunk of its own. This bounds the
 * slab (128 KiB at n = 32, plus half that of scratch), so a group's
 * G * k trees never need their leaves all at once.
 */
constexpr size_t chunkLeaves = 4096;

} // namespace

void
messageToIndices(uint32_t *indices, const Params &params,
                 const uint8_t *mhash)
{
    const unsigned a = params.forsHeight;
    size_t offset = 0; // bit offset into mhash
    for (unsigned i = 0; i < params.forsTrees; ++i) {
        uint32_t idx = 0;
        for (unsigned bit = 0; bit < a; ++bit) {
            idx <<= 1;
            idx |= (mhash[offset >> 3] >> (7 - (offset & 7))) & 1u;
            ++offset;
        }
        indices[i] = idx;
    }
}

void
forsSkGen(uint8_t *out, const Context &ctx, const Address &fors_adrs,
          uint32_t idx)
{
    Address sk_adrs = fors_adrs;
    sk_adrs.setType(AddrType::ForsPrf);
    sk_adrs.setKeypair(fors_adrs.keypair());
    sk_adrs.setTreeHeight(0);
    sk_adrs.setTreeIndex(idx);
    prfAddr(out, ctx, sk_adrs);
}

void
forsLeafBatch(const Context &ctx, const ForsLeafReq reqs[],
              unsigned count)
{
    const unsigned n = ctx.params().n;
    uint8_t sks[maxHashLanes * maxN];
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];

    for (unsigned base = 0; base < count; base += maxHashLanes) {
        const unsigned m = std::min(maxHashLanes, count - base);

        // Secret leaf values, one PRF batch.
        for (unsigned j = 0; j < m; ++j) {
            const ForsLeafReq &r = reqs[base + j];
            adrs[j] = r.adrs;
            adrs[j].setType(AddrType::ForsPrf);
            adrs[j].setKeypair(r.adrs.keypair());
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(r.idx);
            outs[j] = sks + static_cast<size_t>(j) * n;
        }
        prfAddrX(outs, ctx, adrs, m);

        // Leaves = F(sk), one batch.
        for (unsigned j = 0; j < m; ++j) {
            const ForsLeafReq &r = reqs[base + j];
            adrs[j] = r.adrs;
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(r.idx);
            outs[j] = r.out;
            ins[j] = sks + static_cast<size_t>(j) * n;
        }
        thashFX(outs, ctx, adrs, ins, m);
    }
}

void
forsTreeBatch(const Context &ctx, const TreeReq reqs[], size_t count)
{
    const Params &p = ctx.params();
    const size_t n = p.n;
    const size_t t = p.forsLeaves();
    const size_t per_chunk = std::max<size_t>(1, chunkLeaves / t);
    ByteVec slab(std::min(count, per_chunk) * t * n);
    ByteVec scratch(slab.size() / 2);
    ForsLeafReq wave[maxHashLanes];

    for (size_t c = 0; c < count; c += per_chunk) {
        const size_t leaves = std::min(per_chunk, count - c) * t;
        // Leaf q of the chunk is leaf q % t of tree q / t, at node q of
        // the slab: the packed layout treeLevels() reads.
        for (size_t q0 = 0; q0 < leaves; q0 += maxHashLanes) {
            const unsigned m = static_cast<unsigned>(
                std::min<size_t>(maxHashLanes, leaves - q0));
            for (unsigned j = 0; j < m; ++j) {
                const size_t q = q0 + j;
                const TreeReq &r = reqs[c + q / t];
                wave[j].adrs = r.adrs;
                wave[j].idx = r.idxOffset + static_cast<uint32_t>(q % t);
                wave[j].out = &slab[q * n];
            }
            forsLeafBatch(ctx, wave, m);
        }
        treeLevels(ctx, p.forsHeight, reqs + c, leaves / t, slab, scratch);
    }
}

void
forsSecretValues(uint8_t *fors_sig, const uint32_t indices[],
                 const Context &ctx, const Address &fors_adrs)
{
    const Params &p = ctx.params();
    const uint32_t t = p.forsLeaves();
    const size_t stride = static_cast<size_t>(p.forsHeight + 1) * p.n;
    Address sk_base = fors_adrs;
    sk_base.setType(AddrType::ForsPrf);
    sk_base.setKeypair(fors_adrs.keypair());
    const unsigned width = hashLaneWidth();
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    for (unsigned g = 0; g < p.forsTrees; g += width) {
        const unsigned m = std::min(width, p.forsTrees - g);
        for (unsigned j = 0; j < m; ++j) {
            adrs[j] = sk_base;
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(indices[g + j] + (g + j) * t);
            outs[j] = fors_sig + (g + j) * stride;
        }
        prfAddrX(outs, ctx, adrs, m);
    }
}

void
forsSign(uint8_t *sig, uint8_t *pk_out, const uint8_t *mhash,
         const Context &ctx, const Address &fors_adrs)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const size_t sig_stride = static_cast<size_t>(p.forsHeight + 1) * n;

    uint32_t indices[64];
    messageToIndices(indices, p, mhash);
    forsSecretValues(sig, indices, ctx, fors_adrs);

    // The k trees, each auth path right after its secret value.
    Address tree_adrs = fors_adrs;
    tree_adrs.setType(AddrType::ForsTree);
    tree_adrs.setKeypair(fors_adrs.keypair());
    uint8_t roots[64 * maxN];
    TreeReq trees[64];
    for (unsigned i = 0; i < p.forsTrees; ++i) {
        trees[i].adrs = tree_adrs;
        trees[i].idxOffset = i * p.forsLeaves();
        trees[i].leafIdx = indices[i];
        trees[i].authOut = sig + i * sig_stride + n;
        trees[i].rootOut = roots + i * n;
    }
    forsTreeBatch(ctx, trees, p.forsTrees);

    Address pk_adrs = fors_adrs;
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(fors_adrs.keypair());
    thash(pk_out, ctx, pk_adrs, ByteSpan(roots, p.forsTrees * n));
}

void
forsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                const uint8_t *const mhash[], const Context &ctx,
                const Address fors_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "forsPkFromSigXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const unsigned k = p.forsTrees;
    const uint32_t t = p.forsLeaves();
    const size_t tree_sig = static_cast<size_t>(p.forsHeight + 1) * n;

    uint32_t indices[maxHashLanes][64];
    for (unsigned l = 0; l < count; ++l)
        messageToIndices(indices[l], p, mhash[l]);

    // Roots land contiguously per lane for the final compression.
    uint8_t roots[maxHashLanes][64 * maxN];

    // Walk the count * k (lane, tree) pairs in groups of the
    // dispatched lane width: the revealed leaf values hash one batch
    // per group, then the group's auth-path walks climb the shared
    // height a in lockstep.
    const unsigned width = hashLaneWidth();
    const unsigned pairs = count * k;
    uint8_t leaves[maxHashLanes][maxN];
    for (unsigned g = 0; g < pairs; g += width) {
        const unsigned m = std::min(width, pairs - g);
        Address adrs[maxHashLanes];
        uint8_t *louts[maxHashLanes];
        uint8_t *routs[maxHashLanes];
        const uint8_t *lins[maxHashLanes];
        const uint8_t *leafp[maxHashLanes];
        const uint8_t *auth[maxHashLanes];
        uint32_t leaf_idx[maxHashLanes];
        uint32_t idx_offset[maxHashLanes];

        for (unsigned j = 0; j < m; ++j) {
            const unsigned l = (g + j) / k;
            const unsigned i = (g + j) % k;
            const uint8_t *block = sig[l] + i * tree_sig;

            adrs[j] = fors_adrs[l];
            adrs[j].setType(AddrType::ForsTree);
            adrs[j].setKeypair(fors_adrs[l].keypair());
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(indices[l][i] + i * t);
            louts[j] = leaves[j];
            lins[j] = block; // revealed secret value

            leafp[j] = leaves[j];
            leaf_idx[j] = indices[l][i];
            idx_offset[j] = i * t;
            auth[j] = block + n;
            routs[j] = roots[l] + static_cast<size_t>(i) * n;
        }
        thashFX(louts, ctx, adrs, lins, m);
        // The leaf addresses double as the walk scratch: computeRootXN
        // only touches the height/index words the leaf step set.
        computeRootXN(routs, ctx, leafp, leaf_idx, idx_offset, auth,
                      p.forsHeight, adrs, m);
    }

    // One batched k*n-byte root compression per lane.
    Address pk_adrs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        pk_adrs[l] = fors_adrs[l];
        pk_adrs[l].setType(AddrType::ForsRoots);
        pk_adrs[l].setKeypair(fors_adrs[l].keypair());
        ins[l] = roots[l];
    }
    thashX(pk_out, ctx, pk_adrs, ins, static_cast<size_t>(k) * n, count);
}

} // namespace herosign::sphincs
