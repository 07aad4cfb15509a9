#include "sphincs/sign_task.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

namespace herosign::sphincs
{

namespace
{

uint64_t
maskBits(unsigned bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/**
 * Time of one FORS compression over one hypertree compression, as the
 * band planner counts them. By compressions, FORS is 1.39 / 5.04 /
 * 4.04 layers of a lone 128f / 192f / 256f signature (6,345 / 33,772
 * / 71,663 compressions against 4,567 / 6,702 / 17,726 per layer);
 * by time on a 4-core AVX-512 host it is 2.5 / 8.9 / 7.4 layers (FORS
 * 0.33 / 1.71 / 3.5 ms). So a FORS compression costs 1.76-1.82x a
 * hypertree one on all three sets: FORS leaves and combines run one
 * thashX call per step, the chains in the register-resident chain
 * kernel. A measured constant, not a setting.
 */
constexpr double kForsCompressionCost = 1.8;

/**
 * Compressions of one seeded tweakable hash over @p in_len bytes: the
 * 22-byte compressed address, the input and the 9-byte SHA-256 pad,
 * after the precomputed pk_seed block.
 */
uint64_t
thashBlocks(size_t in_len)
{
    return (22 + in_len + 9 + 63) / 64;
}

/**
 * Compressions of the k FORS trees and their root compression: the
 * bands' FORS work (the k secret-value PRFs run at construction).
 */
uint64_t
forsCompressions(const Params &p)
{
    const uint64_t t = p.forsLeaves();
    return p.forsTrees * (2 * t * thashBlocks(p.n) +
                          (t - 1) * thashBlocks(2 * p.n)) +
           thashBlocks(static_cast<size_t>(p.forsTrees) * p.n);
}

/** Compressions of one hypertree layer: its leaves and its tree. */
uint64_t
layerCompressions(const Params &p)
{
    const uint64_t leaves = p.treeLeaves();
    const uint64_t len = p.wotsLen();
    return leaves * (len * p.wotsW * thashBlocks(p.n) +
                     thashBlocks(len * p.n)) +
           (leaves - 1) * thashBlocks(2 * p.n);
}

/**
 * Whether a band finishes FORS itself: it builds every FORS tree and
 * starts at layer 0, so it compresses the FORS public key and its
 * walk captures layer 0's WOTS+ signature. Every other band leaves
 * its first layer's signature to joinBands().
 */
bool
finishesFors(const SignBand &band, const Params &p)
{
    return band.layerBegin == 0 && band.forsBegin == 0 &&
           band.forsEnd == p.forsTrees;
}

} // namespace

SignTask::SignTask(const Context &ctx, const SecretKey &sk, ByteSpan msg,
                   ByteSpan opt_rand)
    : ctx_(&ctx)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    if (!p.sameShape(sk.params) ||
        !ctEqual(ctx.pkSeed(), ByteSpan(sk.pkSeed)) ||
        !ctEqual(ctx.skSeed(), ByteSpan(sk.skSeed)))
        throw std::invalid_argument(
            "SignTask: context does not match the secret key");

    sig_.resize(p.sigBytes());
    uint8_t *out = sig_.data();

    // R = PRF_msg(sk_prf, opt_rand, msg); deterministic variant uses
    // opt_rand = pk_seed.
    ByteSpan rand = opt_rand.empty() ? ByteSpan(sk.pkSeed) : opt_rand;
    if (rand.size() != n)
        throw std::invalid_argument("SignTask: opt_rand must be n bytes");
    prfMsg(out, ctx, sk.skPrf, rand, msg);
    ByteSpan r(out, n);

    // Message digest and the full index ladder: every layer's
    // (tree, leaf) position is derivable up front — only the WOTS
    // chain lengths depend on the lower layers' roots.
    ByteVec digest(p.msgDigestBytes());
    hashMessage(digest, ctx, r, sk.pkRoot, msg);
    DigestSplit split = splitDigest(p, digest);
    forsMsg_ = std::move(split.forsMsg);

    layerTree_.resize(p.layers);
    layerLeaf_.resize(p.layers);
    uint64_t idx_tree = split.idxTree;
    uint32_t idx_leaf = split.idxLeaf;
    for (unsigned l = 0; l < p.layers; ++l) {
        layerTree_[l] = idx_tree;
        layerLeaf_[l] = idx_leaf;
        idx_leaf =
            static_cast<uint32_t>(idx_tree & maskBits(p.treeHeight()));
        idx_tree >>= p.treeHeight();
    }

    forsBase_.setLayer(0);
    forsBase_.setTree(layerTree_[0]);
    forsBase_.setType(AddrType::ForsTree);
    forsBase_.setKeypair(layerLeaf_[0]);
    messageToIndices(forsIndices_, p, forsMsg_.data());
    forsSecretValues(forsSigBlock(0), forsIndices_, ctx, forsBase_);

    layerRoots_.resize(static_cast<size_t>(p.layers) * n);
}

uint8_t *
SignTask::forsSigBlock(unsigned tree)
{
    const Params &p = ctx_->params();
    const size_t stride = static_cast<size_t>(p.forsHeight + 1) * p.n;
    return sig_.data() + p.n + tree * stride;
}

uint8_t *
SignTask::xmssSig(unsigned layer)
{
    const Params &p = ctx_->params();
    return sig_.data() + p.n + p.forsSigBytes() +
           layer * p.xmssSigBytes();
}

ForsTreeReq
SignTask::forsTreeReq(unsigned tree)
{
    const Params &p = ctx_->params();
    ForsTreeReq req;
    req.adrs = forsBase_;
    req.tree = tree;
    req.leafIdx = forsIndices_[tree];
    req.authOut = forsSigBlock(tree) + p.n;
    req.rootOut = forsRoots_ + static_cast<size_t>(tree) * p.n;
    return req;
}

void
SignTask::finishFors()
{
    const Params &p = ctx_->params();
    Address pk_adrs = forsBase_;
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(layerLeaf_[0]);
    thash(forsPk_, *ctx_, pk_adrs,
          ByteSpan(forsRoots_, static_cast<size_t>(p.forsTrees) * p.n));
}

const uint8_t *
SignTask::layerMsg(unsigned layer) const
{
    return layer == 0 ? forsPk_
                      : layerRoots_.data() +
                            static_cast<size_t>(layer - 1) *
                                ctx_->params().n;
}

ByteVec
SignTask::takeSignature()
{
    if (!finished_)
        throw std::logic_error(
            "SignTask: signature taken before completion");
    return std::move(sig_);
}

void
SignTask::walkLayers(SignTask *const tasks[], unsigned count,
                     unsigned begin, unsigned end, bool sign_first)
{
    if (begin >= end)
        return;
    const Context &ctx = *tasks[0]->ctx_;
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const unsigned len = p.wotsLen();
    const uint32_t leaves = p.treeLeaves();

    // Per-signature walk state: a Merkle stream, the layer's leaves
    // and the signing keypair's chain lengths.
    std::vector<TreehashStream> streams(count);
    ByteVec leaf_buf(static_cast<size_t>(count) * leaves * n);
    std::vector<uint32_t> lengths(static_cast<size_t>(count) * len);
    TreehashStream *stream_ptrs[maxHashLanes];
    const uint8_t *leaf_ptrs[maxHashLanes];
    for (unsigned g = 0; g < count; ++g)
        stream_ptrs[g] = &streams[g];
    const auto leaf = [&](unsigned g, uint32_t j) {
        return leaf_buf.data() + (static_cast<size_t>(g) * leaves + j) * n;
    };
    std::vector<WotsLeafReq> wreqs(
        static_cast<size_t>(std::min<uint32_t>(maxHashLanes, leaves)) *
        count);

    for (unsigned l = begin; l < end; ++l) {
        // A layer's chain lengths come from the message below it (the
        // FORS pk for layer 0, the previous root above). Without that
        // message the layer's tree still builds; its WOTS+ signature
        // is left to joinBands().
        const bool sign = l > begin || sign_first;
        for (unsigned g = 0; g < count; ++g) {
            SignTask &t = *tasks[g];
            if (sign)
                chainLengths(&lengths[static_cast<size_t>(g) * len], p,
                             t.layerMsg(l));
            Address tree_adrs;
            tree_adrs.setLayer(l);
            tree_adrs.setTree(t.layerTree_[l]);
            tree_adrs.setType(AddrType::Tree);
            streams[g].begin(ctx, p.treeHeight(), t.layerLeaf_[l], 0,
                             t.xmssSig(l) + p.wotsSigBytes(), tree_adrs);
        }
        for (uint32_t j0 = 0; j0 < leaves; j0 += maxHashLanes) {
            const uint32_t jc =
                std::min<uint32_t>(maxHashLanes, leaves - j0);
            unsigned nr = 0;
            for (uint32_t q = 0; q < jc; ++q) {
                for (unsigned g = 0; g < count; ++g) {
                    SignTask &t = *tasks[g];
                    WotsLeafReq &req = wreqs[nr++];
                    req = WotsLeafReq{};
                    req.layer = l;
                    req.tree = t.layerTree_[l];
                    req.keypair = j0 + q;
                    req.leafOut = leaf(g, j0 + q);
                    // The signing keypair captures its signature from
                    // the pk-generation walk.
                    if (sign && j0 + q == t.layerLeaf_[l]) {
                        req.sigOut = t.xmssSig(l);
                        req.lengths = &lengths[static_cast<size_t>(g) * len];
                    }
                }
            }
            wotsLeafBatch(ctx, wreqs.data(), nr);
            for (uint32_t q = 0; q < jc; ++q) {
                for (unsigned g = 0; g < count; ++g)
                    leaf_ptrs[g] = leaf(g, j0 + q);
                TreehashStream::absorbLockstep(stream_ptrs, leaf_ptrs,
                                               count);
            }
        }
        for (unsigned g = 0; g < count; ++g)
            std::memcpy(tasks[g]->layerRoots_.data() +
                            static_cast<size_t>(l) * n,
                        streams[g].root(), n);
    }
}

void
SignTask::runGroup(SignTask *const tasks[], unsigned count)
{
    if (count == 0)
        return;
    if (count > maxHashLanes)
        throw std::invalid_argument(
            "SignTask: group exceeds maxHashLanes");
    const Context &ctx = *tasks[0]->ctx_;
    for (unsigned g = 1; g < count; ++g) {
        // One warm context per group is the invariant everything
        // else rests on: same key, same parameter set, same seeded
        // hash mid-state. Tasks built from a different Context —
        // even one with equal seeds — are rejected rather than
        // silently mixed.
        if (tasks[g]->ctx_ != &ctx)
            throw std::invalid_argument(
                "SignTask: group must share one context "
                "(one key and parameter set)");
    }
    const Params &p = ctx.params();

    // --- FORS: all count * k trees are independent, so they build
    // together in full lane groups.
    const unsigned k = p.forsTrees;
    std::vector<ForsTreeReq> trees(static_cast<size_t>(count) * k);
    for (unsigned g = 0; g < count; ++g)
        for (unsigned i = 0; i < k; ++i)
            trees[static_cast<size_t>(g) * k + i] =
                tasks[g]->forsTreeReq(i);
    forsTreeBatch(ctx, trees.data(), trees.size());
    for (unsigned g = 0; g < count; ++g)
        tasks[g]->finishFors();

    // --- Hypertree: on one thread the group walks the d layers in
    // order, each layer's WOTS+ message being the root below, so
    // every signature is captured in passing. A lone signature may
    // instead run as bands (runBand()).
    walkLayers(tasks, count, 0, p.layers, true);
    for (unsigned g = 0; g < count; ++g)
        tasks[g]->finished_ = true;
}

void
SignTask::signGroup(const Context &ctx, const SecretKey &sk,
                    const ByteSpan msgs[], const ByteSpan opt_rands[],
                    ByteVec sigs[], unsigned count)
{
    if (count == 0)
        return;
    if (count > maxHashLanes)
        throw std::invalid_argument(
            "SignTask: group exceeds maxHashLanes");
    std::vector<std::unique_ptr<SignTask>> tasks;
    tasks.reserve(count);
    SignTask *ptrs[maxHashLanes];
    for (unsigned i = 0; i < count; ++i) {
        tasks.push_back(std::make_unique<SignTask>(
            ctx, sk, msgs[i], opt_rands ? opt_rands[i] : ByteSpan{}));
        ptrs[i] = tasks.back().get();
    }
    runGroup(ptrs, count);
    for (unsigned i = 0; i < count; ++i)
        sigs[i] = tasks[i]->takeSignature();
}

std::vector<SignBand>
SignTask::planBands(const Params &p, unsigned bands)
{
    const unsigned k = p.forsTrees;
    const unsigned d = p.layers;
    const double fors_cost = kForsCompressionCost *
                             static_cast<double>(forsCompressions(p)) /
                             static_cast<double>(layerCompressions(p));
    const double total = fors_cost + d;
    bands = std::clamp(bands, 1u, d + 1);

    // Work units in walk order: FORS, whole or in lane groups when it
    // outweighs one band's share, then one unit per layer.
    const unsigned group =
        fors_cost > total / bands ? hashLaneWidth() : k;
    std::vector<double> cost;
    for (unsigned f = 0; f < k; f += group)
        cost.push_back(fors_cost * std::min(group, k - f) / k);
    const unsigned fors_units = static_cast<unsigned>(cost.size());
    cost.insert(cost.end(), d, 1.0);
    const unsigned units = static_cast<unsigned>(cost.size());
    bands = std::min(bands, units);

    // Units before which each band ends: every band takes at least
    // one unit, then more while that brings its running cost closer
    // to the band's share, leaving one unit for each band to come.
    std::vector<unsigned> ends;
    double run = 0;
    unsigned u = 0;
    for (unsigned b = 0; b + 1 < bands; ++b) {
        const double target = total * (b + 1) / bands;
        run += cost[u++];
        while (u < units - (bands - 1 - b) &&
               std::abs(run + cost[u] - target) < std::abs(run - target))
            run += cost[u++];
        ends.push_back(u);
    }
    ends.push_back(units);

    const auto trees_before = [&](unsigned unit) {
        return unit < fors_units ? unit * group : k;
    };
    const auto layers_before = [&](unsigned unit) {
        return unit < fors_units ? 0u : unit - fors_units;
    };
    std::vector<SignBand> plan;
    unsigned begin = 0;
    for (unsigned end : ends) {
        plan.push_back({trees_before(begin), trees_before(end),
                        layers_before(begin), layers_before(end)});
        begin = end;
    }
    return plan;
}

void
SignTask::runBand(const SignBand &band)
{
    const Params &p = ctx_->params();
    if (band.forsBegin > band.forsEnd || band.forsEnd > p.forsTrees ||
        band.layerBegin > band.layerEnd || band.layerEnd > p.layers)
        throw std::invalid_argument(
            "SignTask: band outside the parameter shape");

    if (band.forsEnd > band.forsBegin) {
        std::vector<ForsTreeReq> trees;
        for (unsigned i = band.forsBegin; i < band.forsEnd; ++i)
            trees.push_back(forsTreeReq(i));
        forsTreeBatch(*ctx_, trees.data(), trees.size());
    }
    const bool fors_pk = finishesFors(band, p);
    if (fors_pk)
        finishFors();

    SignTask *self = this;
    walkLayers(&self, 1, band.layerBegin, band.layerEnd, fors_pk);
}

void
SignTask::joinBands(std::span<const SignBand> plan)
{
    const Params &p = ctx_->params();
    unsigned fors = 0;
    unsigned layer = 0;
    bool fors_done = false;
    for (const SignBand &band : plan) {
        if (band.forsBegin != fors || band.forsEnd < fors ||
            band.layerBegin != layer || band.layerEnd < layer)
            throw std::invalid_argument(
                "SignTask: bands must tile FORS and the layers in order");
        fors = band.forsEnd;
        layer = band.layerEnd;
        fors_done |= finishesFors(band, p);
    }
    if (fors != p.forsTrees || layer != p.layers)
        throw std::invalid_argument(
            "SignTask: bands must tile FORS and the layers in order");

    if (!fors_done)
        finishFors();
    // The seams: each band's first layer signs the root below it.
    for (const SignBand &band : plan) {
        const unsigned l = band.layerBegin;
        if (l == band.layerEnd || finishesFors(band, p))
            continue;
        Address leaf_adrs;
        leaf_adrs.setLayer(l);
        leaf_adrs.setTree(layerTree_[l]);
        leaf_adrs.setKeypair(layerLeaf_[l]);
        wotsSign(xmssSig(l), layerMsg(l), *ctx_, leaf_adrs);
    }
    finished_ = true;
}

} // namespace herosign::sphincs
