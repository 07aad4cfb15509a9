#include "sphincs/sign_task.hh"

#include <algorithm>
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

    layerLeaves_.resize(static_cast<size_t>(p.treeLeaves()) * n);
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
    if (tree >= p.forsTrees || forsDone_)
        throw std::logic_error(
            "SignTask: FORS tree out of range or FORS already finished");
    forsTaken_ |= uint64_t{1} << tree;
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
    if (forsDone_ || forsTaken_ != maskBits(p.forsTrees))
        throw std::logic_error("SignTask: FORS trees incomplete");
    Address pk_adrs = forsBase_;
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(layerLeaf_[0]);
    thash(root_, *ctx_, pk_adrs,
          ByteSpan(forsRoots_, static_cast<size_t>(p.forsTrees) * p.n));
    forsDone_ = true;
}

void
SignTask::beginLayer(unsigned layer)
{
    const Params &p = ctx_->params();
    if (layer != curLayer_ || layer >= p.layers)
        throw std::logic_error("SignTask: layers must run in order");
    if (!forsDone_)
        throw std::logic_error("SignTask: layer before FORS finished");

    // The serial dependency between layers: the chain lengths of this
    // layer's signing keypair come from the message root_ holds (the
    // FORS pk for layer 0, the previous layer's root above).
    chainLengths(lengths_, p, root_);

    Address tree_adrs;
    tree_adrs.setLayer(layer);
    tree_adrs.setTree(layerTree_[layer]);
    tree_adrs.setType(AddrType::Tree);
    stream_.begin(*ctx_, p.treeHeight(), layerLeaf_[layer], 0,
                  xmssSig(layer) + p.wotsSigBytes(), tree_adrs);
}

WotsLeafReq
SignTask::wotsLeafReq(uint32_t j)
{
    const Params &p = ctx_->params();
    WotsLeafReq req;
    req.layer = curLayer_;
    req.tree = layerTree_[curLayer_];
    req.keypair = j;
    req.leafOut = layerLeaves_.data() + static_cast<size_t>(j) * p.n;
    if (j == layerLeaf_[curLayer_]) {
        req.sigOut = xmssSig(curLayer_);
        req.lengths = lengths_;
    }
    return req;
}

const uint8_t *
SignTask::layerLeaf(uint32_t j) const
{
    return layerLeaves_.data() +
           static_cast<size_t>(j) * ctx_->params().n;
}

void
SignTask::endLayer()
{
    const Params &p = ctx_->params();
    std::memcpy(root_, stream_.root(), p.n);
    ++curLayer_;
    if (curLayer_ == p.layers)
        finished_ = true;
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
SignTask::runGroup(SignTask *const tasks[], unsigned count)
{
    if (count == 0)
        return;
    if (count > maxHashLanes)
        throw std::invalid_argument(
            "SignTask: group exceeds maxHashLanes");
    const Context &ctx = tasks[0]->context();
    for (unsigned g = 1; g < count; ++g) {
        // One warm context per group is the invariant everything
        // else rests on: same key, same parameter set, same seeded
        // hash mid-state. Tasks built from a different Context —
        // even one with equal seeds — are rejected rather than
        // silently mixed.
        if (&tasks[g]->context() != &ctx)
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

    // --- Hypertree: the d layers are the serial spine; within one
    // layer the group's count * 2^(h/d) WOTS leaves pool into full
    // chain batches, maxHashLanes leaf positions per wave, with the
    // signing leaves' signatures captured in passing.
    TreehashStream *streams[maxHashLanes];
    const uint8_t *leaf_ptrs[maxHashLanes];
    const uint32_t leaves = p.treeLeaves();
    std::vector<WotsLeafReq> wreqs(
        static_cast<size_t>(std::min<uint32_t>(maxHashLanes, leaves)) *
        count);
    for (unsigned l = 0; l < p.layers; ++l) {
        for (unsigned g = 0; g < count; ++g) {
            tasks[g]->beginLayer(l);
            streams[g] = &tasks[g]->treeStream();
        }
        for (uint32_t j0 = 0; j0 < leaves; j0 += maxHashLanes) {
            const uint32_t jc =
                std::min<uint32_t>(maxHashLanes, leaves - j0);
            unsigned nr = 0;
            for (uint32_t q = 0; q < jc; ++q)
                for (unsigned g = 0; g < count; ++g)
                    wreqs[nr++] = tasks[g]->wotsLeafReq(j0 + q);
            wotsLeafBatch(ctx, wreqs.data(), nr);
            for (uint32_t q = 0; q < jc; ++q) {
                for (unsigned g = 0; g < count; ++g)
                    leaf_ptrs[g] = tasks[g]->layerLeaf(j0 + q);
                TreehashStream::absorbLockstep(streams, leaf_ptrs,
                                               count);
            }
        }
        for (unsigned g = 0; g < count; ++g)
            tasks[g]->endLayer();
    }
}

} // namespace herosign::sphincs
