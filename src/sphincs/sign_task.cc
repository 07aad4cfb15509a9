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
    if (p.n != sk.params.n || !ctEqual(ctx.pkSeed(), ByteSpan(sk.pkSeed)) ||
        !ctEqual(ctx.skSeed(), ByteSpan(sk.skSeed)))
        throw std::invalid_argument(
            "SignTask: context does not match the secret key");

    sig_.resize(p.sigBytes());
    uint8_t *out = sig_.data();

    // R = PRF_msg(sk_prf, opt_rand, msg); deterministic variant uses
    // opt_rand = pk_seed. Identical to SphincsPlus::sign().
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

    // Selected secret values for all k trees into the signature
    // blocks, one dispatched lane width per PRF batch — the same
    // batching forsSign() performs.
    {
        Address sk_base = forsBase_;
        sk_base.setType(AddrType::ForsPrf);
        sk_base.setKeypair(layerLeaf_[0]);
        const uint32_t t = p.forsLeaves();
        const unsigned width = hashLaneWidth();
        Address adrs[maxHashLanes];
        uint8_t *outs[maxHashLanes];
        for (unsigned g = 0; g < p.forsTrees; g += width) {
            const unsigned m = std::min(width, p.forsTrees - g);
            for (unsigned j = 0; j < m; ++j) {
                adrs[j] = sk_base;
                adrs[j].setTreeHeight(0);
                adrs[j].setTreeIndex(forsIndices_[g + j] + (g + j) * t);
                outs[j] = forsSigBlock(g + j);
            }
            prfAddrX(outs, ctx, adrs, m);
        }
    }

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

} // namespace herosign::sphincs
