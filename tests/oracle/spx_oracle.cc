#include "oracle/spx_oracle.hh"

#include <stdexcept>

#include "hash/hmac.hh"
#include "hash/mgf1.hh"
#include "hash/sha256.hh"

namespace herosign::oracle
{

using sphincs::Address;
using sphincs::AddrType;

namespace
{

/** floor(log2(x)) for x >= 1. */
unsigned
floorLog2(uint64_t x)
{
    unsigned r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** Alg. 1 base_w: @p out_len base-w digits of @p x, MSB first. */
void
baseW(uint32_t *out, const uint8_t *x, unsigned lg_w, unsigned out_len)
{
    unsigned in = 0;
    unsigned bits = 0;
    uint32_t total = 0;
    for (unsigned consumed = 0; consumed < out_len; ++consumed) {
        if (bits == 0) {
            total = x[in++];
            bits += 8;
        }
        bits -= lg_w;
        out[consumed] = (total >> bits) & ((1u << lg_w) - 1);
    }
}

/** Big-endian value of @p len bytes, reduced mod 2^bits. */
uint64_t
firstBits(const uint8_t *in, size_t len, unsigned bits)
{
    uint64_t v = 0;
    for (size_t i = 0; i < len; ++i)
        v = (v << 8) | in[i];
    return bits >= 64 ? v : v & ((uint64_t{1} << bits) - 1);
}

ByteVec
concat(ByteSpan a, ByteSpan b)
{
    ByteVec out(a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

} // namespace

SpxOracle::SpxOracle(const sphincs::Params &params, ByteSpan pk_seed,
                     ByteSpan sk_seed)
    : n_(params.n), h_(params.fullHeight), d_(params.layers),
      hp_(params.fullHeight / params.layers), a_(params.forsHeight),
      k_(params.forsTrees), w_(params.wotsW),
      pkSeed_(pk_seed.begin(), pk_seed.end()),
      skSeed_(sk_seed.begin(), sk_seed.end())
{
    if (pkSeed_.size() != n_ ||
        (!skSeed_.empty() && skSeed_.size() != n_))
        throw std::invalid_argument("SpxOracle: seeds must be n bytes");
    lgW_ = floorLog2(w_);
    len1_ = (8 * n_ + lgW_ - 1) / lgW_;
    len2_ = floorLog2(static_cast<uint64_t>(len1_) * (w_ - 1)) / lgW_ + 1;

    // Every tweakable hash starts with the block BlockPad(PK.seed) =
    // PK.seed || toByte(0, 64 - n); hash it once.
    uint8_t pad[Sha256::blockSize] = {};
    std::memcpy(pad, pkSeed_.data(), n_);
    Sha256 sha;
    sha.update(ByteSpan(pad, sizeof(pad)));
    padded_ = sha.midState();
}

size_t
SpxOracle::sigBytes() const
{
    return static_cast<size_t>(n_) *
           (1 + k_ * (a_ + 1) + d_ * (len() + hp_));
}

// --- Tweakable hashes, sha256-simple (§7.2.1) ------------------------

/** T_l / F / H: Trunc_n(SHA-256(BlockPad(PK.seed) || ADRSc || M)). */
ByteVec
SpxOracle::thash(const Address &adrs, ByteSpan m) const
{
    // ADRSc = ADRS[3] || ADRS[8:16] || ADRS[19] || ADRS[20:32].
    const ByteSpan full = adrs.full();
    uint8_t adrs_c[22];
    adrs_c[0] = full[3];
    std::memcpy(adrs_c + 1, full.data() + 8, 8);
    adrs_c[9] = full[19];
    std::memcpy(adrs_c + 10, full.data() + 20, 12);

    Sha256 sha(padded_);
    sha.update(ByteSpan(adrs_c, sizeof(adrs_c)));
    sha.update(m);
    uint8_t out[Sha256::digestSize];
    sha.final(out);
    return ByteVec(out, out + n_);
}

/** PRF(PK.seed, SK.seed, ADRS) = T(PK.seed, ADRS, SK.seed). */
ByteVec
SpxOracle::prf(const Address &adrs) const
{
    if (skSeed_.empty())
        throw std::logic_error("SpxOracle: no SK.seed to derive from");
    return thash(adrs, skSeed_);
}

/**
 * H_msg(R, PK.seed, PK.root, M) =
 *     MGF1-SHA-256(R || PK.seed || SHA-256(R||PK.seed||PK.root||M), m).
 */
ByteVec
SpxOracle::hashMessage(ByteSpan r, ByteSpan pk_root, ByteSpan msg) const
{
    Sha256 inner;
    inner.update(r);
    inner.update(pkSeed_);
    inner.update(pk_root);
    inner.update(msg);
    uint8_t seed1[Sha256::digestSize];
    inner.final(seed1);

    ByteVec mgf_seed = concat(r, pkSeed_);
    mgf_seed.insert(mgf_seed.end(), seed1, seed1 + sizeof(seed1));
    const size_t m =
        (k_ * a_ + 7) / 8 + (h_ - hp_ + 7) / 8 + (hp_ + 7) / 8;
    ByteVec digest(m);
    mgf1Sha256(digest, mgf_seed);
    return digest;
}

/** md, idx_tree and idx_leaf from an H_msg digest (Alg. 20 lines 7-12). */
SpxOracle::DigestFields
SpxOracle::splitDigest(const ByteVec &digest) const
{
    const size_t md_bytes = (k_ * a_ + 7) / 8;
    const size_t tree_bytes = (h_ - hp_ + 7) / 8;
    const size_t leaf_bytes = (hp_ + 7) / 8;
    return {ByteSpan(digest.data(), md_bytes),
            firstBits(digest.data() + md_bytes, tree_bytes, h_ - hp_),
            static_cast<uint32_t>(firstBits(
                digest.data() + md_bytes + tree_bytes, leaf_bytes, hp_))};
}

// --- WOTS+ (§3) ------------------------------------------------------

/** Alg. 2 chain: F applied s times from position i. */
ByteVec
SpxOracle::chain(ByteVec x, uint32_t i, uint32_t s, Address &adrs) const
{
    if (s == 0)
        return x;
    if (i + s > w_ - 1)
        throw std::logic_error("SpxOracle: chain runs past w - 1");
    ByteVec tmp = chain(std::move(x), i, s - 1, adrs);
    adrs.setHash(i + s - 1);
    return thash(adrs, tmp);
}

/** The len base-w digits of message and checksum (Alg. 5 lines 2-9). */
void
SpxOracle::chainLengths(uint32_t *msg, ByteSpan m) const
{
    baseW(msg, m.data(), lgW_, len1_);
    uint32_t csum = 0;
    for (unsigned i = 0; i < len1_; ++i)
        csum += w_ - 1 - msg[i];
    if (lgW_ % 8 != 0)
        csum <<= (8 - (len2_ * lgW_) % 8) % 8;
    const unsigned len2_bytes = (len2_ * lgW_ + 7) / 8;
    uint8_t csum_bytes[8];
    toByte(csum_bytes, csum, len2_bytes);
    baseW(msg + len1_, csum_bytes, lgW_, len2_);
}

ByteVec
SpxOracle::wotsPkGen(Address adrs) const
{
    Address wotspk_adrs = adrs;
    Address sk_adrs = adrs;
    sk_adrs.setType(AddrType::WotsPrf);
    sk_adrs.setKeypair(adrs.keypair());
    ByteVec tmp;
    for (unsigned i = 0; i < len(); ++i) {
        sk_adrs.setChain(i);
        sk_adrs.setHash(0);
        ByteVec sk = prf(sk_adrs);
        adrs.setChain(i);
        adrs.setHash(0);
        ByteVec c = chain(std::move(sk), 0, w_ - 1, adrs);
        tmp.insert(tmp.end(), c.begin(), c.end());
    }
    wotspk_adrs.setType(AddrType::WotsPk);
    wotspk_adrs.setKeypair(adrs.keypair());
    return thash(wotspk_adrs, tmp);
}

ByteVec
SpxOracle::wotsSign(ByteSpan m, Address adrs) const
{
    uint32_t msg[sphincs::maxWotsLen];
    chainLengths(msg, m);
    Address sk_adrs = adrs;
    sk_adrs.setType(AddrType::WotsPrf);
    sk_adrs.setKeypair(adrs.keypair());
    ByteVec sig;
    for (unsigned i = 0; i < len(); ++i) {
        sk_adrs.setChain(i);
        sk_adrs.setHash(0);
        ByteVec sk = prf(sk_adrs);
        adrs.setChain(i);
        adrs.setHash(0);
        ByteVec c = chain(std::move(sk), 0, msg[i], adrs);
        sig.insert(sig.end(), c.begin(), c.end());
    }
    return sig;
}

ByteVec
SpxOracle::wotsPkFromSig(ByteSpan sig, ByteSpan m, Address adrs) const
{
    uint32_t msg[sphincs::maxWotsLen];
    chainLengths(msg, m);
    Address wotspk_adrs = adrs;
    ByteVec tmp;
    for (unsigned i = 0; i < len(); ++i) {
        adrs.setChain(i);
        ByteVec c = chain(ByteVec(sig.begin() + i * n_,
                                  sig.begin() + (i + 1) * n_),
                          msg[i], w_ - 1 - msg[i], adrs);
        tmp.insert(tmp.end(), c.begin(), c.end());
    }
    wotspk_adrs.setType(AddrType::WotsPk);
    wotspk_adrs.setKeypair(adrs.keypair());
    return thash(wotspk_adrs, tmp);
}

// --- The hypertree (§4) ----------------------------------------------

ByteVec
SpxOracle::treehash(uint32_t s, unsigned z, Address adrs) const
{
    if (s % (uint32_t{1} << z) != 0)
        throw std::logic_error("SpxOracle: unaligned treehash");
    if (z == 0) {
        adrs.setType(AddrType::WotsHash);
        adrs.setKeypair(s);
        return wotsPkGen(adrs);
    }
    const ByteVec node = concat(treehash(s, z - 1, adrs),
                                treehash(s + (uint32_t{1} << (z - 1)),
                                         z - 1, adrs));
    adrs.setType(AddrType::Tree);
    adrs.setTreeHeight(z);
    adrs.setTreeIndex(s >> z);
    return thash(adrs, node);
}

ByteVec
SpxOracle::xmssSign(ByteSpan m, uint32_t idx, Address adrs) const
{
    ByteVec auth;
    for (unsigned j = 0; j < hp_; ++j) {
        const uint32_t k = (idx >> j) ^ 1u;
        ByteVec node = treehash(k << j, j, adrs);
        auth.insert(auth.end(), node.begin(), node.end());
    }
    adrs.setType(AddrType::WotsHash);
    adrs.setKeypair(idx);
    return concat(wotsSign(m, adrs), auth);
}

ByteVec
SpxOracle::xmssPkFromSig(uint32_t idx, ByteSpan sig_xmss, ByteSpan m,
                         Address adrs) const
{
    const size_t wots_bytes = static_cast<size_t>(len()) * n_;
    adrs.setType(AddrType::WotsHash);
    adrs.setKeypair(idx);
    ByteVec node = wotsPkFromSig(sig_xmss.first(wots_bytes), m, adrs);
    const uint8_t *auth = sig_xmss.data() + wots_bytes;

    adrs.setType(AddrType::Tree);
    adrs.setTreeIndex(idx);
    for (unsigned k = 0; k < hp_; ++k) {
        adrs.setTreeHeight(k + 1);
        const ByteSpan sibling(auth + k * n_, n_);
        if (((idx >> k) & 1u) == 0) {
            adrs.setTreeIndex(adrs.treeIndex() / 2);
            node = thash(adrs, concat(node, sibling));
        } else {
            adrs.setTreeIndex((adrs.treeIndex() - 1) / 2);
            node = thash(adrs, concat(sibling, node));
        }
    }
    return node;
}

ByteVec
SpxOracle::pkRoot() const
{
    // ht_PKgen (Alg. 11) = xmss_PKgen (Alg. 8) of the top layer's tree 0.
    Address adrs;
    adrs.setLayer(d_ - 1);
    adrs.setTree(0);
    return treehash(0, hp_, adrs);
}

// --- FORS (§5) -------------------------------------------------------

ByteVec
SpxOracle::forsSkGen(Address adrs, uint32_t idx) const
{
    Address sk_adrs = adrs;
    sk_adrs.setType(AddrType::ForsPrf);
    sk_adrs.setKeypair(adrs.keypair());
    sk_adrs.setTreeHeight(0);
    sk_adrs.setTreeIndex(idx);
    return prf(sk_adrs);
}

/** fors_treehash (Alg. 15), recursive like treehash above. */
ByteVec
SpxOracle::forsTreehash(uint32_t s, unsigned z, Address adrs) const
{
    if (s % (uint32_t{1} << z) != 0)
        throw std::logic_error("SpxOracle: unaligned fors_treehash");
    if (z == 0) {
        ByteVec sk = forsSkGen(adrs, s);
        adrs.setTreeHeight(0);
        adrs.setTreeIndex(s);
        return thash(adrs, sk);
    }
    const ByteVec node = concat(
        forsTreehash(s, z - 1, adrs),
        forsTreehash(s + (uint32_t{1} << (z - 1)), z - 1, adrs));
    adrs.setTreeHeight(z);
    adrs.setTreeIndex(s >> z);
    return thash(adrs, node);
}

/** Bits i*a .. (i+1)*a - 1 of md, MSB first. */
uint32_t
SpxOracle::forsIndex(ByteSpan md, unsigned i) const
{
    uint32_t idx = 0;
    for (unsigned b = i * a_; b < (i + 1) * a_; ++b)
        idx = (idx << 1) | ((md[b / 8] >> (7 - b % 8)) & 1u);
    return idx;
}

ByteVec
SpxOracle::forsSign(ByteSpan md, Address adrs) const
{
    const uint32_t t = uint32_t{1} << a_;
    ByteVec sig;
    for (unsigned i = 0; i < k_; ++i) {
        const uint32_t idx = forsIndex(md, i);
        ByteVec sk = forsSkGen(adrs, i * t + idx);
        sig.insert(sig.end(), sk.begin(), sk.end());
        for (unsigned j = 0; j < a_; ++j) {
            const uint32_t s = (idx >> j) ^ 1u;
            ByteVec node = forsTreehash(i * t + (s << j), j, adrs);
            sig.insert(sig.end(), node.begin(), node.end());
        }
    }
    return sig;
}

ByteVec
SpxOracle::forsPkFromSig(ByteSpan sig_fors, ByteSpan md,
                         Address adrs) const
{
    const uint32_t t = uint32_t{1} << a_;
    ByteVec roots;
    for (unsigned i = 0; i < k_; ++i) {
        const uint32_t idx = forsIndex(md, i);
        const uint8_t *block = sig_fors.data() + i * (a_ + 1) * n_;
        adrs.setTreeHeight(0);
        adrs.setTreeIndex(i * t + idx);
        ByteVec node = thash(adrs, ByteSpan(block, n_));
        const uint8_t *auth = block + n_;
        for (unsigned j = 0; j < a_; ++j) {
            adrs.setTreeHeight(j + 1);
            const ByteSpan sibling(auth + j * n_, n_);
            if (((idx >> j) & 1u) == 0) {
                adrs.setTreeIndex(adrs.treeIndex() / 2);
                node = thash(adrs, concat(node, sibling));
            } else {
                adrs.setTreeIndex((adrs.treeIndex() - 1) / 2);
                node = thash(adrs, concat(sibling, node));
            }
        }
        roots.insert(roots.end(), node.begin(), node.end());
    }
    Address forspk_adrs = adrs;
    forspk_adrs.setType(AddrType::ForsRoots);
    forspk_adrs.setKeypair(adrs.keypair());
    return thash(forspk_adrs, roots);
}

// --- SPHINCS+ (§6) ---------------------------------------------------

ByteVec
SpxOracle::sign(ByteSpan msg, ByteSpan sk_prf, ByteSpan pk_root,
                ByteSpan opt_rand) const
{
    const ByteSpan opt = opt_rand.empty() ? ByteSpan(pkSeed_) : opt_rand;
    if (opt.size() != n_)
        throw std::invalid_argument(
            "SpxOracle: opt_rand must be n bytes");
    // PRF_msg(SK.prf, OptRand, M) = HMAC-SHA-256(SK.prf, OptRand || M).
    const auto mac = HmacSha256::mac(sk_prf, concat(opt, msg));
    ByteVec sig(mac.begin(), mac.begin() + n_);

    const ByteVec digest = hashMessage(sig, pk_root, msg);
    auto [md, idx_tree, idx_leaf] = splitDigest(digest);

    Address adrs;
    adrs.setLayer(0);
    adrs.setTree(idx_tree);
    adrs.setType(AddrType::ForsTree);
    adrs.setKeypair(idx_leaf);
    const ByteVec sig_fors = forsSign(md, adrs);
    sig.insert(sig.end(), sig_fors.begin(), sig_fors.end());
    ByteVec root = forsPkFromSig(sig_fors, md, adrs);

    // ht_sign (Alg. 12).
    for (unsigned j = 0; j < d_; ++j) {
        if (j > 0) {
            idx_leaf = static_cast<uint32_t>(idx_tree &
                                             ((uint64_t{1} << hp_) - 1));
            idx_tree >>= hp_;
        }
        Address layer_adrs;
        layer_adrs.setLayer(j);
        layer_adrs.setTree(idx_tree);
        const ByteVec sig_xmss = xmssSign(root, idx_leaf, layer_adrs);
        sig.insert(sig.end(), sig_xmss.begin(), sig_xmss.end());
        if (j + 1 < d_)
            root = xmssPkFromSig(idx_leaf, sig_xmss, root, layer_adrs);
    }
    return sig;
}

bool
SpxOracle::verify(ByteSpan msg, ByteSpan sig, ByteSpan pk_root) const
{
    if (sig.size() != sigBytes())
        return false;
    const ByteSpan r = sig.first(n_);
    const ByteVec digest = hashMessage(r, pk_root, msg);
    auto [md, idx_tree, idx_leaf] = splitDigest(digest);

    Address adrs;
    adrs.setLayer(0);
    adrs.setTree(idx_tree);
    adrs.setType(AddrType::ForsTree);
    adrs.setKeypair(idx_leaf);
    const size_t fors_bytes = static_cast<size_t>(k_) * (a_ + 1) * n_;
    ByteVec node = forsPkFromSig(sig.subspan(n_, fors_bytes), md, adrs);

    // ht_verify (Alg. 13).
    const size_t xmss_bytes = static_cast<size_t>(len() + hp_) * n_;
    for (unsigned j = 0; j < d_; ++j) {
        if (j > 0) {
            idx_leaf = static_cast<uint32_t>(idx_tree &
                                             ((uint64_t{1} << hp_) - 1));
            idx_tree >>= hp_;
        }
        Address layer_adrs;
        layer_adrs.setLayer(j);
        layer_adrs.setTree(idx_tree);
        const size_t at = n_ + fors_bytes + j * xmss_bytes;
        node = xmssPkFromSig(idx_leaf, sig.subspan(at, xmss_bytes), node,
                             layer_adrs);
    }
    return ctEqual(node, pk_root);
}

} // namespace herosign::oracle
