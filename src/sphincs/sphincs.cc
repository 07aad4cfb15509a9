#include "sphincs/sphincs.hh"

#include <stdexcept>

#include "common/zeroize.hh"

#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

namespace
{

uint64_t
maskBits(unsigned bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

uint64_t
bytesToU64(const uint8_t *in, size_t len)
{
    uint64_t v = 0;
    for (size_t i = 0; i < len; ++i)
        v = (v << 8) | in[i];
    return v;
}

} // namespace

ByteVec
SecretKey::encode() const
{
    ByteVec out;
    out.reserve(params.skBytes());
    append(out, skSeed);
    append(out, skPrf);
    append(out, pkSeed);
    append(out, pkRoot);
    return out;
}

void
SecretKey::zeroize()
{
    secureZero(skSeed);
    secureZero(skPrf);
}

SecretKey
SecretKey::decode(const Params &params, ByteSpan bytes)
{
    if (bytes.size() != params.skBytes())
        throw std::invalid_argument("SecretKey: wrong length");
    const unsigned n = params.n;
    SecretKey sk;
    sk.params = params;
    sk.skSeed.assign(bytes.begin(), bytes.begin() + n);
    sk.skPrf.assign(bytes.begin() + n, bytes.begin() + 2 * n);
    sk.pkSeed.assign(bytes.begin() + 2 * n, bytes.begin() + 3 * n);
    sk.pkRoot.assign(bytes.begin() + 3 * n, bytes.begin() + 4 * n);
    return sk;
}

ByteVec
PublicKey::encode() const
{
    ByteVec out;
    out.reserve(params.pkBytes());
    append(out, pkSeed);
    append(out, pkRoot);
    return out;
}

PublicKey
PublicKey::decode(const Params &params, ByteSpan bytes)
{
    if (bytes.size() != params.pkBytes())
        throw std::invalid_argument("PublicKey: wrong length");
    const unsigned n = params.n;
    PublicKey pk;
    pk.params = params;
    pk.pkSeed.assign(bytes.begin(), bytes.begin() + n);
    pk.pkRoot.assign(bytes.begin() + n, bytes.begin() + 2 * n);
    return pk;
}

DigestSplit
splitDigest(const Params &params, ByteSpan digest)
{
    if (digest.size() < params.msgDigestBytes())
        throw std::invalid_argument("splitDigest: digest too short");

    DigestSplit out;
    const size_t fors_bytes = params.forsMsgBytes();
    const size_t tree_bytes = (params.treeBits() + 7) / 8;
    const size_t leaf_bytes = (params.leafBits() + 7) / 8;

    out.forsMsg.assign(digest.begin(), digest.begin() + fors_bytes);
    out.idxTree = bytesToU64(digest.data() + fors_bytes, tree_bytes) &
                  maskBits(params.treeBits());
    out.idxLeaf = static_cast<uint32_t>(
        bytesToU64(digest.data() + fors_bytes + tree_bytes, leaf_bytes) &
        maskBits(params.leafBits()));
    return out;
}

SphincsPlus::SphincsPlus(const Params &params) : params_(params)
{
    params_.validate();
}

ByteVec
SphincsPlus::computePkRoot(ByteSpan sk_seed, ByteSpan pk_seed) const
{
    Context ctx(params_, pk_seed, sk_seed);
    ByteVec root(params_.n);
    xmssTreehash(root.data(), nullptr, ctx, params_.layers - 1, 0, 0);
    return root;
}

KeyPair
SphincsPlus::keygen(Rng &rng) const
{
    ByteVec seed = rng.bytes(3 * static_cast<size_t>(params_.n));
    return keygenFromSeed(seed);
}

KeyPair
SphincsPlus::keygenFromSeed(ByteSpan seed) const
{
    const unsigned n = params_.n;
    if (seed.size() != 3 * static_cast<size_t>(n))
        throw std::invalid_argument("keygenFromSeed: need 3n bytes");

    KeyPair kp;
    kp.sk.params = params_;
    kp.sk.skSeed.assign(seed.begin(), seed.begin() + n);
    kp.sk.skPrf.assign(seed.begin() + n, seed.begin() + 2 * n);
    kp.sk.pkSeed.assign(seed.begin() + 2 * n, seed.begin() + 3 * n);
    kp.sk.pkRoot = computePkRoot(kp.sk.skSeed, kp.sk.pkSeed);

    kp.pk.params = params_;
    kp.pk.pkSeed = kp.sk.pkSeed;
    kp.pk.pkRoot = kp.sk.pkRoot;
    return kp;
}

ByteVec
SphincsPlus::sign(ByteSpan msg, const SecretKey &sk,
                  ByteSpan opt_rand) const
{
    Context ctx(params_, sk.pkSeed, sk.skSeed);
    return sign(ctx, msg, sk, opt_rand);
}

ByteVec
SphincsPlus::sign(const Context &ctx, ByteSpan msg, const SecretKey &sk,
                  ByteSpan opt_rand) const
{
    if (!ctx.params().sameShape(params_))
        throw std::invalid_argument(
            "sign: context does not match the scheme's parameters");
    ByteVec sig;
    SignTask::signGroup(ctx, sk, &msg, &opt_rand, &sig, 1);
    return sig;
}

bool
SphincsPlus::verify(ByteSpan msg, ByteSpan sig, const PublicKey &pk) const
{
    if (sig.size() != params_.sigBytes())
        return false;
    Context ctx(params_, pk.pkSeed, {});
    return verify(ctx, msg, sig, pk);
}

bool
SphincsPlus::verify(const Context &ctx, ByteSpan msg, ByteSpan sig,
                    const PublicKey &pk) const
{
    bool ok = false;
    verifyBatch(ctx, &msg, &sig, pk, &ok, 1);
    return ok;
}

namespace
{

/**
 * Verify up to maxHashLanes signatures under one public key with
 * every hot loop batched across the lanes: the lanes walk FORS and
 * the d hypertree layers in lockstep (all lanes share the parameter
 * set, so the layer structure is identical even though each lane
 * selects its own subtree chain).
 */
void
verifyGroupXN(const Context &ctx, const Params &p, const ByteSpan msgs[],
              const ByteSpan sigs[], const PublicKey &pk, bool ok[],
              unsigned count)
{
    const unsigned n = p.n;

    const uint8_t *in[maxHashLanes];
    uint64_t idx_tree[maxHashLanes];
    uint32_t idx_leaf[maxHashLanes];
    ByteVec fors_msgs[maxHashLanes];

    for (unsigned l = 0; l < count; ++l) {
        in[l] = sigs[l].data();
        ByteSpan r(in[l], n);
        in[l] += n;

        ByteVec digest(p.msgDigestBytes());
        hashMessage(digest, ctx, r, pk.pkRoot, msgs[l]);
        DigestSplit split = splitDigest(p, digest);
        fors_msgs[l] = std::move(split.forsMsg);
        idx_tree[l] = split.idxTree;
        idx_leaf[l] = split.idxLeaf;
    }

    // FORS, all lanes' k trees batched together.
    uint8_t roots[maxHashLanes][maxN];
    {
        Address fors_adrs[maxHashLanes];
        uint8_t *root_ptrs[maxHashLanes];
        const uint8_t *mhash[maxHashLanes];
        for (unsigned l = 0; l < count; ++l) {
            fors_adrs[l].setLayer(0);
            fors_adrs[l].setTree(idx_tree[l]);
            fors_adrs[l].setType(AddrType::ForsTree);
            fors_adrs[l].setKeypair(idx_leaf[l]);
            root_ptrs[l] = roots[l];
            mhash[l] = fors_msgs[l].data();
        }
        forsPkFromSigXN(root_ptrs, in, mhash, ctx, fors_adrs, count);
        for (unsigned l = 0; l < count; ++l)
            in[l] += p.forsSigBytes();
    }

    // Hypertree layers in lockstep: every lane climbs layer by layer,
    // so the WOTS+ chain recompute runs count * len ragged chains per
    // layer and the auth-path walks fill lanes across signatures.
    for (uint32_t layer = 0; layer < p.layers; ++layer) {
        Address wots_adrs[maxHashLanes];
        Address tree_adrs[maxHashLanes];
        uint8_t leaves[maxHashLanes][maxN];
        uint8_t *leaf_ptrs[maxHashLanes];
        const uint8_t *leaf_in[maxHashLanes];
        const uint8_t *msg_ptrs[maxHashLanes];
        const uint8_t *auth[maxHashLanes];
        uint8_t *root_ptrs[maxHashLanes];
        uint32_t offsets[maxHashLanes];

        for (unsigned l = 0; l < count; ++l) {
            wots_adrs[l].setLayer(layer);
            wots_adrs[l].setTree(idx_tree[l]);
            wots_adrs[l].setType(AddrType::WotsHash);
            wots_adrs[l].setKeypair(idx_leaf[l]);
            leaf_ptrs[l] = leaves[l];
            msg_ptrs[l] = roots[l];
        }
        wotsPkFromSigXN(leaf_ptrs, in, msg_ptrs, ctx, wots_adrs, count);

        for (unsigned l = 0; l < count; ++l) {
            in[l] += p.wotsSigBytes();
            tree_adrs[l].setLayer(layer);
            tree_adrs[l].setTree(idx_tree[l]);
            tree_adrs[l].setType(AddrType::Tree);
            leaf_in[l] = leaves[l];
            auth[l] = in[l];
            root_ptrs[l] = roots[l];
            offsets[l] = 0;
        }
        computeRootXN(root_ptrs, ctx, leaf_in, idx_leaf, offsets, auth,
                      p.treeHeight(), tree_adrs, count);

        for (unsigned l = 0; l < count; ++l) {
            in[l] += p.treeHeight() * n;
            idx_leaf[l] = static_cast<uint32_t>(
                idx_tree[l] & maskBits(p.treeHeight()));
            idx_tree[l] >>= p.treeHeight();
        }
    }

    for (unsigned l = 0; l < count; ++l)
        ok[l] = ctEqual(ByteSpan(roots[l], n), pk.pkRoot);
}

} // namespace

void
SphincsPlus::verifyBatch(const ByteSpan msgs[], const ByteSpan sigs[],
                         const PublicKey &pk, bool ok[],
                         size_t count) const
{
    Context ctx(params_, pk.pkSeed, {});
    verifyBatch(ctx, msgs, sigs, pk, ok, count);
}

void
SphincsPlus::verifyBatch(const Context &ctx, const ByteSpan msgs[],
                         const ByteSpan sigs[], const PublicKey &pk,
                         bool ok[], size_t count) const
{
    if (!ctx.params().sameShape(params_) ||
        !ctEqual(ctx.pkSeed(), ByteSpan(pk.pkSeed)))
        throw std::invalid_argument(
            "verifyBatch: context does not match the public key");

    // Malformed lengths reject up front; survivors verify in lane
    // groups of the dispatched width (16 on AVX-512, 8 elsewhere).
    const unsigned width = hashLaneWidth();
    size_t valid[maxHashLanes];
    ByteSpan gmsgs[maxHashLanes];
    ByteSpan gsigs[maxHashLanes];
    bool gok[maxHashLanes];
    size_t pos = 0;
    while (pos < count) {
        unsigned m = 0;
        while (pos < count && m < width) {
            if (sigs[pos].size() != params_.sigBytes()) {
                ok[pos] = false;
            } else {
                valid[m] = pos;
                gmsgs[m] = msgs[pos];
                gsigs[m] = sigs[pos];
                ++m;
            }
            ++pos;
        }
        if (m == 0)
            continue;
        verifyGroupXN(ctx, params_, gmsgs, gsigs, pk, gok, m);
        for (unsigned j = 0; j < m; ++j)
            ok[valid[j]] = gok[j];
    }
}

} // namespace herosign::sphincs
