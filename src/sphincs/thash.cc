#include "sphincs/thash.hh"

#include <stdexcept>

#include "hash/hmac.hh"
#include "hash/mgf1.hh"

namespace herosign::sphincs
{

void
thash(uint8_t *out, const Context &ctx, const Address &adrs, ByteSpan in)
{
    Sha256 hasher = ctx.seededHasher();
    auto adrs_c = adrs.compressed();
    hasher.update(ByteSpan(adrs_c.data(), adrs_c.size()));
    hasher.update(in);
    uint8_t digest[Sha256::digestSize];
    hasher.final(digest);
    std::memcpy(out, digest, ctx.params().n);
}

void
prfAddr(uint8_t *out, const Context &ctx, const Address &adrs)
{
    thash(out, ctx, adrs, ctx.skSeed());
}

void
prfMsg(uint8_t *out, const Context &ctx, ByteSpan sk_prf,
       ByteSpan opt_rand, ByteSpan msg)
{
    HmacSha256 mac(sk_prf);
    mac.update(opt_rand);
    mac.update(msg);
    uint8_t full[HmacSha256::digestSize];
    mac.final(full);
    std::memcpy(out, full, ctx.params().n);
}

void
hashMessage(MutByteSpan digest, const Context &ctx, ByteSpan r,
            ByteSpan pk_root, ByteSpan msg)
{
    // seed1 = SHA-256(R || pk_seed || pk_root || msg)
    Sha256 inner;
    inner.update(r);
    inner.update(ctx.pkSeed());
    inner.update(pk_root);
    inner.update(msg);
    uint8_t seed1[Sha256::digestSize];
    inner.final(seed1);

    // digest = MGF1(R || pk_seed || seed1, m). R and pk_seed are n
    // bytes each, so the seed fits a fixed stack buffer — this runs
    // once per sign/verify and must not allocate. Enforce the bound
    // the buffer relies on (Context already guarantees pk_seed == n).
    if (r.size() > maxN || ctx.pkSeed().size() > maxN)
        throw std::invalid_argument("hashMessage: seed exceeds maxN");
    uint8_t mgf_seed[2 * maxN + sizeof(seed1)];
    size_t len = 0;
    std::memcpy(mgf_seed + len, r.data(), r.size());
    len += r.size();
    std::memcpy(mgf_seed + len, ctx.pkSeed().data(), ctx.pkSeed().size());
    len += ctx.pkSeed().size();
    std::memcpy(mgf_seed + len, seed1, sizeof(seed1));
    len += sizeof(seed1);
    mgf1Sha256(digest, ByteSpan(mgf_seed, len));
}

} // namespace herosign::sphincs
