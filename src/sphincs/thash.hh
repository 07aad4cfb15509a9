/**
 * @file
 * SPHINCS+ tweakable hash functions, sha256-simple construction:
 *
 *   T_l(pk_seed, adrs, m_1..m_l) =
 *       Trunc_n(SHA-256(pk_seed || toByte(0, 64-n) || adrs_c || m))
 *   F = T_1,  H = T_2
 *   PRF(pk_seed, sk_seed, adrs) = T-style with sk_seed as message
 *   PRF_msg(sk_prf, opt_rand, m) = Trunc_n(HMAC-SHA-256(...))
 *   H_msg(R, pk_seed, pk_root, m) =
 *       MGF1-SHA-256(R || pk_seed || SHA-256(R||pk_seed||pk_root||m), m)
 *
 * Following the paper, SHA-256 is used at every security level, so
 * 192f/256f do not interoperate with SPHINCS+ r3.1 or FIPS 205, which
 * switch H_msg, PRF_msg, H and T_l to SHA-512 there (README,
 * "Not interoperable at 192f/256f").
 */

#ifndef HEROSIGN_SPHINCS_THASH_HH
#define HEROSIGN_SPHINCS_THASH_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Generic tweakable hash: out = T(|in| / n inputs).
 * @param out n bytes
 * @param ctx hashing context (provides pk_seed mid-state)
 * @param adrs hash address
 * @param in concatenated n-byte inputs (any multiple of n, or the
 *        message for PRF-style calls)
 */
void thash(uint8_t *out, const Context &ctx, const Address &adrs,
           ByteSpan in);

/** F: one-input tweakable hash. */
inline void
thashF(uint8_t *out, const Context &ctx, const Address &adrs,
       const uint8_t *in)
{
    thash(out, ctx, adrs, ByteSpan(in, ctx.params().n));
}

/** H: two-input tweakable hash (Merkle node combine). */
inline void
thashH(uint8_t *out, const Context &ctx, const Address &adrs,
       const uint8_t *left, const uint8_t *right)
{
    uint8_t buf[2 * maxN];
    std::memcpy(buf, left, ctx.params().n);
    std::memcpy(buf + ctx.params().n, right, ctx.params().n);
    thash(out, ctx, adrs, ByteSpan(buf, 2 * ctx.params().n));
}

/** PRF(pk_seed, sk_seed, adrs): secret-key value derivation. */
void prfAddr(uint8_t *out, const Context &ctx, const Address &adrs);

/** PRF_msg: randomizer R derivation. */
void prfMsg(uint8_t *out, const Context &ctx, ByteSpan sk_prf,
            ByteSpan opt_rand, ByteSpan msg);

/**
 * H_msg: hash the message to the m-byte digest that selects FORS
 * indices, tree index and leaf index.
 * @param digest output, params.msgDigestBytes() long
 */
void hashMessage(MutByteSpan digest, const Context &ctx, ByteSpan r,
                 ByteSpan pk_root, ByteSpan msg);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_THASH_HH
