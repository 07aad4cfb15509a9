/**
 * @file
 * Lane-batched SPHINCS+ tweakable hashes: up to maxHashLanes
 * independent T/F/PRF calls advanced in lockstep on the width-generic
 * SHA-256 lane engine (hash/sha256xN.hh). This is the CPU analogue of
 * HERO-Sign's batched GPU hash calls (paper §III): WOTS+ chains, FORS
 * leaves and Merkle leaf layers are all independent calls of one
 * shape, so they fill SIMD lanes exactly.
 *
 * Every function takes a lane count `count <= maxHashLanes` and is
 * width-agnostic: the batch is processed greedily with the widest
 * active kernels (16-wide AVX-512 chunks, then 8-wide AVX2 chunks,
 * then scalar lanes), so digests AND Sha256::compressionCount()
 * accounting stay bit-for-bit identical to the scalar path for any
 * count on any backend. Callers that choose their own batch size
 * should fill hashLaneWidth() lanes per pass — the width the
 * dispatched backend actually executes.
 *
 * WOTS+ chains have their own entry, thashChainX: a whole segment of
 * F steps per call, so a full 16-lane group on AVX-512 keeps its
 * values in registers from the first step to the last.
 */

#ifndef HEROSIGN_SPHINCS_THASHX_HH
#define HEROSIGN_SPHINCS_THASHX_HH

#include "common/bytes.hh"
#include "hash/sha256xN.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"
#include "sphincs/thash.hh"

namespace herosign::sphincs
{

/** Hard upper bound on the lane count of one batched hash call. */
constexpr unsigned maxHashLanes =
    static_cast<unsigned>(maxSha256Lanes);

/**
 * Lane width of the dispatched backend: 16 with AVX-512 active, 8
 * otherwise (AVX2 and portable). The natural batch size for the hot
 * loops — a full batch of this width runs entirely on the widest
 * kernel.
 */
inline unsigned
hashLaneWidth()
{
    return laneDispatch().width;
}

/**
 * Batched generic tweakable hash: out[l] = T(adrs[l], in[l]) for
 * l < count, with a uniform input length.
 * @param out count pointers to n-byte outputs
 * @param adrs count hash addresses
 * @param in count pointers to in_len-byte inputs
 * @param in_len input length shared by all lanes (a multiple of n for
 *        T_l calls, or the PRF message length)
 * @param count active lanes, 1..maxHashLanes
 *
 * out[l] may alias in[l] (chain steps hash in place).
 */
void thashX(uint8_t *const out[], const Context &ctx,
            const Address adrs[], const uint8_t *const in[],
            size_t in_len, unsigned count);

/** Batched F: out[l] = F(adrs[l], in[l]), single n-byte inputs. */
inline void
thashFX(uint8_t *const out[], const Context &ctx, const Address adrs[],
        const uint8_t *const in[], unsigned count)
{
    thashX(out, ctx, adrs, in, ctx.params().n, count);
}

/**
 * Batched WOTS+ chain segment: lane l applies F @p steps times to its
 * n-byte value vals[l] (in place), at chain positions start[l],
 * start[l] + 1, ... — the spec's chain(X, start, steps). This entry
 * owns the tier choice for chains: a full 16-lane group on native
 * AVX-512 runs the register-resident chain kernel
 * (sha256Chain16SeededAvx512); every other case (AVX2, portable,
 * forced-scalar or quarantined lanes, fewer than 16 lanes) runs the
 * segment as one fused one-block F call per step. Only
 * laneDispatch() and the lane count pick the path.
 * Both give the same bytes and charge count * steps compressions.
 * The simd-lane fault seam fires once per kernel call.
 *
 * @param vals count pointers to n-byte chain values
 * @param adrs count WOTS_HASH addresses with layer, tree, keypair
 *        and chain set; their hash field is ignored
 * @param start count chain positions, start[l] + steps <= w - 1
 * @param steps F calls per lane (0 does nothing)
 * @param count active lanes, 1..maxHashLanes
 * @param cap_out optional: where cap_out[l] is set, lane l's value is
 *        copied there when its position reaches cap_pos[l], if that
 *        lies in (start[l], start[l] + steps]
 * @param cap_pos capture positions, read only where cap_out[l] is set
 * @throws std::invalid_argument for a count outside 1..16 or a chain
 *         that would run past position w - 1
 */
void thashChainX(uint8_t *const vals[], const Context &ctx,
                 const Address adrs[], const uint32_t start[],
                 uint32_t steps, unsigned count,
                 uint8_t *const cap_out[] = nullptr,
                 const uint32_t cap_pos[] = nullptr);

/** Batched PRF: out[l] = PRF(pk_seed, sk_seed, adrs[l]). */
void prfAddrX(uint8_t *const out[], const Context &ctx,
              const Address adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_THASHX_HH
