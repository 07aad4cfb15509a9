/**
 * @file
 * WOTS+ one-time signatures (spec §3). Each of the len chains is an
 * independent hash chain — the property HERO-Sign's WOTS+_Sign kernel
 * exploits with chain-level parallelism (paper §II-A1).
 */

#ifndef HEROSIGN_SPHINCS_WOTS_HH
#define HEROSIGN_SPHINCS_WOTS_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Compute the base-w chain lengths for a message: len1 message digits
 * followed by len2 checksum digits.
 * @param lengths output array of params.wotsLen() entries, each in
 *        [0, w-1]
 * @param msg the n-byte message (a Merkle root)
 */
void chainLengths(uint32_t *lengths, const Params &params,
                  const uint8_t *msg);

/**
 * Advance one WOTS+ hash chain.
 * @param out n bytes; may alias @p in
 * @param in n-byte chain value at position @p start
 * @param start current position in the chain
 * @param steps how many F applications to perform
 * @param adrs WOTS_HASH address with layer/tree/keypair/chain set;
 *        the hash position field is managed by this function
 */
void genChain(uint8_t *out, const uint8_t *in, uint32_t start,
              uint32_t steps, const Context &ctx, Address &adrs);

/**
 * Derive the secret chain start value for chain @p chain.
 * @param adrs a WOTS_PRF address with layer/tree/keypair set
 */
void wotsChainSk(uint8_t *out, const Context &ctx, Address &adrs,
                 uint32_t chain);

/**
 * One WOTS+ leaf of pooled hash work: generate the compressed public
 * key for keypair @p keypair of subtree (layer, tree), optionally
 * capturing the signature chain values on the way. The leaves of one
 * wotsLeafBatch() call may come from different layers, trees and
 * signatures — each request carries its own addressing — which is
 * what lets the cross-signature LaneScheduler keep the hash lanes
 * full on parameter shapes whose subtrees are narrower than the lane
 * width.
 *
 * When @p sigOut is set, @p lengths must point at the wotsLen()
 * chain-length digits of the message this keypair signs; sigOut[i]
 * receives the chain-i value at position lengths[i] — exactly the
 * bytes wotsSign() produces, captured for free while the chains run
 * to w-1 for the leaf, so the signing leaf costs no separate
 * chain-walk.
 */
struct WotsLeafReq
{
    uint32_t layer = 0;
    uint64_t tree = 0;
    uint32_t keypair = 0;
    uint8_t *leafOut = nullptr;      ///< n bytes: compressed pk
    uint8_t *sigOut = nullptr;       ///< optional, wotsSigBytes()
    const uint32_t *lengths = nullptr; ///< wotsLen() capture positions
};

/**
 * Generate @p count WOTS+ leaves described by @p reqs with every hash
 * pooled across requests: chain-start PRFs, chain steps and the final
 * T_len compressions all run in lane batches of the dispatched width,
 * maxHashLanes leaves per internal sub-batch. Leaf and captured
 * signature bytes are the same at every width and batch composition.
 * This is the only WOTS+ leaf generator: keygen, every hypertree
 * layer of a signature and the simulator's scalar leaf (wotsGenLeaf)
 * all come through it. @p count is unbounded.
 */
void wotsLeafBatch(const Context &ctx, const WotsLeafReq reqs[],
                   unsigned count);

/**
 * Sign an n-byte message (a root) with the selected WOTS+ keypair.
 * @param sig out, wotsSigBytes() = len * n
 */
void wotsSign(uint8_t *sig, const uint8_t *msg, const Context &ctx,
              const Address &leaf_adrs);

/**
 * Recompute up to maxHashLanes compressed public keys from signatures
 * in one pass — the hot loop of batched verification. All count * len
 * ragged chains advance together in lane groups of the dispatched
 * width, one segment per group up to the next chain to finish (lanes
 * retire and refill between segments), and the final T_len
 * compressions run one per lane. The signatures may sit in
 * different hypertree positions (each lane has its own address) but
 * must share one context / parameter set. The bytes are the same at
 * every width and lane count; verification runs a lone signature
 * through it as one lane.
 *
 * @param pk_out count pointers to n-byte outputs
 * @param sig count pointers to wotsSigBytes() signatures
 * @param msg count pointers to the n-byte signed roots
 * @param leaf_adrs count addresses with layer/tree/keypair set
 * @param count active lanes, 1..maxHashLanes
 */
void wotsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                     const uint8_t *const msg[], const Context &ctx,
                     const Address leaf_adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_WOTS_HH
