/**
 * @file
 * FORS — Forest of Random Subsets (spec §5). k Merkle trees of height
 * a; the message digest selects one leaf per tree. Each tree is
 * independent, the property HERO-Sign's FORS Fusion builds on
 * (paper §III-B).
 */

#ifndef HEROSIGN_SPHINCS_FORS_HH
#define HEROSIGN_SPHINCS_FORS_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Extract the k FORS leaf indices (a bits each, MSB first) from the
 * message-hash prefix.
 * @param indices out, k entries in [0, 2^a)
 * @param mhash at least forsMsgBytes() bytes
 */
void messageToIndices(uint32_t *indices, const Params &params,
                      const uint8_t *mhash);

/**
 * Derive the FORS secret leaf value at absolute leaf index @p idx
 * (idx = tree * t + leaf).
 * @param fors_adrs ForsTree-typed address with layer/tree/keypair set
 */
void forsSkGen(uint8_t *out, const Context &ctx, const Address &fors_adrs,
               uint32_t idx);

/**
 * Compute the FORS leaf (F of the secret value) at absolute index
 * @p idx.
 */
void forsGenLeaf(uint8_t *out, const Context &ctx,
                 const Address &fors_adrs, uint32_t idx);

/**
 * One FORS leaf of pooled hash work: leaf @p idx (absolute index,
 * tree * t + position) of the forest addressed by @p adrs, written to
 * @p out. Requests in one forsLeafBatch() call may come from
 * different trees, keypairs and signatures — each carries its own
 * base address — so forsTreeBatch() can fill hash lanes across trees
 * and signatures.
 */
struct ForsLeafReq
{
    Address adrs;          ///< ForsTree-typed, layer/tree/keypair set
    uint32_t idx = 0;      ///< absolute leaf index
    uint8_t *out = nullptr; ///< n bytes
};

/**
 * Compute @p count FORS leaves described by @p reqs, pooling the PRF
 * and F calls into lane batches of the dispatched width
 * (maxHashLanes leaves per internal sub-batch). Byte-identical to
 * per-leaf forsGenLeaf() calls at every width. @p count is unbounded.
 */
void forsLeafBatch(const Context &ctx, const ForsLeafReq reqs[],
                   unsigned count);

/**
 * One FORS tree of pooled tree-building work: tree @p tree (0..k-1)
 * of the forest addressed by @p adrs, whose root lands in @p rootOut
 * and the authentication path of local leaf @p leafIdx in
 * @p authOut.
 */
struct ForsTreeReq
{
    Address adrs;               ///< ForsTree-typed, layer/tree/keypair set
    unsigned tree = 0;          ///< FORS tree index i (leaves at i * t)
    uint32_t leafIdx = 0;       ///< authenticated leaf, local index
    uint8_t *authOut = nullptr; ///< a * n bytes
    uint8_t *rootOut = nullptr; ///< n bytes
};

/**
 * Build @p count independent FORS trees (HERO-Sign's Tree Fusion,
 * paper §III-B). The trees may come from one signature or from many
 * signatures under @p ctx. They are built in lockstep groups of
 * exactly hashLaneWidth() trees: each group's leaves are pooled by
 * position through forsLeafBatch(), and every node-combine level is
 * one full-width thashX batch (TreehashStream::absorbLockstep).
 * Exact-width groups matter because the lane kernels only take whole
 * 16- or 8-lane chunks: a 15-tree group would run 8 lanes on AVX2 and
 * 7 lanes scalar. The m < width trees left over at the end are split
 * into width subtrees each, which again form m full groups; only the
 * top log2(width) levels of those m trees combine in narrower
 * batches. Roots and auth paths are byte-identical to per-tree
 * treehash() calls over forsGenLeaf() at every width, and so is the
 * Sha256::compressionCount() total.
 */
void forsTreeBatch(const Context &ctx, const ForsTreeReq reqs[],
                   size_t count);

/**
 * FORS signature: for each of the k trees, the selected secret value
 * followed by its authentication path. The k trees are built together
 * by forsTreeBatch().
 * @param sig out, forsSigBytes()
 * @param pk_out out, n bytes: the FORS public key (root compression),
 *        which is the message signed by the bottom hypertree layer
 * @param mhash the message-digest prefix (forsMsgBytes() bytes)
 * @param fors_adrs ForsTree-typed address with layer(0)/tree/keypair
 */
void forsSign(uint8_t *sig, uint8_t *pk_out, const uint8_t *mhash,
              const Context &ctx, const Address &fors_adrs);

/**
 * Verification direction: recompute the FORS public key from a
 * signature.
 */
void forsPkFromSig(uint8_t *pk_out, const uint8_t *sig,
                   const uint8_t *mhash, const Context &ctx,
                   const Address &fors_adrs);

/**
 * Batched verification direction for up to maxHashLanes signatures
 * sharing one context: all count * k revealed leaves hash in batches
 * of the dispatched lane width and the count * k independent
 * auth-path walks (equal height a) climb in lockstep lanes, followed
 * by one batched root compression per lane. Lanes may select
 * different hypertree positions (per-lane address). Byte-identical to
 * count forsPkFromSig calls at every width.
 *
 * @param pk_out count pointers to n-byte FORS public keys
 * @param sig count pointers to forsSigBytes() signature blocks
 * @param mhash count pointers to forsMsgBytes() digest prefixes
 * @param fors_adrs count ForsTree-typed addresses with
 *        layer(0)/tree/keypair set
 * @param count active lanes, 1..maxHashLanes
 */
void forsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                     const uint8_t *const mhash[], const Context &ctx,
                     const Address fors_adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_FORS_HH
