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
#include "sphincs/merkle.hh"

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
 * (maxHashLanes leaves per internal sub-batch). A leaf is F of the
 * forsSkGen() value at its index; the bytes are the same at every
 * width. @p count is unbounded.
 */
void forsLeafBatch(const Context &ctx, const ForsLeafReq reqs[],
                   unsigned count);

/**
 * Build @p count independent FORS trees (HERO-Sign's Tree Fusion,
 * paper §III-B). The trees may come from one signature or from many
 * signatures under @p ctx; each request's ForsTree-typed address has
 * layer/tree/keypair set, and leaf i of a tree is the forsLeafBatch()
 * leaf at absolute index idxOffset + i. The trees are taken in chunks
 * of whole trees bounded by a leaf count (fors.cc): a chunk's leaves
 * hash in pooled lane waves into one slab, then one treeLevels() call
 * reduces the chunk level by level, each level's combines across all
 * of its trees filling the lane batches. Roots, auth paths and the
 * Sha256::compressionCount() total are the same at every width and
 * chunking.
 */
void forsTreeBatch(const Context &ctx, const TreeReq reqs[],
                   size_t count);

/**
 * Write the k selected FORS secret values into a FORS signature
 * block: tree i's value lands at the head of its (a + 1) * n-byte
 * entry. The k PRF calls run one dispatched lane width per batch.
 * @param fors_sig the forsSigBytes() signature block
 * @param indices the k leaf indices (messageToIndices())
 * @param fors_adrs ForsTree-typed address with layer/tree/keypair
 */
void forsSecretValues(uint8_t *fors_sig, const uint32_t indices[],
                      const Context &ctx, const Address &fors_adrs);

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
 * Batched verification direction for up to maxHashLanes signatures
 * sharing one context: all count * k revealed leaves hash in batches
 * of the dispatched lane width and the count * k independent
 * auth-path walks (equal height a) climb in lockstep lanes, followed
 * by one batched root compression per lane. Lanes may select
 * different hypertree positions (per-lane address). The bytes are the
 * same at every width and lane count.
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
