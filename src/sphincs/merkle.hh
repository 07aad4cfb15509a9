/**
 * @file
 * Merkle tree machinery shared by FORS and the hypertree (MSS): the
 * level-wise tree builder with authentication-path extraction, the
 * verification-side root reconstruction, and the MSS layer signing
 * step (WOTS+ sign + auth path) of paper §II-A3/A4.
 */

#ifndef HEROSIGN_SPHINCS_MERKLE_HH
#define HEROSIGN_SPHINCS_MERKLE_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * One tree of a treeLevels() call: its hash address, where its leaves
 * sit in the index space, the leaf it authenticates and where its
 * root and auth path go. Leaf i of the tree has absolute index
 * idxOffset + i: 0 for a hypertree subtree, tree * t for FORS tree
 * `tree` of a forest.
 */
struct TreeReq
{
    Address adrs;               ///< Tree- or ForsTree-typed, layer/tree
                                ///< (and FORS keypair) set
    uint32_t idxOffset = 0;     ///< absolute index of leaf 0
    uint32_t leafIdx = 0;       ///< authenticated leaf, local index
    uint8_t *authOut = nullptr; ///< height * n bytes (nullptr to skip)
    uint8_t *rootOut = nullptr; ///< n bytes
};

/**
 * Reduce @p count same-height Merkle trees to their roots level by
 * level, the CPU form of HERO-Sign's Tree Fusion (paper §III-B) with
 * one sync point per level. It is the only Merkle tree builder on the
 * signing side: forsTreeBatch(), SignTask's hypertree layers and
 * xmssTreehash() hash the leaves into @p nodes and call it.
 *
 * Every level is one packed array, tree i's nodes after tree i - 1's,
 * so node g of the next level hashes nodes 2g and 2g + 1 straight from
 * the current one, and a level's combines across all trees run in
 * thashX batches of hashLaneWidth(). Each tree's auth-path sibling on
 * a level is copied out before that level is combined. Levels
 * alternate between @p scratch and @p nodes, so both are clobbered.
 * The bytes and the Sha256::compressionCount() total are the same at
 * every lane width and tree count.
 *
 * @param height tree height (Params::validate() bounds it)
 * @param nodes count * 2^height * n bytes: the leaves, tree by tree
 * @param scratch count * 2^(height - 1) * n bytes
 * @throws std::invalid_argument when a buffer is shorter than that,
 *         or a tree's leafIdx is not below 2^height
 */
void treeLevels(const Context &ctx, unsigned height, const TreeReq trees[],
                size_t count, MutByteSpan nodes, MutByteSpan scratch);

/**
 * Batched root reconstruction: up to maxHashLanes independent
 * auth-path walks of one shared @p height advanced level by level in
 * hash lanes of the dispatched width. Lane l reconstructs from
 * leaf[l] / auth_path[l] with its own leaf index, index offset and
 * subtree address, so the lanes may come from different FORS trees,
 * different signatures, or both. The bytes are the same at every width
 * and lane count.
 *
 * @param root count pointers to n-byte outputs (may alias leaf[l])
 * @param tree_adrs count addresses with layer/tree/type set; the
 *        height/index fields are managed here (the array is scratch)
 * @param count active lanes, 1..maxHashLanes
 */
void computeRootXN(uint8_t *const root[], const Context &ctx,
                   const uint8_t *const leaf[], const uint32_t leaf_idx[],
                   const uint32_t idx_offset[],
                   const uint8_t *const auth_path[], unsigned height,
                   Address tree_adrs[], unsigned count);

/**
 * Generate the hypertree leaf (compressed WOTS+ public key) for
 * keypair @p leaf_idx in the subtree addressed by layer/tree: one
 * wotsLeafBatch() leaf, for the simulator's scalar kernels.
 */
void wotsGenLeaf(uint8_t *leaf_out, const Context &ctx, uint32_t layer,
                 uint64_t tree, uint32_t leaf_idx);

/**
 * Build hypertree subtree (@p layer, @p tree): its root and the
 * authentication path of keypair @p leaf_idx. The leaves come from
 * one wotsLeafBatch() call, then one treeLevels() call builds the
 * tree. Keygen's root and merkleSign()'s tree are built here.
 * @param auth_path out, treeHeight * n bytes (nullptr to skip)
 */
void xmssTreehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
                  uint32_t layer, uint64_t tree, uint32_t leaf_idx);

/**
 * One MSS layer of the hypertree signature: WOTS+-sign @p msg with
 * keypair @p leaf_idx of subtree (layer, tree), emit the WOTS+
 * signature followed by the auth path, and return the subtree root.
 *
 * @param sig out, xmssSigBytes() = wots sig + treeHeight * n
 * @param root_out out, n bytes: the subtree root (message for the
 *        next layer)
 */
void merkleSign(uint8_t *sig, uint8_t *root_out, const Context &ctx,
                uint32_t layer, uint64_t tree, uint32_t leaf_idx,
                const uint8_t *msg);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_MERKLE_HH
