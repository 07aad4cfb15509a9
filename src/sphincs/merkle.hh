/**
 * @file
 * Merkle tree machinery shared by FORS and the hypertree (MSS): the
 * resumable stack-based treehash with authentication-path extraction,
 * the verification-side root reconstruction, and the MSS layer signing
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
 * Incremental stack-based treehash over one Merkle tree: leaves are
 * absorbed in index order, the root and the authentication path for
 * one leaf fall out once all 2^height leaves have been absorbed. It is
 * the only Merkle tree builder on the signing side: forsTreeBatch(),
 * SignTask::runGroup()'s hypertree layers and xmssTreehash() all
 * feed streams the leaves an external pool hashed.
 *
 * Leaves enter through absorbLockstep(), one per stream per call.
 * Same-shape trees at the same leaf position have identical stack
 * states, so every combine triggered by one absorbed leaf runs as one
 * lane-batched thashX call across the group; a lone stream is a group
 * of one.
 */
class TreehashStream
{
  public:
    /** Largest tree height a stream can hold. */
    static constexpr unsigned maxHeight =
        maxTreeHeight > maxForsHeight ? maxTreeHeight : maxForsHeight;

    TreehashStream() = default;

    /**
     * Arm the stream for one tree. Absorbed-leaf state resets.
     * @param ctx hashing context (must outlive the stream's use)
     * @param height tree height (at most maxHeight)
     * @param leaf_idx leaf whose auth path to extract (local index)
     * @param idx_offset added to node indices in the hash addresses
     * @param auth_path out, height * n bytes (nullptr to skip)
     * @param tree_adrs address with layer/tree/type set
     */
    void begin(const Context &ctx, unsigned height, uint32_t leaf_idx,
               uint32_t idx_offset, uint8_t *auth_path,
               const Address &tree_adrs);

    /**
     * The n-byte root, once all 2^height leaves have been absorbed.
     * @throws std::logic_error before that
     */
    const uint8_t *root() const;

    /**
     * Absorb one leaf into each of @p count same-shape streams in
     * lockstep, running each collapse level as one thashX batch
     * across the group. All streams must share one Context and have
     * equal height and absorbed count (checked, throws
     * std::invalid_argument); the bytes do not depend on how streams
     * are grouped.
     * @param leaves count pointers to n-byte leaves (leaves[l] feeds
     *        streams[l])
     * @param count 1..maxHashLanes streams
     */
    static void absorbLockstep(TreehashStream *const streams[],
                               const uint8_t *const leaves[],
                               unsigned count);

  private:
    const Context *ctx_ = nullptr;
    Address adrs_;
    uint8_t *auth_ = nullptr;
    uint32_t leafIdx_ = 0;
    uint32_t idxOffset_ = 0;
    uint32_t next_ = 0;
    uint32_t total_ = 0;
    unsigned height_ = 0;
    unsigned sp_ = 0;
    uint8_t stack_[(maxHeight + 1) * maxN];
    unsigned stackHeights_[maxHeight + 1];
};

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
 * wotsLeafBatch() in waves of maxHashLanes and feed one
 * TreehashStream. Keygen's root and merkleSign()'s tree are built
 * here.
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
