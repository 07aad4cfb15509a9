/**
 * @file
 * Merkle tree machinery shared by FORS and the hypertree (MSS):
 * stack-based treehash with authentication-path extraction, the
 * verification-side root reconstruction, and the MSS layer signing
 * step (WOTS+ sign + auth path) of paper §II-A3/A4.
 */

#ifndef HEROSIGN_SPHINCS_MERKLE_HH
#define HEROSIGN_SPHINCS_MERKLE_HH

#include <functional>
#include <type_traits>

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Leaf generator callback: produce the n-byte leaf with *local* index
 * @p leaf_idx (offsets are applied by the callback via its captured
 * addressing state).
 */
using LeafFn = std::function<void(uint8_t *out, uint32_t leaf_idx)>;

/**
 * Non-owning reference to a batched leaf generator: a callable
 * producing @p count consecutive leaves (local indices leaf_start ..
 * leaf_start + count - 1, count <= maxHashLanes) contiguously into
 * @p out. Lets
 * the generator run its hash calls across SIMD lanes (see
 * sphincs/thashx.hh). A lightweight function_ref rather than
 * std::function so the signing hot path never heap-allocates for the
 * callback; the referenced callable must outlive the treehash call
 * (passing a lambda as the argument is fine).
 */
class BatchLeafRef
{
  public:
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<
                  const F &, uint8_t *, uint32_t, uint32_t>>>
    BatchLeafRef(const F &fn) // NOLINT: implicit by design
        : obj_(&fn), call_([](const void *obj, uint8_t *out,
                              uint32_t leaf_start, uint32_t count) {
              (*static_cast<const F *>(obj))(out, leaf_start, count);
          })
    {
    }

    void
    operator()(uint8_t *out, uint32_t leaf_start, uint32_t count) const
    {
        call_(obj_, out, leaf_start, count);
    }

  private:
    const void *obj_;
    void (*call_)(const void *, uint8_t *, uint32_t, uint32_t);
};

/**
 * Incremental stack-based treehash over one Merkle tree: leaves are
 * absorbed in index order (any batch sizes), the root and the
 * authentication path for one leaf fall out once all 2^height leaves
 * have been absorbed. This is the resumable core forsTreeBatch() and
 * the LaneScheduler's hypertree layers drive — an external pool feeds
 * each stream its leaves — and the one-shot treehash() below is a
 * thin wrapper over it, so the paths are byte-identical by
 * construction.
 *
 * Streams of identical shape (same height, absorbed in lockstep) can
 * additionally pool their node-combine hashes across trees via
 * absorbLockstep(): same-shape trees at the same leaf position have
 * identical stack states, so every combine triggered by one absorbed
 * leaf runs as one lane-batched thashX call across the group instead
 * of per-tree scalar calls.
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
     * Absorb @p count consecutive leaves (n bytes each, contiguous),
     * combining nodes with scalar hash calls as the stack collapses.
     */
    void absorb(const uint8_t *leaves, uint32_t count);

    /** Leaves absorbed so far. */
    uint32_t absorbed() const { return next_; }

    /** Total leaves this tree expects (2^height). */
    uint32_t total() const { return total_; }

    /** True once every leaf has been absorbed. */
    bool done() const { return next_ == total_; }

    /** The n-byte root; valid only when done(). */
    const uint8_t *root() const;

    /**
     * Absorb one leaf into each of @p count same-shape streams in
     * lockstep, running each collapse level as one thashX batch
     * across the group. All streams must share one Context and have
     * equal height and absorbed count (checked, throws
     * std::invalid_argument); results are byte-identical to absorbing
     * each stream separately.
     * @param leaves count pointers to n-byte leaves (leaves[l] feeds
     *        streams[l])
     * @param count 1..maxHashLanes streams
     */
    static void absorbLockstep(TreehashStream *const streams[],
                               const uint8_t *const leaves[],
                               unsigned count);

  private:
    void absorbOne(const uint8_t *leaf);

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
 * Stack-based treehash: computes the root of a 2^height-leaf Merkle
 * tree and the authentication path for @p leaf_idx. The leaf layer is
 * produced hashLaneWidth() leaves per callback so independent leaves
 * fill the dispatched hash lanes. The node combines run one at a time:
 * inside one tree each needs the one before. Independent trees of one
 * shape can instead combine in lanes through
 * TreehashStream::absorbLockstep(), as forsTreeBatch() does for FORS.
 *
 * @param root out, n bytes
 * @param auth_path out, height * n bytes (may be nullptr to skip)
 * @param leaf_idx index of the authenticated leaf (local, 0-based)
 * @param idx_offset added to node indices in the hash addresses (used
 *        by FORS where tree i starts at leaf index i * t)
 * @param height tree height (at most maxTreeHeight)
 * @param gen_leaves batched leaf generator (receives local indices;
 *        must apply idx_offset itself when addressing)
 * @param tree_adrs address with layer/tree/type set; height/index
 *        fields are managed here
 */
void treehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
              uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
              BatchLeafRef gen_leaves, Address &tree_adrs);

/** Scalar-leaf convenience overload wrapping @p gen_leaf. */
void treehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
              uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
              const LeafFn &gen_leaf, Address &tree_adrs);

/**
 * Verification-side root reconstruction from a leaf and its auth path.
 */
void computeRoot(uint8_t *root, const Context &ctx, const uint8_t *leaf,
                 uint32_t leaf_idx, uint32_t idx_offset,
                 const uint8_t *auth_path, unsigned height,
                 Address &tree_adrs);

/**
 * Batched root reconstruction: up to maxHashLanes independent
 * auth-path walks of one shared @p height advanced level by level in
 * hash lanes of the dispatched width. Lane l reconstructs from
 * leaf[l] / auth_path[l] with its own leaf index, index offset and
 * subtree address, so the lanes may come from different FORS trees,
 * different signatures, or both. Results are byte-identical to count
 * computeRoot calls at every width.
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
 * keypair @p leaf_idx in the subtree addressed by layer/tree.
 */
void wotsGenLeaf(uint8_t *leaf_out, const Context &ctx, uint32_t layer,
                 uint64_t tree, uint32_t leaf_idx);

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
