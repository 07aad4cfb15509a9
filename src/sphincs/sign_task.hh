/**
 * @file
 * SignTask: one SPHINCS+ signature as a resumable, step-wise
 * computation whose hash work is pooled externally.
 *
 * The monolithic SphincsPlus::sign() drives its own 8/16-wide loops,
 * so on parameter shapes whose subtrees are narrower than the lane
 * width (the -f sets have 2^(h/d) = 8..16 WOTS leaves per layer) the
 * lane engine starves on every layer boundary. A SignTask instead
 * exposes its remaining hash work as descriptors — one
 * sphincs::ForsTreeReq per FORS tree, one sphincs::WotsLeafReq per
 * hypertree leaf — plus a Merkle stream (sphincs::TreehashStream) per
 * layer, letting a scheduler aggregate the descriptors of one or
 * *several* in-flight signatures into full lane batches.
 * batch::LaneScheduler builds every FORS tree of its group through
 * forsTreeBatch(), then walks the d hypertree layers in lockstep.
 *
 * Two structural wins fall out of the step-wise form, for groups of
 * one as much as for larger ones:
 *  - the signing keypair's WOTS+ signature is captured from its
 *    pk-generation chain walk (sig chain values are prefixes of the
 *    full chains), so the separate wotsSign() walk disappears;
 *  - node combines run lane-batched across same-shape trees (the k
 *    FORS trees, and each layer's tree across the group) instead of
 *    one at a time.
 *
 * The produced signature is byte-identical to SphincsPlus::sign() at
 * every lane width and group size: every output byte is the result of
 * the same tweakable-hash calls, only pooled differently.
 *
 * Phase protocol (driven by the scheduler, same order as sign()):
 *   ctor                      R, digest, indices, FORS secret values
 *   forsTreeReq(i), i < k     descriptors, built by forsTreeBatch()
 *   finishFors()              T_k root compression
 *   for each layer l:         beginLayer(l) -> feed wotsLeafReq()
 *                             leaves through treeStream() ->
 *                             endLayer()
 *   takeSignature()
 */

#ifndef HEROSIGN_SPHINCS_SIGN_TASK_HH
#define HEROSIGN_SPHINCS_SIGN_TASK_HH

#include <vector>

#include "common/bytes.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

/** One in-flight signature, advanced phase by phase from outside. */
class SignTask
{
  public:
    /**
     * Bind the task to a message: computes R, the message digest and
     * every (tree, leaf) index, derives the k FORS secret values into
     * the signature buffer. After this the remaining work is exactly
     * the leaf hashing and tree building the phases expose.
     * @param ctx warm context built for @p sk (checked, throws
     *        std::invalid_argument on mismatch; must outlive the task)
     * @param opt_rand n bytes of signing randomness; empty selects
     *        the deterministic variant
     */
    SignTask(const Context &ctx, const SecretKey &sk, ByteSpan msg,
             ByteSpan opt_rand = {});

    SignTask(const SignTask &) = delete;
    SignTask &operator=(const SignTask &) = delete;

    const Context &context() const { return *ctx_; }
    const Params &params() const { return ctx_->params(); }

    // --- FORS phase: k trees of 2^a leaves each -------------------

    unsigned forsTreeCount() const { return params().forsTrees; }

    /**
     * Descriptor for FORS tree @p tree (0..k-1, any order), to be
     * built by forsTreeBatch(): its auth path lands in the signature,
     * its root in the task.
     * @throws std::logic_error out of range or after finishFors()
     */
    ForsTreeReq forsTreeReq(unsigned tree);

    /**
     * Compress the k roots into the FORS public key (layer-0 message)
     * once forsTreeBatch() has built every tree.
     * @throws std::logic_error when a tree's descriptor was never
     *         taken, or on a second call
     */
    void finishFors();

    // --- Hypertree phase: d layers of 2^(h/d) WOTS leaves ---------

    unsigned layerCount() const { return params().layers; }
    uint32_t leavesPerLayer() const { return params().treeLeaves(); }

    /**
     * Arm layer @p layer (in order, 0..d-1): derives the WOTS chain
     * lengths from the running root — which is why layers are the
     * serial spine the lockstep group advances along.
     */
    void beginLayer(unsigned layer);

    /**
     * Descriptor for WOTS leaf (keypair) @p j of the current layer.
     * The leaf lands in an internal buffer (see layerLeaf()); the
     * signing keypair's request additionally carries the signature
     * capture, so no caller ever special-cases it.
     */
    WotsLeafReq wotsLeafReq(uint32_t j);

    /** The produced leaf @p j of the current layer (after hashing). */
    const uint8_t *layerLeaf(uint32_t j) const;

    /** Collect the layer root; the last layer completes the task. */
    void endLayer();

    // --------------------------------------------------------------

    /**
     * The Merkle stream of the current layer; the scheduler feeds it
     * via absorb()/absorbLockstep().
     */
    TreehashStream &treeStream() { return stream_; }

    /** True once endLayer() ran for the last layer. */
    bool finished() const { return finished_; }

    /** Move the finished signature out; valid only when finished(). */
    ByteVec takeSignature();

  private:
    uint8_t *forsSigBlock(unsigned tree);
    uint8_t *xmssSig(unsigned layer);

    const Context *ctx_;
    ByteVec sig_;
    ByteVec forsMsg_;
    ByteVec layerLeaves_;               ///< 2^(h/d) * n leaf scratch
    std::vector<uint64_t> layerTree_;   ///< subtree index per layer
    std::vector<uint32_t> layerLeaf_;   ///< signing keypair per layer
    uint32_t forsIndices_[64];
    uint8_t forsRoots_[64 * maxN];
    uint8_t root_[maxN];                ///< running message for layers
    uint32_t lengths_[maxWotsLen];      ///< current layer chain lengths
    TreehashStream stream_;
    Address forsBase_;                  ///< ForsTree adrs, keypair set
    uint64_t forsTaken_ = 0;            ///< bit i: tree i's descriptor
    bool forsDone_ = false;
    unsigned curLayer_ = 0;
    bool finished_ = false;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_SIGN_TASK_HH
