/**
 * @file
 * SignTask: one in-flight SPHINCS+ signature, and the group runner
 * that makes every signature.
 *
 * On parameter shapes whose subtrees are narrower than the lane width
 * (the -f sets have 2^(h/d) = 8..16 WOTS leaves per layer), one
 * signature alone cannot keep the lane engine fed across a layer. A
 * SignTask therefore holds its remaining hash work as descriptors —
 * one sphincs::ForsTreeReq per FORS tree, one sphincs::WotsLeafReq per
 * hypertree leaf — plus a Merkle stream (sphincs::TreehashStream) per
 * layer, and runGroup() aggregates the descriptors of one or *several*
 * in-flight signatures into full lane batches: it builds every FORS
 * tree of the group through forsTreeBatch(), then walks the d
 * hypertree layers in lockstep.
 *
 * Two structural wins fall out of the step-wise form, for groups of
 * one as much as for larger ones:
 *  - the signing keypair's WOTS+ signature is captured from its
 *    pk-generation chain walk (sig chain values are prefixes of the
 *    full chains), so there is no separate wotsSign() walk;
 *  - node combines run lane-batched across same-shape trees (the k
 *    FORS trees, and each layer's tree across the group) instead of
 *    one at a time.
 *
 * signGroup() is the group entry for plain messages; SphincsPlus::sign
 * is a signGroup() of one, and the SignService builds one task per
 * job so a member whose construction throws fails alone. The output
 * does not depend on the lane width or the group a signature rides
 * in: every output byte is the result of the same tweakable-hash
 * calls, only pooled differently. The spec oracle in tests/oracle
 * checks that claim.
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

/** One in-flight signature, signed by runGroup(). */
class SignTask
{
  public:
    /**
     * Bind the task to a message: computes R, the message digest and
     * every (tree, leaf) index, derives the k FORS secret values into
     * the signature buffer. After this the remaining work is exactly
     * the leaf hashing and tree building runGroup() pools.
     * @param ctx warm context built for @p sk: same parameter shape
     *        (Params::sameShape), pk_seed and sk_seed (checked, throws
     *        std::invalid_argument on mismatch; must outlive the task)
     * @param opt_rand n bytes of signing randomness; empty selects
     *        the deterministic variant
     */
    SignTask(const Context &ctx, const SecretKey &sk, ByteSpan msg,
             ByteSpan opt_rand = {});

    SignTask(const SignTask &) = delete;
    SignTask &operator=(const SignTask &) = delete;

    /**
     * Move the signature out once runGroup() has signed the task.
     * @throws std::logic_error before that
     */
    ByteVec takeSignature();

    /**
     * Run @p count tasks (1..maxHashLanes) to completion: every FORS
     * tree of the group in full lane groups, then layer by layer in
     * lockstep, every hash pooled across the group. All tasks must
     * share one Context object.
     * @throws std::invalid_argument on a mixed or oversized group
     */
    static void runGroup(SignTask *const tasks[], unsigned count);

    /**
     * Sign @p count messages (0..maxHashLanes) under one key as one
     * pooled group; count 0 does nothing. opt_rands[i] may be empty
     * (deterministic signing); @p opt_rands itself may be nullptr for
     * all-deterministic. sigs[i] receives the signature of msgs[i].
     * @throws std::invalid_argument on an oversized group, or as the
     *         constructor does
     */
    static void signGroup(const Context &ctx, const SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count);

  private:
    /**
     * Descriptor for FORS tree @p tree (0..k-1), to be built by
     * forsTreeBatch(): its auth path lands in the signature, its root
     * in the task.
     */
    ForsTreeReq forsTreeReq(unsigned tree);

    /**
     * Compress the k roots into the FORS public key (layer-0 message)
     * once forsTreeBatch() has built every tree.
     */
    void finishFors();

    /**
     * Arm the next hypertree layer: derives the WOTS chain lengths
     * from the running root — which is why layers are the serial
     * spine the lockstep group advances along.
     */
    void beginLayer();

    /**
     * Descriptor for WOTS leaf (keypair) @p j of the current layer.
     * The leaf lands in an internal buffer (see layerLeaf()); the
     * signing keypair's request additionally carries the signature
     * capture, so runGroup() never special-cases it.
     */
    WotsLeafReq wotsLeafReq(uint32_t j);

    /** The produced leaf @p j of the current layer (after hashing). */
    const uint8_t *layerLeaf(uint32_t j) const;

    /** Collect the layer root; the last layer completes the task. */
    void endLayer();

    /** The current layer's Merkle stream, fed by absorbLockstep(). */
    TreehashStream &treeStream() { return stream_; }

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
    unsigned curLayer_ = 0;
    bool finished_ = false;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_SIGN_TASK_HH
