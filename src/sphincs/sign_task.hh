/**
 * @file
 * SignTask: one in-flight SPHINCS+ signature, the group runner that
 * makes every signature, and the band runner that splits a lone one
 * across threads.
 *
 * On parameter shapes whose subtrees are narrower than the lane width
 * (the -f sets have 2^(h/d) = 8..16 WOTS leaves per layer), one
 * signature alone cannot keep the lane engine fed across a layer. A
 * SignTask therefore holds its remaining hash work as descriptors —
 * one sphincs::TreeReq per FORS tree and per hypertree layer, one
 * sphincs::WotsLeafReq per hypertree leaf — and runGroup() aggregates
 * the descriptors of one or *several* in-flight signatures into full
 * lane batches: it builds every FORS tree of the group through
 * forsTreeBatch(), then walks the d hypertree layers in lockstep, each
 * layer's leaves in one wotsLeafBatch() call and its trees in one
 * treeLevels() call.
 *
 * Two structural wins fall out of the step-wise form, for groups of
 * one as much as for larger ones:
 *  - the signing keypair's WOTS+ signature is captured from its
 *    pk-generation chain walk (sig chain values are prefixes of the
 *    full chains), so there is no separate wotsSign() walk;
 *  - node combines run level by level, lane-batched across same-shape
 *    trees (the k FORS trees, and each layer's tree across the group)
 *    instead of one at a time.
 *
 * Only a layer's WOTS+ message (the root below it) ties it to the
 * layer below: its tree does not depend on it. So a lone signature can
 * also run as contiguous bands (SignBand, planned by planBands()), each
 * on its own thread — the CPU form of HERO-Sign's cross-layer
 * parallelism, where TREE_Sign builds all d layer trees at once.
 * runBand() walks a band's layers with runGroup()'s loop, capturing
 * every WOTS+ signature but its first layer's, whose message is the
 * root of the band below; joinBands() signs those seams with wotsSign()
 * once every band has run.
 *
 * signGroup() is the group entry for plain messages; SphincsPlus::sign
 * is a signGroup() of one, and the SignService builds one task per
 * job so a member whose construction throws fails alone. The output
 * does not depend on the lane width, the group a signature rides in
 * or the bands it is cut into: every output byte is the result of the
 * same tweakable-hash calls, only pooled differently. The spec oracle
 * in tests/oracle checks that claim.
 */

#ifndef HEROSIGN_SPHINCS_SIGN_TASK_HH
#define HEROSIGN_SPHINCS_SIGN_TASK_HH

#include <span>
#include <vector>

#include "common/bytes.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

/**
 * One contiguous slice of a lone signature: FORS trees
 * [forsBegin, forsEnd) and hypertree layers [layerBegin, layerEnd).
 * A plan is a list of bands that tiles both ranges in order, band b
 * starting where band b - 1 ends; either range of a band may be empty.
 */
struct SignBand
{
    unsigned forsBegin = 0;
    unsigned forsEnd = 0;
    unsigned layerBegin = 0;
    unsigned layerEnd = 0;
};

/** One in-flight signature, signed by runGroup() or by bands. */
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
     * Move the signature out once runGroup() or joinBands() has
     * signed the task.
     * @throws std::logic_error before that
     */
    ByteVec takeSignature();

    /**
     * Run @p count tasks (1..maxHashLanes) to completion: every FORS
     * tree of the group in one forsTreeBatch() call, then layer by
     * layer in lockstep, every hash pooled across the group. All
     * tasks must share one Context object.
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

    /**
     * Cut a lone signature of shape @p p into at most @p bands bands
     * of about equal time (fewer only when there are fewer work
     * units). Costs are in layer units: a hypertree layer counts 1,
     * FORS its compressions x kForsCompressionCost (sign_task.cc) over
     * one layer's. FORS stays whole in band 0 unless it outweighs one
     * band's share; then its trees are cut in lane groups of
     * hashLaneWidth() over the leading bands. Each cut falls where
     * the running cost lands closest to the band's share.
     */
    static std::vector<SignBand> planBands(const Params &p,
                                           unsigned bands);

    /**
     * Run one band of a plan: its FORS trees (and the FORS public key
     * when the band holds all k), then its layers with runGroup()'s
     * loop, capturing each layer's WOTS+ signature except the first
     * one's when its message is not yet known (a layer above 0, or
     * layer 0 with FORS cut). The bands of one plan may run in any
     * order, on any threads and at the same time: they write disjoint
     * parts of the task.
     * @throws std::invalid_argument for a range outside the shape
     */
    void runBand(const SignBand &band);

    /**
     * Finish a task once every band of @p plan has run: compress the
     * FORS public key if FORS was cut, then WOTS+-sign each band's
     * uncaptured first layer with the root below it.
     * @throws std::invalid_argument unless @p plan tiles the FORS
     *         trees and the layers in order
     */
    void joinBands(std::span<const SignBand> plan);

  private:
    /**
     * Walk layers [begin, end) of @p count tasks in lockstep: each
     * layer's count * 2^(h/d) WOTS leaves pool into full chain
     * batches, and one treeLevels() call builds the layer's count
     * trees. Every layer's signing keypair captures its WOTS+
     * signature in passing, except layer @p begin's when
     * @p sign_first is false.
     */
    static void walkLayers(SignTask *const tasks[], unsigned count,
                           unsigned begin, unsigned end, bool sign_first);

    /**
     * Descriptor for FORS tree @p tree (0..k-1), to be built by
     * forsTreeBatch(): its auth path lands in the signature, its root
     * in the task.
     */
    TreeReq forsTreeReq(unsigned tree);

    /**
     * Compress the k roots into the FORS public key (layer-0 message)
     * once forsTreeBatch() has built every tree.
     */
    void finishFors();

    /** The n-byte message layer @p layer signs: FORS pk or root below. */
    const uint8_t *layerMsg(unsigned layer) const;

    uint8_t *forsSigBlock(unsigned tree);
    uint8_t *xmssSig(unsigned layer);

    const Context *ctx_;
    ByteVec sig_;
    ByteVec forsMsg_;
    ByteVec layerRoots_;                ///< d * n: each layer's root
    std::vector<uint64_t> layerTree_;   ///< subtree index per layer
    std::vector<uint32_t> layerLeaf_;   ///< signing keypair per layer
    uint32_t forsIndices_[64];
    uint8_t forsRoots_[64 * maxN];
    uint8_t forsPk_[maxN];              ///< layer 0's message
    Address forsBase_;                  ///< ForsTree adrs, keypair set
    bool finished_ = false;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_SIGN_TASK_HH
