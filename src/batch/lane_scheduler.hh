/**
 * @file
 * LaneScheduler: cross-signature sign-side lane batching.
 *
 * Verification fills SIMD lanes across signatures; a signature's
 * own hypertree layers are too narrow to (one layer's ragged WOTS
 * chains, 8..16 WOTS leaves per subtree on the -f sets). The
 * LaneScheduler runs a group of resumable sphincs::SignTask contexts
 * to completion. All group * k FORS trees are independent, so one
 * forsTreeBatch() call builds them in full lane groups. The d
 * hypertree layers then advance in lockstep, with every WOTS leaf
 * descriptor and every same-shape tree combine pooled across the
 * group. The signing keypairs' WOTS signatures are captured from the
 * pooled pk-generation walks, so there is no separate per-layer
 * wotsSign() chain walk.
 *
 * A group of one is the signing path for a lone request: it gets the
 * fused FORS trees and the captured WOTS signatures too.
 *
 * Group members must share one warm Context (same key, same
 * parameter set) — mixed-parameter-set groups are rejected with
 * std::invalid_argument. Output signatures are byte-identical to the
 * scalar SphincsPlus::sign() path at every lane width and group size.
 */

#ifndef HEROSIGN_BATCH_LANE_SCHEDULER_HH
#define HEROSIGN_BATCH_LANE_SCHEDULER_HH

#include "common/bytes.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thashx.hh"

namespace herosign::batch
{

/** Static driver for groups of in-flight signatures. */
class LaneScheduler
{
  public:
    /** Largest lockstep group (the lane-batch hard bound). */
    static constexpr unsigned maxGroup = sphincs::maxHashLanes;

    /**
     * The group size worth coalescing toward on this host: the
     * dispatched hash-lane width (16 with AVX-512, 8 elsewhere).
     * Larger groups still help (combine pooling, tail amortization)
     * up to maxGroup but with diminishing returns.
     */
    static unsigned preferredGroup()
    {
        return sphincs::hashLaneWidth();
    }

    /**
     * Run @p count tasks (1..maxGroup) to completion: every FORS tree
     * of the group in full lane groups, then layer by layer in
     * lockstep, every hash pooled across the group. All tasks must
     * share one Context object.
     * @throws std::invalid_argument on a mixed group
     */
    static void run(sphincs::SignTask *const tasks[], unsigned count);

    /**
     * Convenience wrapper: sign @p count messages under one key as
     * one pooled group. opt_rands[i] may be empty (deterministic
     * signing); @p opt_rands itself may be nullptr for all-
     * deterministic. sigs[i] receives the signature for msgs[i].
     */
    static void signGroup(const sphincs::Context &ctx,
                          const sphincs::SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count);
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_LANE_SCHEDULER_HH
