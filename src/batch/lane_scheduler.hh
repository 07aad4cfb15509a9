/**
 * @file
 * LaneScheduler: cross-signature sign-side lane batching.
 *
 * Verification fills SIMD lanes across signatures; a signature's
 * own hypertree layers are too narrow to (one layer's ragged WOTS
 * chains, 8..16 WOTS leaves per subtree on the -f sets). A group of
 * in-flight signatures under one key signs together through
 * sphincs::SignTask::runGroup(): all group * k FORS trees are
 * independent, so one forsTreeBatch() call builds them in full lane
 * groups, and the d hypertree layers then advance in lockstep, with
 * every WOTS leaf descriptor and every same-shape tree combine pooled
 * across the group.
 *
 * Group members must share one warm Context (same key, same
 * parameter set) — mixed-parameter-set groups are rejected with
 * std::invalid_argument. Output signatures do not depend on the lane
 * width or the group size.
 */

#ifndef HEROSIGN_BATCH_LANE_SCHEDULER_HH
#define HEROSIGN_BATCH_LANE_SCHEDULER_HH

#include "common/bytes.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thashx.hh"

namespace herosign::batch
{

/** Group sizing and the convenience entry for lane groups. */
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
     * Sign @p count messages (1..maxGroup) under one key as one
     * pooled group. opt_rands[i] may be empty (deterministic
     * signing); @p opt_rands itself may be nullptr for all-
     * deterministic. sigs[i] receives the signature for msgs[i].
     * @throws std::invalid_argument on an oversized group
     */
    static void signGroup(const sphincs::Context &ctx,
                          const sphincs::SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count);
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_LANE_SCHEDULER_HH
