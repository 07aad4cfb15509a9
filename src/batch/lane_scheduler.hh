/**
 * @file
 * LaneScheduler: the two group-signing names the serving benchmark
 * (perfbench/src/layers.cc) still calls. Group signing lives in
 * sphincs::SignTask; signGroup() forwards to SignTask::signGroup() and
 * preferredGroup() is sphincs::hashLaneWidth(). Both go, with this
 * header, once perfbench's per-layer rows call SignTask::signGroup()
 * and hashLaneWidth() directly. Nothing under src/ may use them (the
 * real_path_boundary CTest entry enforces that).
 */

#ifndef HEROSIGN_BATCH_LANE_SCHEDULER_HH
#define HEROSIGN_BATCH_LANE_SCHEDULER_HH

#include "common/bytes.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thashx.hh"

namespace herosign::batch
{

struct LaneScheduler
{
    /** sphincs::hashLaneWidth(). */
    static unsigned preferredGroup() { return sphincs::hashLaneWidth(); }

    /** sphincs::SignTask::signGroup(). */
    static void signGroup(const sphincs::Context &ctx,
                          const sphincs::SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count)
    {
        sphincs::SignTask::signGroup(ctx, sk, msgs, opt_rands, sigs,
                                     count);
    }
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_LANE_SCHEDULER_HH
