#include "batch/lane_scheduler.hh"

#include <memory>
#include <stdexcept>
#include <vector>

namespace herosign::batch
{

using sphincs::SignTask;

void
LaneScheduler::signGroup(const sphincs::Context &ctx,
                         const sphincs::SecretKey &sk,
                         const ByteSpan msgs[], const ByteSpan opt_rands[],
                         ByteVec sigs[], unsigned count)
{
    if (count == 0)
        return;
    if (count > maxGroup)
        throw std::invalid_argument(
            "LaneScheduler: group exceeds maxGroup");
    std::vector<std::unique_ptr<SignTask>> tasks;
    tasks.reserve(count);
    SignTask *ptrs[maxGroup];
    for (unsigned i = 0; i < count; ++i) {
        tasks.push_back(std::make_unique<SignTask>(
            ctx, sk, msgs[i], opt_rands ? opt_rands[i] : ByteSpan{}));
        ptrs[i] = tasks.back().get();
    }
    SignTask::runGroup(ptrs, count);
    for (unsigned i = 0; i < count; ++i)
        sigs[i] = tasks[i]->takeSignature();
}

} // namespace herosign::batch
