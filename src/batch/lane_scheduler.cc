#include "batch/lane_scheduler.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace herosign::batch
{

using sphincs::Context;
using sphincs::ForsTreeReq;
using sphincs::maxHashLanes;
using sphincs::SecretKey;
using sphincs::SignTask;
using sphincs::TreehashStream;
using sphincs::WotsLeafReq;

namespace
{

/** WOTS leaf positions generated per pooled wave. */
constexpr uint32_t posChunk = maxHashLanes;

} // namespace

void
LaneScheduler::run(SignTask *const tasks[], unsigned count)
{
    if (count == 0)
        return;
    if (count > maxGroup)
        throw std::invalid_argument(
            "LaneScheduler: group exceeds maxGroup");
    const Context &ctx = tasks[0]->context();
    for (unsigned g = 1; g < count; ++g) {
        // One warm context per group is the invariant everything
        // else rests on: same key, same parameter set, same seeded
        // hash mid-state. Tasks built from a different Context —
        // even one with equal seeds — are rejected rather than
        // silently mixed.
        if (&tasks[g]->context() != &ctx)
            throw std::invalid_argument(
                "LaneScheduler: group must share one context "
                "(one key and parameter set)");
    }
    const sphincs::Params &p = ctx.params();

    // --- FORS: all count * k trees are independent, so they build
    // together in full lane groups.
    const unsigned k = p.forsTrees;
    std::vector<ForsTreeReq> trees(static_cast<size_t>(count) * k);
    for (unsigned g = 0; g < count; ++g)
        for (unsigned i = 0; i < k; ++i)
            trees[static_cast<size_t>(g) * k + i] =
                tasks[g]->forsTreeReq(i);
    forsTreeBatch(ctx, trees.data(), trees.size());
    for (unsigned g = 0; g < count; ++g)
        tasks[g]->finishFors();

    // --- Hypertree: the d layers are the serial spine; within one
    // layer the group's count * 2^(h/d) WOTS leaves pool into full
    // chain batches, with the signing leaves' signatures captured in
    // passing.
    TreehashStream *streams[maxHashLanes];
    const uint8_t *leaf_ptrs[maxHashLanes];
    const uint32_t leaves = p.treeLeaves();
    std::vector<WotsLeafReq> wreqs(
        static_cast<size_t>(std::min<uint32_t>(posChunk, leaves)) *
        count);
    for (unsigned l = 0; l < p.layers; ++l) {
        for (unsigned g = 0; g < count; ++g) {
            tasks[g]->beginLayer(l);
            streams[g] = &tasks[g]->treeStream();
        }
        for (uint32_t j0 = 0; j0 < leaves; j0 += posChunk) {
            const uint32_t jc = std::min<uint32_t>(posChunk, leaves - j0);
            unsigned nr = 0;
            for (uint32_t q = 0; q < jc; ++q)
                for (unsigned g = 0; g < count; ++g)
                    wreqs[nr++] = tasks[g]->wotsLeafReq(j0 + q);
            wotsLeafBatch(ctx, wreqs.data(), nr);
            for (uint32_t q = 0; q < jc; ++q) {
                for (unsigned g = 0; g < count; ++g)
                    leaf_ptrs[g] = tasks[g]->layerLeaf(j0 + q);
                TreehashStream::absorbLockstep(streams, leaf_ptrs,
                                               count);
            }
        }
        for (unsigned g = 0; g < count; ++g)
            tasks[g]->endLayer();
    }
}

void
LaneScheduler::signGroup(const Context &ctx, const SecretKey &sk,
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
    run(ptrs, count);
    for (unsigned i = 0; i < count; ++i)
        sigs[i] = tasks[i]->takeSignature();
}

} // namespace herosign::batch
