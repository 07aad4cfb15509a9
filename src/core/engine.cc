#include "core/engine.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "sphincs/fors.hh"
#include "sphincs/thash.hh"

namespace herosign::core
{

using sphincs::Context;
using sphincs::DigestSplit;
using sphincs::Params;
using sphincs::SecretKey;

namespace
{

/** Highest register count that still fits one block on the SM. */
unsigned
maxFeasibleRegs(const gpu::DeviceProps &dev, unsigned threads)
{
    const unsigned warps = (threads + dev.warpSize - 1) / dev.warpSize;
    // Per-warp allocation granularity of 256 registers.
    const uint32_t per_warp_budget = dev.registersPerSm / warps;
    const uint32_t granular = per_warp_budget / 256 * 256;
    return std::min<uint32_t>(dev.maxRegsPerThread,
                              granular / dev.warpSize);
}

uint64_t
maskBits(unsigned bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

} // namespace

SignEngine::SignEngine(const Params &params, const gpu::DeviceProps &dev,
                       const EngineConfig &config)
    : params_(params), dev_(dev), config_(config)
{
    params_.validate();

    // Deterministic profiling key; timing is key-independent.
    ByteVec seed(3 * static_cast<size_t>(params_.n), 0x5c);
    sphincs::SphincsPlus scheme(params_);
    auto kp = scheme.keygenFromSeed(seed);
    profKey_ = std::make_unique<SecretKey>(kp.sk);
    profCtx_ = std::make_unique<Context>(params_, profKey_->pkSeed,
                                         profKey_->skSeed);

    resolveFors();
    resolveKernels();
}

void
SignEngine::resolveFors()
{
    const uint32_t t = params_.forsLeaves();
    forsGeo_.padded = config_.freeBank;
    if (config_.autoTune && config_.fuse) {
        tuning_ = autoTreeTuning(params_, dev_);
        forsGeo_.treesPerSet = tuning_.treesPerSet;
        forsGeo_.fusedSets = tuning_.fusedSets;
        forsGeo_.threadsPerSet = tuning_.threadsPerSet;
        forsGeo_.relax = tuning_.relax;
    } else if (config_.mmtp) {
        // MMTP without fusion: as many whole trees per block as the
        // thread limit allows, one Set at a time.
        const unsigned per_block =
            std::max(1u, dev_.maxThreadsPerBlock / t);
        forsGeo_.treesPerSet =
            std::min<unsigned>(params_.forsTrees, per_block);
        forsGeo_.fusedSets = 1;
        forsGeo_.threadsPerSet = forsGeo_.treesPerSet * t;
        forsGeo_.relax = false;
    } else {
        // TCAS baseline: one tree at a time, but launched as a full
        // 1024-thread block (Table III: theoretical occupancy 66.67%
        // with only 17% achieved).
        forsGeo_.treesPerSet = 1;
        forsGeo_.fusedSets = 1;
        forsGeo_.threadsPerSet = t;
        forsGeo_.relax = false;
        forsGeo_.blockThreads =
            std::max(t, std::min(512u, dev_.maxThreadsPerBlock));
    }
    forsGeo_.threadsPerSet =
        std::min(forsGeo_.threadsPerSet, dev_.maxThreadsPerBlock);
    if (config_.forsConfig.threadsPerSet != 0) {
        // Explicit override (tests / ablations).
        forsGeo_.treesPerSet = config_.forsConfig.treesPerSet;
        forsGeo_.fusedSets = config_.forsConfig.fusedSets;
        forsGeo_.threadsPerSet = config_.forsConfig.threadsPerSet;
        forsGeo_.relax = config_.forsConfig.relax;
    }
}

MessageJob
SignEngine::makeProfilingJob() const
{
    MessageJob job;
    job.ctx = profCtx_.get();
    job.allocate(params_);
    job.idxTree = 0x0123456789abcdefULL & maskBits(params_.treeBits());
    job.idxLeaf = 3 % params_.treeLeaves();
    job.forsIndices.resize(params_.forsTrees);
    for (unsigned i = 0; i < params_.forsTrees; ++i)
        job.forsIndices[i] = (i * 37 + 11) % params_.forsLeaves();

    uint64_t tree = job.idxTree;
    uint32_t leaf = job.idxLeaf;
    for (unsigned layer = 0; layer < params_.layers; ++layer) {
        job.layerTree[layer] = tree;
        job.layerLeaf[layer] = leaf;
        leaf = static_cast<uint32_t>(tree &
                                     maskBits(params_.treeHeight()));
        tree >>= params_.treeHeight();
    }
    // Plausible WOTS messages for profiling.
    for (auto &b : job.wotsMessages)
        b = 0xa5;
    return job;
}

std::unique_ptr<gpu::KernelBody>
SignEngine::makeKernel(KernelKind kind, MessageJob &job) const
{
    MemPolicy mem{config_.hybridMem};
    switch (kind) {
      case KernelKind::ForsSign:
        return std::make_unique<ForsSignKernel>(job, forsGeo_, mem);
      case KernelKind::TreeSign:
        return std::make_unique<TreeSignKernel>(job, config_.freeBank,
                                                mem);
      case KernelKind::WotsSign:
        return std::make_unique<WotsSignKernel>(
            job, config_.wotsFullChains, config_.chainShiftMath, mem);
    }
    throw std::logic_error("makeKernel: bad kind");
}

KernelChoice
SignEngine::profileKernel(KernelKind kind, Sha256Variant variant,
                          MessageJob &job) const
{
    KernelChoice choice;
    choice.kind = kind;
    choice.variant = variant;
    choice.nominalRegs = nominalRegs(kind, params_, variant);

    auto body = makeKernel(kind, job);
    gpu::LaunchSpec spec;
    spec.blockDim = [&] {
        switch (kind) {
          case KernelKind::ForsSign:
            return static_cast<ForsSignKernel *>(body.get())
                ->blockThreads();
          case KernelKind::TreeSign:
            return static_cast<TreeSignKernel *>(body.get())
                ->blockThreads();
          case KernelKind::WotsSign:
            return static_cast<WotsSignKernel *>(body.get())
                ->blockThreads();
        }
        return 1u;
    }();
    spec.sharedBytes = [&] {
        switch (kind) {
          case KernelKind::ForsSign:
            return static_cast<ForsSignKernel *>(body.get())
                ->sharedBytes();
          case KernelKind::TreeSign:
            return static_cast<TreeSignKernel *>(body.get())
                ->sharedBytes();
          default:
            return size_t{0};
        }
    }();
    spec.gridDim = 1;
    spec.cyclesPerHash = hashCycles(kind, variant);
    choice.threads = spec.blockDim;
    choice.smemBytes = spec.sharedBytes;
    choice.cyclesPerHash = spec.cyclesPerHash;

    spec.body = std::shared_ptr<gpu::KernelBody>(std::move(body));
    auto result = gpu::executeLaunch(dev_, cp_, spec);
    choice.profile = result.profile;

    // Launch-bounds resolution: the kernel must fit at least one
    // block; beyond that, profiling decides whether trading spills
    // for occupancy pays off (paper §III-A / §III-C2).
    const unsigned feasible = maxFeasibleRegs(dev_, choice.threads);
    std::vector<unsigned> clamp_cands{
        std::min(choice.nominalRegs, feasible)};
    if (config_.launchBounds) {
        // Moderate clamps only: deeper clamps spill so much local
        // state that profiling never selects them on real parts.
        for (unsigned c : {102u, 96u}) {
            if (c < std::min(choice.nominalRegs, feasible))
                clamp_cands.push_back(c);
        }
    }

    double best = 0;
    for (unsigned clamp : clamp_cands) {
        const unsigned spilled = choice.nominalRegs > clamp
                                     ? choice.nominalRegs - clamp
                                     : 0;
        gpu::KernelResources res{clamp, choice.threads,
                                 choice.smemBytes};
        auto timing = gpu::kernelTiming(dev_, cp_, res, choice.profile,
                                        referenceBatch);
        timing.durationUs *= 1.0 + spillPenaltyPerReg * spilled;
        if (best == 0 || timing.durationUs < best) {
            best = timing.durationUs;
            choice.clampedRegs = clamp;
            choice.spilledRegs = spilled;
            choice.timing = timing;
        }
    }
    choice.cyclesPerHash *=
        1.0 + spillPenaltyPerReg * choice.spilledRegs;
    return choice;
}

void
SignEngine::resolveKernels()
{
    MessageJob job = makeProfilingJob();
    const std::array<KernelKind, 3> kinds = {
        KernelKind::ForsSign, KernelKind::TreeSign,
        KernelKind::WotsSign};

    for (size_t i = 0; i < kinds.size(); ++i) {
        KernelChoice native =
            profileKernel(kinds[i], Sha256Variant::Native, job);
        if (config_.adaptivePtx) {
            KernelChoice ptx =
                profileKernel(kinds[i], Sha256Variant::Ptx, job);
            kernels_[i] = ptx.timing.durationUs <
                                  native.timing.durationUs
                              ? ptx
                              : native;
        } else {
            kernels_[i] = native;
        }
    }
}

void
SignEngine::prepareJob(MessageJob &job, const Context &ctx, ByteSpan msg,
                       const SecretKey &sk, ByteSpan opt_rand,
                       uint8_t *r_out) const
{
    job.ctx = &ctx;
    job.allocate(params_);

    ByteSpan rand = opt_rand.empty() ? ByteSpan(sk.pkSeed) : opt_rand;
    if (rand.size() != params_.n)
        throw std::invalid_argument("sign: opt_rand must be n bytes");
    sphincs::prfMsg(r_out, ctx, sk.skPrf, rand, msg);

    ByteVec digest(params_.msgDigestBytes());
    sphincs::hashMessage(digest, ctx, ByteSpan(r_out, params_.n),
                         sk.pkRoot, msg);
    DigestSplit split = sphincs::splitDigest(params_, digest);

    job.idxTree = split.idxTree;
    job.idxLeaf = split.idxLeaf;
    job.forsIndices.resize(params_.forsTrees);
    sphincs::messageToIndices(job.forsIndices.data(), params_,
                              split.forsMsg.data());

    uint64_t tree = split.idxTree;
    uint32_t leaf = split.idxLeaf;
    for (unsigned layer = 0; layer < params_.layers; ++layer) {
        job.layerTree[layer] = tree;
        job.layerLeaf[layer] = leaf;
        leaf = static_cast<uint32_t>(
            tree & maskBits(params_.treeHeight()));
        tree >>= params_.treeHeight();
    }
}

SignOutcome
SignEngine::sign(ByteSpan msg, const SecretKey &sk,
                 ByteSpan opt_rand) const
{
    Context ctx(params_, sk.pkSeed, sk.skSeed);
    MessageJob job;
    uint8_t r[sphincs::maxN];
    prepareJob(job, ctx, msg, sk, opt_rand, r);

    SignOutcome out;
    out.kernels = kernels_;

    // FORS_Sign.
    {
        auto body = makeKernel(KernelKind::ForsSign, job);
        gpu::LaunchSpec spec;
        spec.blockDim = kernels_[0].threads;
        spec.sharedBytes = kernels_[0].smemBytes;
        spec.gridDim = 1;
        spec.cyclesPerHash = kernels_[0].cyclesPerHash;
        spec.regsPerThread = kernels_[0].clampedRegs;
        spec.body = std::shared_ptr<gpu::KernelBody>(std::move(body));
        auto res = gpu::executeLaunch(dev_, cp_, spec);
        out.kernels[0].profile = res.profile;
    }

    // TREE_Sign (independent of FORS).
    {
        auto body = makeKernel(KernelKind::TreeSign, job);
        gpu::LaunchSpec spec;
        spec.blockDim = kernels_[1].threads;
        spec.sharedBytes = kernels_[1].smemBytes;
        spec.gridDim = 1;
        spec.cyclesPerHash = kernels_[1].cyclesPerHash;
        spec.regsPerThread = kernels_[1].clampedRegs;
        spec.body = std::shared_ptr<gpu::KernelBody>(std::move(body));
        auto res = gpu::executeLaunch(dev_, cp_, spec);
        out.kernels[1].profile = res.profile;
    }

    // WOTS+_Sign: needs the FORS pk and the subtree roots.
    std::memcpy(job.wotsMessages.data(), job.forsPk.data(), params_.n);
    for (unsigned layer = 1; layer < params_.layers; ++layer) {
        std::memcpy(job.wotsMessages.data() +
                        static_cast<size_t>(layer) * params_.n,
                    job.roots.data() +
                        static_cast<size_t>(layer - 1) * params_.n,
                    params_.n);
    }
    {
        auto body = makeKernel(KernelKind::WotsSign, job);
        gpu::LaunchSpec spec;
        spec.blockDim = kernels_[2].threads;
        spec.gridDim = 1;
        spec.cyclesPerHash = kernels_[2].cyclesPerHash;
        spec.regsPerThread = kernels_[2].clampedRegs;
        spec.body = std::shared_ptr<gpu::KernelBody>(std::move(body));
        auto res = gpu::executeLaunch(dev_, cp_, spec);
        out.kernels[2].profile = res.profile;
    }

    // Assemble R || FORS || per layer (WOTS sig || auth path).
    out.signature.reserve(params_.sigBytes());
    out.signature.insert(out.signature.end(), r, r + params_.n);
    append(out.signature, job.forsSig);
    const size_t wots_bytes = params_.wotsSigBytes();
    const size_t auth_bytes =
        static_cast<size_t>(params_.treeHeight()) * params_.n;
    for (unsigned layer = 0; layer < params_.layers; ++layer) {
        append(out.signature,
               ByteSpan(job.wotsSigs.data() + layer * wots_bytes,
                        wots_bytes));
        append(out.signature,
               ByteSpan(job.authPaths.data() + layer * auth_bytes,
                        auth_bytes));
    }
    if (out.signature.size() != params_.sigBytes())
        throw std::logic_error("sign: assembled size mismatch");
    return out;
}

gpu::KernelTiming
SignEngine::kernelTimingAt(KernelKind kind, unsigned messages) const
{
    const KernelChoice &k =
        kernels_[static_cast<size_t>(kind == KernelKind::ForsSign
                                         ? 0
                                         : kind == KernelKind::TreeSign
                                               ? 1
                                               : 2)];
    auto timing = gpu::kernelTiming(dev_, cp_, k.resources(), k.profile,
                                    messages);
    timing.durationUs *= 1.0 + spillPenaltyPerReg * k.spilledRegs;
    return timing;
}

BatchOutcome
SignEngine::signBatchTiming(unsigned messages,
                            unsigned chunk_override) const
{
    const unsigned chunk = std::max(
        1u, std::min(chunk_override ? chunk_override
                                    : config_.chunkMessages,
                     messages));
    const unsigned chunks = (messages + chunk - 1) / chunk;

    // Per-chunk kernel descriptors.
    auto desc = [&](size_t i, unsigned chunk_msgs) {
        const KernelChoice &k = kernels_[i];
        auto timing = gpu::kernelTiming(dev_, cp_, k.resources(),
                                        k.profile, chunk_msgs);
        timing.durationUs *=
            1.0 + spillPenaltyPerReg * k.spilledRegs;
        gpu::KernelExecDesc d;
        d.name = kernelName(k.kind);
        d.durationAloneUs = timing.durationUs;
        const double work =
            k.profile.totalLaneCycles() * chunk_msgs;
        d.utilization = std::min(
            1.0, work / (timing.durationUs * dev_.intLanesPerUs()));
        return d;
    };

    gpu::DeviceSim sim(dev_);
    unsigned remaining = messages;
    for (unsigned c = 0; c < chunks; ++c) {
        const unsigned m = std::min(chunk, remaining);
        remaining -= m;
        if (config_.useGraph) {
            gpu::TaskGraph g;
            int fors = g.addNode(desc(0, m));
            int tree = g.addNode(desc(1, m));
            g.addNode(desc(2, m), {fors, tree});
            sim.launchGraph(g, static_cast<int>(c % config_.streams));
        } else if (config_.name == "TCAS-SPHINCSp" ||
                   !config_.mmtp) {
            // Baseline: strictly sequential in one stream per chunk,
            // with a host synchronization + intermediate-result copy
            // between component kernels (the source of Table II's
            // roughly constant idle time).
            constexpr double host_sync_gap_us = 380.0;
            const int s = static_cast<int>(c % config_.streams);
            auto d0 = desc(0, m);
            auto d1 = desc(1, m);
            auto d2 = desc(2, m);
            d1.preGapUs = host_sync_gap_us;
            d2.preGapUs = host_sync_gap_us;
            if (c > 0)
                d0.preGapUs = host_sync_gap_us;
            sim.launch(d0, s);
            sim.launch(d1, s);
            sim.launch(d2, s);
        } else {
            // HERO without graphs: FORS/TREE on sibling streams,
            // WOTS joins them.
            const int s =
                static_cast<int>(2 * (c % config_.streams));
            int fors = sim.launch(desc(0, m), s);
            int tree = sim.launch(desc(1, m), s + 1);
            sim.launch(desc(2, m), s, {fors, tree});
        }
    }

    BatchOutcome out;
    out.messages = messages;
    out.schedule = sim.run();
    out.makespanUs = out.schedule.makespanUs;
    out.idleUs = out.schedule.idleUs;
    out.launchLatencyUs = out.schedule.launchLatencyUs;
    out.perKernelBusyUs = out.schedule.perKernelBusyUs();
    out.kops = out.makespanUs > 0
                   ? messages * 1000.0 / out.makespanUs
                   : 0;
    return out;
}

} // namespace herosign::core
