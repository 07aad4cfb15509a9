/**
 * @file
 * The kernel timing model.
 *
 * Calibration contract: the constants below are calibrated once
 * against the paper's RTX 4090 baseline measurements and then held
 * fixed for every experiment and architecture; all relative effects
 * (fusion, PTX selection, padding, graphs, other GPUs) are emergent.
 *
 * Timing of one block = sum over barrier-delimited phases of the
 * slowest thread's cycles in that phase (critical path), plus
 * bank-conflict serialization of the worst warp. A kernel's duration
 * on the device divides its blocks into resident waves (occupancy
 * calculator) and applies an issue-efficiency factor that models how
 * well the resident warps hide ALU latency — the mechanism by which
 * occupancy gains from PTX register savings translate into speedups.
 */

#ifndef HEROSIGN_GPUSIM_COST_MODEL_HH
#define HEROSIGN_GPUSIM_COST_MODEL_HH

#include <cstdint>
#include <vector>

#include "gpusim/device_props.hh"
#include "gpusim/occupancy.hh"
#include "gpusim/perf_counters.hh"

namespace herosign::gpu
{

/** Calibrated cost constants (units: per-thread cycles). */
struct CostParams
{
    /// Serial cycles per SHA-256 compression, plain-C build.
    double cyclesPerHashNative = 2400;
    /// PTX branch: prmt replaces shift chains, mad keeps IADD3 out.
    double cyclesPerHashPtx = 2250;
    /// Per 4-byte shared-memory word moved by a thread.
    double cyclesPerSharedWord = 2.0;
    /// Extra cycles per serialized conflict wavefront.
    double cyclesPerConflict = 30.0;
    /// Issue lanes wasted per conflict wavefront replay.
    double conflictIssueLanes = 8.0;
    /// Per-byte global memory cost (short, poorly-coalesced reads of
    /// key material dominate the paper's HybridME discussion).
    double cyclesPerGlobalByte = 4.0;
    /// Constant memory broadcast: near-SRAM latency.
    double cyclesPerConstantByte = 0.25;
    /// Block-wide barrier cost.
    double cyclesPerBarrier = 40.0;
    /// Occupancy at which the SM's integer pipes saturate; below it,
    /// issue efficiency degrades linearly (latency not hidden).
    double saturationOccupancy = 0.40;
    /// Issue efficiency floor at occupancy -> 0.
    double minIssueEfficiency = 0.10;
};

/** Per-phase execution statistics of one block. */
struct PhaseStats
{
    uint32_t activeLanes = 0;      ///< threads that did work
    double maxThreadCycles = 0;    ///< critical path of the phase
    double sumThreadCycles = 0;    ///< total work in the phase
    uint64_t bankConflicts = 0;    ///< all warps
    double worstWarpConflictCycles = 0; ///< serialization added
};

/** Execution profile of one (representative) block. */
struct BlockProfile
{
    std::vector<PhaseStats> phases;
    PerfCounters counters;

    /** Critical-path cycles: barrier-to-barrier maxima summed. */
    double criticalPathCycles(const CostParams &cp) const;

    /** Total lane-cycles of useful work. */
    double totalLaneCycles() const;
};

/** Timing + throughput result for one kernel launch. */
struct KernelTiming
{
    double durationUs = 0;
    double occupancy = 0;          ///< achieved warp occupancy
    double theoreticalOccupancy = 0;
    double computeThroughputPct = 0;
    double memoryThroughputPct = 0;
    unsigned blocksPerSm = 0;
    unsigned waves = 0;
};

/**
 * Compute the duration of a kernel launch of @p grid_blocks blocks,
 * each behaving like @p profile, with resources @p res, on @p dev.
 */
KernelTiming kernelTiming(const DeviceProps &dev, const CostParams &cp,
                          const KernelResources &res,
                          const BlockProfile &profile,
                          unsigned grid_blocks);

/**
 * Issue efficiency at a given occupancy: how much of the peak integer
 * throughput resident warps can sustain.
 */
double issueEfficiency(const CostParams &cp, double occupancy);

} // namespace herosign::gpu

#endif // HEROSIGN_GPUSIM_COST_MODEL_HH
