/**
 * @file
 * Engine configuration: which HERO-Sign optimizations are active,
 * per-kernel register/instruction profiles, and batching plans.
 *
 * The per-kernel register counts are the Nsight-profiled values the
 * paper quotes (Table III: FORS 64, TREE 128, WOTS+ 72 for the
 * baseline; §III-C2: TREE 168 native / 95 PTX at 256f); values the
 * paper does not state are interpolated and documented here. The
 * cycles-per-hash profiles encode the paper's observation that the
 * PTX branch wins for short-input thash streams (FORS) but loses to
 * the compiler's chain-local optimization in wots_gen_leaf-heavy
 * kernels (TREE/WOTS) unless register pressure is the bottleneck.
 */

#ifndef HEROSIGN_CORE_CONFIG_HH
#define HEROSIGN_CORE_CONFIG_HH

#include <string>

#include "hash/sha256.hh"
#include "sphincs/params.hh"

namespace herosign::core
{

/** The three component kernels of the paper. */
enum class KernelKind { ForsSign, TreeSign, WotsSign };

std::string kernelName(KernelKind kind);

/** Nominal (unconstrained) registers per thread for a kernel. */
unsigned nominalRegs(KernelKind kind, const sphincs::Params &params,
                     Sha256Variant variant);

/** Per-compression cycle cost of a kernel's SHA-256 stream. */
double hashCycles(KernelKind kind, Sha256Variant variant);

/** Extra per-hash cost fraction per register spilled by launch
 *  bounds (local-memory traffic). */
constexpr double spillPenaltyPerReg = 0.0022;

/**
 * Cycles charged per WOTS chain step for index bookkeeping. The
 * baseline uses division/modulo; HERO-Sign rewrites them as shifts
 * and masks (paper §IV-D).
 */
constexpr double chainMathCyclesDivMod = 48.0;
constexpr double chainMathCyclesShift = 6.0;

/** FORS processing configuration (paper §III-B). */
struct ForsConfig
{
    unsigned treesPerSet = 1;    ///< Ntree
    unsigned fusedSets = 1;      ///< F
    unsigned threadsPerSet = 0;  ///< T_set (0 = derive from t)
    bool relax = false;          ///< Relax-FORS model (§III-B4)
    unsigned blocksPerMessage = 1; ///< MMTP splits trees over blocks
};

/** Full engine configuration. */
struct EngineConfig
{
    std::string name;

    /// Multiple-Merkle-tree parallelization for FORS (III-A): when
    /// false, one tree at a time inside a single block (TCAS).
    bool mmtp = true;
    /// FORS fusion (III-B); when false each block/round handles one
    /// Set at a time.
    bool fuse = true;
    /// Run the offline Tree Tuning search to pick the FORS config;
    /// when false, forsConfig is used as given.
    bool autoTune = true;
    /// Adaptive PTX/native branch selection (III-C); when false the
    /// native branch is always used.
    bool adaptivePtx = true;
    /// Hybrid memory placement: read-only seeds in constant memory
    /// (III-D); when false everything is read from global.
    bool hybridMem = true;
    /// Bank-conflict-free padding (III-E); when false naive layout.
    bool freeBank = true;
    /// launch_bounds register constraining (III-A), profile-driven.
    bool launchBounds = true;
    /// Task-graph batching (III-F); when false plain streams.
    bool useGraph = true;
    /// Baseline WOTS behaviour: compute full chains then select
    /// (TCAS implementation detail; HERO computes only b_i steps).
    bool wotsFullChains = false;
    /// Baseline chain math uses div/mod; HERO uses shifts.
    bool chainShiftMath = true;

    ForsConfig forsConfig;

    /// Batch execution plan. The paper (§IV-E1) recommends batch
    /// chunks >= 512 on the RTX 4090 to maximize throughput.
    unsigned streams = 4;
    unsigned chunkMessages = 512; ///< messages per kernel launch chunk

    /** The TCAS-SPHINCSp-like baseline (Kim et al.). */
    static EngineConfig baseline();

    /** Fully optimized HERO-Sign. */
    static EngineConfig hero();

    /** Fig. 11 ablation steps, cumulative. */
    static EngineConfig stepMmtp();       // Baseline + MMTP
    static EngineConfig stepFuse();       // + FS (tree fusion / relax)
    static EngineConfig stepPtx();        // + PTX
    static EngineConfig stepHybridMem();  // + HybridME
    static EngineConfig stepFreeBank();   // + FreeBank (== hero sans graph)
};

} // namespace herosign::core

#endif // HEROSIGN_CORE_CONFIG_HH
