/**
 * @file
 * The three component kernels of HERO-Sign (paper §III): FORS_Sign,
 * TREE_Sign and WOTS+_Sign, written as phase-structured bodies for
 * the GPU simulator. They are *real* implementations: executing them
 * produces the signer's bytes (kernels_test holds each kernel to the
 * spec oracle in tests/oracle), while the executor traces their
 * shared-memory behaviour and operation counts for the timing model.
 */

#ifndef HEROSIGN_CORE_KERNELS_HH
#define HEROSIGN_CORE_KERNELS_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "gpusim/banks.hh"
#include "gpusim/exec.hh"
#include "sphincs/context.hh"

namespace herosign::core
{

/**
 * Per-message inputs and output buffers shared by the kernels.
 * Buffers are owned by the engine; the kernels write signature parts
 * into them (modelled as global-memory stores).
 */
struct MessageJob
{
    const sphincs::Context *ctx = nullptr;

    uint64_t idxTree = 0;   ///< bottom-layer subtree chain
    uint32_t idxLeaf = 0;   ///< keypair within the bottom subtree
    std::vector<uint32_t> forsIndices;  ///< k FORS leaf selections

    /// Hypertree indices per layer (derived from idxTree/idxLeaf).
    std::vector<uint64_t> layerTree;  ///< d entries
    std::vector<uint32_t> layerLeaf;  ///< d entries

    // --- FORS_Sign outputs -------------------------------------
    std::vector<uint8_t> forsSig;   ///< k * (1 + a) * n
    std::vector<uint8_t> forsPk;    ///< n

    // --- TREE_Sign outputs -------------------------------------
    std::vector<uint8_t> authPaths; ///< d * (h/d) * n
    std::vector<uint8_t> roots;     ///< d * n (subtree roots)

    // --- WOTS+_Sign outputs ------------------------------------
    /// Message per layer: [0] = FORS pk, [i] = roots[i-1].
    std::vector<uint8_t> wotsMessages; ///< d * n
    std::vector<uint8_t> wotsSigs;     ///< d * len * n

    /** Allocate all buffers for @p params. */
    void allocate(const sphincs::Params &params);
};

/** Memory-placement policy for read-only inputs (paper §III-D). */
struct MemPolicy
{
    bool constantSeeds = true;  ///< seeds/state in constant memory

    /// Charge a read of @p bytes of read-only key material.
    void
    chargeSeedRead(gpu::BlockContext &blk, unsigned tid,
                   uint64_t bytes) const
    {
        if (constantSeeds)
            blk.chargeConstant(tid, bytes);
        else
            blk.chargeGlobal(tid, bytes);
    }
};

/** Resolved FORS kernel geometry. */
struct ForsGeometry
{
    unsigned threadsPerSet = 0;  ///< active threads (T_set)
    unsigned treesPerSet = 1;    ///< Ntree
    unsigned fusedSets = 1;      ///< F
    bool relax = false;
    bool padded = true;          ///< FreeBank layout vs naive
    /// Allocated block size; threads beyond threadsPerSet idle. The
    /// TCAS baseline launches 1024-thread blocks with only one
    /// subtree's worth active (Table III: 66.67% theoretical but 17%
    /// achieved occupancy). 0 means allocate exactly threadsPerSet.
    unsigned blockThreads = 0;

    unsigned setsTotal(unsigned k) const
    {
        return (k + treesPerSet - 1) / treesPerSet;
    }
    unsigned rounds(unsigned k) const
    {
        return (setsTotal(k) + fusedSets - 1) / fusedSets;
    }
};

/**
 * FORS_Sign: k Merkle trees of height a. Phase structure per round:
 * one leaf-generation phase followed by one phase per stored level;
 * a final phase compresses the k roots into the FORS public key.
 * Supports baseline (sequential trees), MMTP, Fusion and Relax-FORS
 * through ForsGeometry.
 */
class ForsSignKernel : public gpu::KernelBody
{
  public:
    ForsSignKernel(MessageJob &job, const ForsGeometry &geo,
                   const MemPolicy &mem);

    std::string name() const override { return "FORS_Sign"; }
    unsigned numPhases(unsigned block_idx) const override;
    void run(unsigned phase, gpu::BlockContext &blk,
             unsigned tid) override;

    /** Shared memory consumed per block (tree regions + roots). */
    size_t sharedBytes() const;

    /** Block size (threads), including idle allocation. */
    unsigned
    blockThreads() const
    {
        return std::max(geo_.blockThreads, geo_.threadsPerSet);
    }

  private:
    const gpu::ReductionLayout &treeLayout() const;
    uint32_t treeRegionBase(unsigned fused_idx,
                            unsigned tree_in_set) const;
    void leafGen(gpu::BlockContext &blk, unsigned tid, unsigned round);
    void reduceLevel(gpu::BlockContext &blk, unsigned tid,
                     unsigned round, unsigned sub);
    void compressRoots(gpu::BlockContext &blk, unsigned tid);

    MessageJob &job_;
    ForsGeometry geo_;
    MemPolicy mem_;
    std::unique_ptr<gpu::ReductionLayout> layout_;
    unsigned storedLevels_;  ///< reduction phases per round
    uint32_t rootsBase_;     ///< shared offset of the roots region
};

/**
 * TREE_Sign: all d hypertree subtrees in parallel — one thread per
 * leaf runs wots_gen_leaf (the dominant cost), then per-level
 * reductions extract auth paths and roots.
 */
class TreeSignKernel : public gpu::KernelBody
{
  public:
    TreeSignKernel(MessageJob &job, bool padded, const MemPolicy &mem);

    std::string name() const override { return "TREE_Sign"; }
    unsigned numPhases(unsigned block_idx) const override;
    void run(unsigned phase, gpu::BlockContext &blk,
             unsigned tid) override;

    size_t sharedBytes() const;
    unsigned blockThreads() const;

  private:
    MessageJob &job_;
    MemPolicy mem_;
    std::unique_ptr<gpu::ReductionLayout> layout_;
};

/**
 * WOTS+_Sign: one thread per chain across all d layers. HERO-Sign
 * computes exactly b_i chain steps with shift/mask index math; the
 * baseline walks full chains and uses div/mod (paper §IV-D).
 */
class WotsSignKernel : public gpu::KernelBody
{
  public:
    WotsSignKernel(MessageJob &job, bool full_chains, bool shift_math,
                   const MemPolicy &mem);

    std::string name() const override { return "WOTS+_Sign"; }
    unsigned numPhases(unsigned) const override { return 1; }
    void run(unsigned phase, gpu::BlockContext &blk,
             unsigned tid) override;

    size_t sharedBytes() const { return 0; }
    unsigned blockThreads() const;

  private:
    MessageJob &job_;
    bool fullChains_;
    bool shiftMath_;
    MemPolicy mem_;
};

} // namespace herosign::core

#endif // HEROSIGN_CORE_KERNELS_HH
