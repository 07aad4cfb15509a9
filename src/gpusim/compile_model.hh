/**
 * @file
 * Analytic model of nvcc compilation cost (paper Table XI).
 *
 * Mechanism being modelled: ptxas optimization time grows with the
 * size of the code it is free to optimize. The hand-written PTX
 * branch is mostly opaque inline assembly, which *shrinks* the
 * optimization space; compile-time branch selection (constexpr-if)
 * means each kernel contains a single body, while the baseline's
 * runtime branching carries both bodies through the optimizer.
 * Template instantiation adds a small per-kernel front-end cost.
 * The paper's observation — HERO-Sign compiles 1.07x-1.28x *faster*
 * despite the extra instantiations — falls out of this accounting.
 *
 * This is an analytic model, not a measurement of a real compiler.
 */

#ifndef HEROSIGN_GPUSIM_COMPILE_MODEL_HH
#define HEROSIGN_GPUSIM_COMPILE_MODEL_HH

#include <string>
#include <vector>

namespace herosign::gpu
{

/** Compilation strategies compared in Table XI. */
enum class CompileStrategy
{
    /// Runtime branch selection: every kernel carries native + PTX
    /// bodies through optimization.
    BaselineRuntimeBranch,
    /// HERO-Sign: constexpr-if specialization, one body per kernel,
    /// plus template instantiation overhead.
    CompileTimeBranch,
};

/** Per-kernel code-size description (arbitrary "statement" units). */
struct KernelCodeSize
{
    std::string name;
    double nativeBodyUnits;  ///< optimizer-visible statements, native
    double ptxBodyUnits;     ///< mostly opaque asm: smaller space
    bool selectsPtx;         ///< which body the HERO build keeps
};

/** Tunable constants of the compile-cost model. */
struct CompileCostParams
{
    double frontEndSecondsPerUnit = 0.0015;
    /// Optimization cost per optimizer-visible statement unit.
    double optSecondsPerUnit = 0.004;
    double optSuperlinearExponent = 1.0;
    double perKernelFixedSeconds = 1.2;
    double templateInstantiationSeconds = 0.25;
    double linkFixedSeconds = 1.6;
};

/**
 * Seconds to build the three-kernel SPHINCS+ module under the given
 * strategy. @p kernels describes the per-kernel code sizes; block-size
 * variations re-instantiate launch bounds, adding front-end work.
 */
double compileSeconds(CompileStrategy strategy,
                      const std::vector<KernelCodeSize> &kernels,
                      const CompileCostParams &params = {});

/**
 * The code-size description of the three HERO-Sign kernels for a
 * given parameter set name ("SPHINCS+-128f", ...), including which
 * kernels select the PTX body (paper Table V).
 */
std::vector<KernelCodeSize> sphincsKernelSizes(const std::string &set);

} // namespace herosign::gpu

#endif // HEROSIGN_GPUSIM_COMPILE_MODEL_HH
