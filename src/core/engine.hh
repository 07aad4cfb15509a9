/**
 * @file
 * The HERO-Sign engine: resolves an EngineConfig against a parameter
 * set and a simulated device (running the Tree Tuning search and the
 * profiling-driven PTX / launch-bounds selection), signs messages
 * functionally through the three simulated kernels, and produces
 * batch timelines through the stream / task-graph scheduler.
 *
 * The same class implements the TCAS-SPHINCSp baseline and every
 * Fig. 11 ablation step — they are just EngineConfig presets.
 */

#ifndef HEROSIGN_CORE_ENGINE_HH
#define HEROSIGN_CORE_ENGINE_HH

#include <array>
#include <map>
#include <memory>
#include <string>

#include "core/config.hh"
#include "core/kernels.hh"
#include "core/tuning.hh"
#include "gpusim/cost_model.hh"
#include "gpusim/scheduler.hh"
#include "sphincs/sphincs.hh"

namespace herosign::core
{

/** Resolved per-kernel execution choice. */
struct KernelChoice
{
    KernelKind kind;
    Sha256Variant variant = Sha256Variant::Native;
    unsigned nominalRegs = 0;
    unsigned clampedRegs = 0;   ///< after __launch_bounds__
    unsigned spilledRegs = 0;
    unsigned threads = 0;
    size_t smemBytes = 0;
    double cyclesPerHash = 0;   ///< incl. spill penalty

    gpu::BlockProfile profile;  ///< representative block
    gpu::KernelTiming timing;   ///< at the reference batch size

    /** Effective resources for the occupancy calculator. */
    gpu::KernelResources
    resources() const
    {
        return gpu::KernelResources{clampedRegs, threads, smemBytes};
    }
};

/** Result of signing one message. */
struct SignOutcome
{
    ByteVec signature;
    std::array<KernelChoice, 3> kernels; ///< FORS, TREE, WOTS order
};

/** Result of a batch timing simulation. */
struct BatchOutcome
{
    unsigned messages = 0;
    double makespanUs = 0;
    double idleUs = 0;
    double launchLatencyUs = 0;
    double kops = 0;
    std::map<std::string, double> perKernelBusyUs;
    gpu::ScheduleResult schedule;
};

/** A configured signing engine bound to (params, device, config). */
class SignEngine
{
  public:
    /**
     * Resolve the configuration: run the Tree Tuning search (when
     * enabled), profile both SHA-256 branches per kernel, and pick
     * variant + launch bounds per the paper's profiling-driven flow.
     */
    SignEngine(const sphincs::Params &params,
               const gpu::DeviceProps &dev, const EngineConfig &config);

    const sphincs::Params &params() const { return params_; }
    const gpu::DeviceProps &device() const { return dev_; }
    const EngineConfig &config() const { return config_; }
    const gpu::CostParams &costParams() const { return cp_; }

    /** The FORS geometry in use (from the tuner or the config). */
    const ForsGeometry &forsGeometry() const { return forsGeo_; }

    /** The tuning candidate chosen (valid when autoTune was on). */
    const TuningCandidate &tuning() const { return tuning_; }

    /** Resolved choices, in FORS / TREE / WOTS order. */
    const std::array<KernelChoice, 3> &kernels() const
    {
        return kernels_;
    }

    /**
     * Sign @p msg with @p sk, executing the three kernels
     * functionally. The signature is byte-identical to
     * sphincs::SphincsPlus::sign.
     */
    SignOutcome sign(ByteSpan msg, const sphincs::SecretKey &sk,
                     ByteSpan opt_rand = {}) const;

    /**
     * Simulate a batch of @p messages through the configured
     * stream / graph plan and return the timeline metrics.
     * @param chunk_override messages per launch chunk (0 = config)
     */
    BatchOutcome signBatchTiming(unsigned messages,
                                 unsigned chunk_override = 0) const;

    /** Per-kernel timing at an arbitrary batch size. */
    gpu::KernelTiming kernelTimingAt(KernelKind kind,
                                     unsigned messages) const;

  private:
    void resolveFors();
    void resolveKernels();
    KernelChoice profileKernel(KernelKind kind, Sha256Variant variant,
                               MessageJob &job) const;
    std::unique_ptr<gpu::KernelBody> makeKernel(KernelKind kind,
                                                MessageJob &job) const;
    MessageJob makeProfilingJob() const;
    void prepareJob(MessageJob &job, const sphincs::Context &ctx,
                    ByteSpan msg, const sphincs::SecretKey &sk,
                    ByteSpan opt_rand, uint8_t *r_out) const;

    sphincs::Params params_;
    gpu::DeviceProps dev_;   // by value: engines outlive their inputs
    EngineConfig config_;
    gpu::CostParams cp_;
    ForsGeometry forsGeo_;
    TuningCandidate tuning_;
    std::array<KernelChoice, 3> kernels_;
    // Profiling context/key (deterministic; used only for timing).
    std::unique_ptr<sphincs::SecretKey> profKey_;
    std::unique_ptr<sphincs::Context> profCtx_;

    static constexpr unsigned referenceBatch = 1024;
};

} // namespace herosign::core

#endif // HEROSIGN_CORE_ENGINE_HH
