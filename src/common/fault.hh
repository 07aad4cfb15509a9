/**
 * @file
 * Deterministic, seeded fault injection for the signing plane.
 *
 * A FaultInjector owns a FaultPlan of named injection points wired as
 * seams into the hash lanes (sha256xN/thashx), the batch and service
 * worker loops, and the completion-callback sites. When no plan is
 * armed the seams cost one relaxed atomic load and a branch — there
 * is exactly one global armed flag, checked before anything else is
 * touched.
 *
 * Plans are deterministic counters, not coin flips: each point fires
 * on a fixed schedule over its hit sequence (`start`, then every
 * `every`-th hit, at most `max` times), so a fixed plan over a fixed
 * amount of work always injects the same number of faults — the chaos
 * suite's assertions hold run over run. The `seed` only perturbs
 * tie-break choices (which SIMD lane to corrupt), never whether a
 * fault fires.
 *
 * Plan grammar (the HEROSIGN_FAULT_PLAN environment variable, parsed
 * once at first use; tests arm programmatically via arm()):
 *
 *   plan    := clause (';' clause)*
 *   clause  := 'seed=' u64
 *            | point (':' key '=' u64)*
 *   point   := 'hash-compress'   bit-flip one lane's chaining state
 *            | 'simd-lane'       corrupt one SIMD-produced digest in a
 *                                fused one-block hash batch, or one
 *                                lane's output of a WOTS+ chain
 *                                kernel call (one hit per call, a
 *                                whole segment); never fires on the
 *                                scalar tail, so a forced-scalar path
 *                                is immune
 *            | 'worker-throw'    throw FaultInjected from a worker
 *                                loop, outside the per-job handlers
 *            | 'queue-stall'     sleep a worker before it processes a
 *                                pass (models a stalled consumer)
 *            | 'callback-throw'  throw from inside a completion
 *                                callback invocation
 *   key     := 'every'  fire on every Nth hit (default 1)
 *            | 'start'  skip the first N hits (default 0)
 *            | 'max'    stop after N fires (default unlimited)
 *            | 'ms'     stall duration, queue-stall only (default 1)
 *
 *   e.g. HEROSIGN_FAULT_PLAN='seed=7;simd-lane:every=5:max=40;
 *        worker-throw:start=10:every=97;queue-stall:every=50:ms=2'
 */

#ifndef HEROSIGN_COMMON_FAULT_HH
#define HEROSIGN_COMMON_FAULT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace herosign
{

/** Thrown by the worker-throw / callback-throw injection points. */
class FaultInjected : public std::runtime_error
{
  public:
    explicit FaultInjected(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** The named injection points (grammar names in fault.cc). */
enum class FaultPoint : unsigned {
    HashCompress,  ///< bit-flip a lane's SHA-256 chaining state
    SimdLane,      ///< corrupt one SIMD lane of a thashx one-block
                   ///< batch or chain-kernel segment
    WorkerThrow,   ///< exception escaping a worker loop
    QueueStall,    ///< stall a worker before a processing pass
    CallbackThrow, ///< exception from a completion callback
};

constexpr unsigned faultPointCount = 5;

/** Name of @p point as used in the plan grammar. */
const char *faultPointName(FaultPoint point);

/** One injection point's deterministic firing schedule. */
struct FaultRule
{
    bool active = false;
    uint64_t every = 1; ///< fire on every Nth eligible hit
    uint64_t start = 0; ///< skip the first `start` hits entirely
    uint64_t max = UINT64_MAX; ///< total fires allowed
    uint64_t ms = 1;    ///< stall duration (queue-stall only)
};

/** A parsed fault plan: a seed plus one rule per injection point. */
struct FaultPlan
{
    uint64_t seed = 1;
    FaultRule rules[faultPointCount];

    /**
     * Parse the plan grammar documented in the file header.
     * @throws std::invalid_argument on any token it does not know —
     *         a typo in a CI fault-matrix plan must fail loudly, not
     *         silently test nothing
     */
    static FaultPlan parse(const std::string &spec);

    bool anyActive() const;

    const FaultRule &rule(FaultPoint p) const
    {
        return rules[static_cast<unsigned>(p)];
    }
    FaultRule &rule(FaultPoint p)
    {
        return rules[static_cast<unsigned>(p)];
    }
};

namespace detail
{
/// The one global armed flag every seam checks first. Release-stored
/// by arm()/disarm(), acquire-loaded at the seams so a worker that
/// sees armed==true also sees the plan that was installed before it.
extern std::atomic<bool> faultArmed;
} // namespace detail

/**
 * The process-wide injector. Seams call FaultInjector::fire(point);
 * tests drive arm()/disarm() around a traffic window (never while
 * concurrent traffic is in flight — the plan itself is not meant to
 * be swapped under load). The HEROSIGN_FAULT_PLAN environment
 * variable, when set, arms the injector at the first seam hit.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** The zero-cost disabled check (one relaxed load). */
    static bool armed()
    {
        return detail::faultArmed.load(std::memory_order_acquire);
    }

    /**
     * Count a hit on @p point and report whether the armed plan says
     * it fires. Always false when disarmed, without touching any
     * counter.
     */
    static bool fire(FaultPoint point)
    {
        return armed() && instance().fireArmed(point);
    }

    /** fire() wrapper that throws FaultInjected when it fires. */
    static void throwIfFires(FaultPoint point);

    /** Install @p plan and start injecting. Resets the counters. */
    void arm(const FaultPlan &plan);

    /** Stop injecting. Counters keep their values for inspection. */
    void disarm();

    /** The armed plan (meaningful only while armed). */
    const FaultPlan &plan() const { return plan_; }

    /** Seam hits on @p point since the last arm(). */
    uint64_t hits(FaultPoint point) const;

    /** Fires on @p point since the last arm(). */
    uint64_t fired(FaultPoint point) const;

    /**
     * Deterministic lane choice for a SimdLane corruption: mixes the
     * plan seed with the firing index so repeated fires walk the
     * lanes instead of always hitting lane 0.
     * @param limit number of eligible lanes (> 0)
     */
    unsigned laneFor(uint64_t fire_index, unsigned limit) const;

    /** Stall duration of the queue-stall rule, milliseconds. */
    uint64_t stallMs() const
    {
        return plan_.rule(FaultPoint::QueueStall).ms;
    }

  private:
    FaultInjector();
    bool fireArmed(FaultPoint point);

    FaultPlan plan_;
    std::atomic<uint64_t> hits_[faultPointCount];
    std::atomic<uint64_t> fired_[faultPointCount];
};

} // namespace herosign

#endif // HEROSIGN_COMMON_FAULT_HH
