/**
 * @file
 * The tunable configuration space of the CPU serving stack.
 *
 * HERO-Sign's Algorithm 1 searches (T_set, F) under GPU shared-memory
 * and thread constraints; the CPU analogue is the knob set that
 * actually carries production traffic: worker/shard counts on both
 * serving planes, the cross-signature coalescing windows and the
 * warm-context cache capacity. A KnobSpace enumerates discrete
 * per-knob candidate values derived from the hardware
 * (hw_concurrency bounds the worker axes, the dispatched
 * hashLaneWidth() anchors the coalescing axes), and a KnobConfig is
 * one point of the space, mappable onto ServiceConfig.
 */

#ifndef HEROSIGN_TUNE_KNOB_SPACE_HH
#define HEROSIGN_TUNE_KNOB_SPACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/random.hh"
#include "service/admission.hh"

namespace herosign::tune
{

/**
 * One candidate configuration of the serving stack. Defaults equal
 * the hand-set ServiceConfig defaults, so a default-constructed
 * KnobConfig IS the untuned baseline.
 */
struct KnobConfig
{
    unsigned signWorkers = 4;   ///< SignService workers
    unsigned signShards = 4;    ///< sign queue shards
    unsigned signCoalesce = 0;  ///< lane group; 0 = auto (lane width)
    unsigned verifyWorkers = 2; ///< VerifyService workers
    unsigned verifyShards = 2;  ///< verify queue shards
    unsigned verifyCoalesce = 0; ///< verify window; 0 = auto (4x width)
    unsigned cacheCapacity = 64; ///< warm-context cache entries

    bool operator==(const KnobConfig &) const = default;

    /** Compact one-line label, e.g. "w1/s1/c16 vw1/vs1/vc64 cap64". */
    std::string label() const;

    /** Map onto the serving-layer construction knobs. */
    service::ServiceConfig toServiceConfig() const;
};

/** One tunable axis: a name and its ordered candidate values. */
struct Knob
{
    std::string name;
    std::vector<unsigned> values;
};

/**
 * The discrete configuration space. A Point holds one value index
 * per knob; neighbor() implements the annealing move (step one knob
 * one slot, occasionally jump one knob anywhere), with all
 * randomness drawn from the caller's seeded Rng so walks replay
 * exactly.
 */
class KnobSpace
{
  public:
    using Point = std::vector<size_t>;

    /**
     * The standard serving-stack space with hardware-derived bounds.
     * @param hw_threads worker-axis bound; 0 = hardware_concurrency()
     * @param lane_width coalescing-axis anchor; 0 = hashLaneWidth()
     */
    static KnobSpace standard(unsigned hw_threads = 0,
                              unsigned lane_width = 0);

    const std::vector<Knob> &knobs() const { return knobs_; }
    size_t dims() const { return knobs_.size(); }

    /** Number of distinct configurations (product of axis sizes). */
    size_t size() const;

    /** The KnobConfig a point denotes. */
    KnobConfig configAt(const Point &pt) const;

    /**
     * The point denoting the hand-set defaults. 0 = auto is not an
     * axis value, so the auto coalescing windows are resolved to
     * their effective widths (sign: the lane width; verify: 4x) —
     * the configuration this point denotes behaves identically to
     * ServiceConfig{}.
     */
    Point defaultPoint() const;

    /** The point whose config is nearest @p cfg (per-knob nearest). */
    Point nearestPoint(const KnobConfig &cfg) const;

    /** Uniformly random point (all randomness from @p rng). */
    Point randomPoint(Rng &rng) const;

    /**
     * One annealing move from @p pt: pick a knob with more than one
     * value and either step its index by +-1 (reflecting at the
     * ends) or, with small probability, jump it to a uniformly
     * random slot — the escape hatch out of local optima.
     */
    Point neighbor(const Point &pt, Rng &rng) const;

    /**
     * Clamp a config exactly the way the consuming constructors do,
     * so values loaded from a profile and values set directly are
     * indistinguishable after construction: worker/shard counts and
     * the cache capacity floor at 1; the sign-side coalescing group
     * caps at the LaneScheduler bound (0 stays 0 = auto).
     */
    static KnobConfig clamp(KnobConfig cfg);

  private:
    explicit KnobSpace(std::vector<Knob> knobs);

    std::vector<Knob> knobs_;
    Point defaultPt_;
};

} // namespace herosign::tune

#endif // HEROSIGN_TUNE_KNOB_SPACE_HH
