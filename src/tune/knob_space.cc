#include "tune/knob_space.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "batch/lane_scheduler.hh"
#include "sphincs/thashx.hh"

namespace herosign::tune
{

namespace
{

/** Ascending power-of-two-ish ladder 1..cap (always includes 1). */
std::vector<unsigned>
workerLadder(unsigned cap)
{
    std::vector<unsigned> v;
    for (unsigned x = 1; x <= cap; x *= 2)
        v.push_back(x);
    if (v.back() != cap)
        v.push_back(cap);
    return v;
}

size_t
nearestIndex(const std::vector<unsigned> &values, unsigned want)
{
    size_t best = 0;
    for (size_t i = 1; i < values.size(); ++i) {
        const auto d = [&](size_t j) {
            return values[j] > want ? values[j] - want
                                    : want - values[j];
        };
        if (d(i) < d(best))
            best = i;
    }
    return best;
}

} // namespace

std::string
KnobConfig::label() const
{
    std::string s;
    s.append("w").append(std::to_string(signWorkers));
    s.append("/s").append(std::to_string(signShards));
    s.append("/c").append(std::to_string(signCoalesce));
    s.append(" vw").append(std::to_string(verifyWorkers));
    s.append("/vs").append(std::to_string(verifyShards));
    s.append("/vc").append(std::to_string(verifyCoalesce));
    s.append(" cap").append(std::to_string(cacheCapacity));
    return s;
}

service::ServiceConfig
KnobConfig::toServiceConfig() const
{
    service::ServiceConfig cfg;
    cfg.workers = signWorkers;
    cfg.shards = signShards;
    cfg.signCoalesce = signCoalesce;
    cfg.verifyWorkers = verifyWorkers;
    cfg.verifyShards = verifyShards;
    cfg.verifyCoalesce = verifyCoalesce;
    cfg.contextCacheCapacity = cacheCapacity;
    return cfg;
}

KnobSpace::KnobSpace(std::vector<Knob> knobs) : knobs_(std::move(knobs))
{
}

KnobSpace
KnobSpace::standard(unsigned hw_threads, unsigned lane_width)
{
    unsigned hw = hw_threads ? hw_threads
                             : std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsigned w = lane_width ? lane_width : sphincs::hashLaneWidth();
    if (w == 0)
        w = 8;

    // Worker axes: up to 2x the hardware threads (mild
    // oversubscription can help when work stalls on futures), never
    // below the {1,2,4,8} ladder a small host still wants explored.
    const unsigned worker_cap = std::max(8u, 2 * hw);
    const auto workers = workerLadder(worker_cap);

    // Sign-side coalescing walks fractions of the lane width up to
    // the LaneScheduler group bound; the verify window additionally
    // explores multiples of the width, since mixed-tenant traffic
    // needs a deeper window to fill per-tenant lane groups.
    std::vector<unsigned> sign_co;
    for (unsigned c : {1u, w / 4, w / 2, w, 2 * w}) {
        c = std::min(std::max(c, 1u), batch::LaneScheduler::maxGroup);
        if (std::find(sign_co.begin(), sign_co.end(), c) ==
            sign_co.end())
            sign_co.push_back(c);
    }
    std::sort(sign_co.begin(), sign_co.end());
    std::vector<unsigned> verify_co;
    for (unsigned c : {w / 2, w, 2 * w, 4 * w, 8 * w}) {
        c = std::max(c, 1u);
        if (std::find(verify_co.begin(), verify_co.end(), c) ==
            verify_co.end())
            verify_co.push_back(c);
    }
    std::sort(verify_co.begin(), verify_co.end());

    std::vector<Knob> knobs;
    knobs.push_back({"sign_workers", workers});
    knobs.push_back({"sign_shards", workers});
    knobs.push_back({"sign_coalesce", sign_co});
    knobs.push_back({"verify_workers", workers});
    knobs.push_back({"verify_shards", workers});
    knobs.push_back({"verify_coalesce", verify_co});
    knobs.push_back({"cache_capacity", {1, 4, 16, 64, 256}});
    KnobSpace space(std::move(knobs));

    // The default point must denote the behavior of the hand-set
    // defaults, whose coalescing windows are 0 = auto; resolve them
    // to the effective widths the services use (sign: the lane
    // width, verify: 4x it) before snapping to the axes.
    KnobConfig def;
    def.signCoalesce = std::min(w, batch::LaneScheduler::maxGroup);
    def.verifyCoalesce = 4 * w;
    space.defaultPt_ = space.nearestPoint(def);
    return space;
}

size_t
KnobSpace::size() const
{
    size_t n = 1;
    for (const Knob &k : knobs_)
        n *= k.values.size();
    return n;
}

KnobConfig
KnobSpace::configAt(const Point &pt) const
{
    KnobConfig cfg;
    unsigned *fields[] = {&cfg.signWorkers,   &cfg.signShards,
                          &cfg.signCoalesce,  &cfg.verifyWorkers,
                          &cfg.verifyShards,  &cfg.verifyCoalesce,
                          &cfg.cacheCapacity};
    for (size_t i = 0; i < knobs_.size() && i < std::size(fields); ++i)
        *fields[i] = knobs_[i].values[pt[i]];
    return cfg;
}

KnobSpace::Point
KnobSpace::nearestPoint(const KnobConfig &cfg) const
{
    const unsigned fields[] = {cfg.signWorkers,   cfg.signShards,
                               cfg.signCoalesce,  cfg.verifyWorkers,
                               cfg.verifyShards,  cfg.verifyCoalesce,
                               cfg.cacheCapacity};
    Point pt(knobs_.size(), 0);
    for (size_t i = 0; i < knobs_.size() && i < std::size(fields); ++i)
        pt[i] = nearestIndex(knobs_[i].values, fields[i]);
    return pt;
}

KnobSpace::Point
KnobSpace::defaultPoint() const
{
    if (!defaultPt_.empty())
        return defaultPt_;
    return nearestPoint(KnobConfig{});
}

KnobSpace::Point
KnobSpace::randomPoint(Rng &rng) const
{
    Point pt(knobs_.size(), 0);
    for (size_t i = 0; i < knobs_.size(); ++i)
        pt[i] = static_cast<size_t>(
            rng.below(knobs_[i].values.size()));
    return pt;
}

KnobSpace::Point
KnobSpace::neighbor(const Point &pt, Rng &rng) const
{
    Point next = pt;
    // Pick a knob that can actually move; every standard axis has
    // >= 2 values, so this terminates immediately in practice.
    size_t dim = 0;
    do {
        dim = static_cast<size_t>(rng.below(knobs_.size()));
    } while (knobs_[dim].values.size() < 2);

    const size_t n = knobs_[dim].values.size();
    // 1-in-8 moves jump the knob anywhere (escape hatch); the rest
    // step one slot, reflecting at the ends.
    if (rng.below(8) == 0) {
        size_t j = static_cast<size_t>(rng.below(n - 1));
        next[dim] = j >= pt[dim] ? j + 1 : j; // never the same slot
    } else if (pt[dim] == 0) {
        next[dim] = 1;
    } else if (pt[dim] == n - 1) {
        next[dim] = n - 2;
    } else {
        next[dim] = rng.below(2) ? pt[dim] + 1 : pt[dim] - 1;
    }
    return next;
}

KnobConfig
KnobSpace::clamp(KnobConfig cfg)
{
    cfg.signWorkers = std::max(cfg.signWorkers, 1u);
    cfg.signShards = std::max(cfg.signShards, 1u);
    cfg.verifyWorkers = std::max(cfg.verifyWorkers, 1u);
    cfg.verifyShards = std::max(cfg.verifyShards, 1u);
    cfg.cacheCapacity = std::max(cfg.cacheCapacity, 1u);
    // 0 = auto stays; anything explicit caps at the lockstep bound,
    // the largest group the LaneScheduler signs in one pass.
    if (cfg.signCoalesce > batch::LaneScheduler::maxGroup)
        cfg.signCoalesce = batch::LaneScheduler::maxGroup;
    return cfg;
}

} // namespace herosign::tune
