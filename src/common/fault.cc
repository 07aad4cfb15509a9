#include "common/fault.hh"

#include <cstdlib>

namespace herosign
{

namespace detail
{
std::atomic<bool> faultArmed{false};
} // namespace detail

namespace
{

const char *const kPointNames[faultPointCount] = {
    "hash-compress", "simd-lane", "worker-throw", "queue-stall",
    "callback-throw",
};

/** splitmix64 finalizer: the deterministic seed/index mixer. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * One or more decimal digits. std::stoull alone would also take a
 * sign, and "-1" wraps to 2^64 - 1: every=-1 would never fire.
 */
uint64_t
parseU64(const std::string &clause, const std::string &text)
{
    if (!text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos) {
        try {
            return std::stoull(text);
        } catch (const std::out_of_range &) {
            // Above 2^64 - 1: bad too.
        }
    }
    throw std::invalid_argument("fault plan: bad number '" + text +
                                "' in clause '" + clause + "'");
}

} // namespace

const char *
faultPointName(FaultPoint point)
{
    return kPointNames[static_cast<unsigned>(point)];
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t end = std::min(spec.find(';', pos), spec.size());
        std::string clause = spec.substr(pos, end - pos);
        pos = end + 1;
        // Trim surrounding whitespace so multi-line env values work.
        const size_t b = clause.find_first_not_of(" \t\n");
        if (b == std::string::npos)
            continue;
        clause = clause.substr(b, clause.find_last_not_of(" \t\n") -
                                      b + 1);

        if (clause.rfind("seed=", 0) == 0) {
            plan.seed = parseU64(clause, clause.substr(5));
            continue;
        }

        const size_t colon = std::min(clause.find(':'), clause.size());
        const std::string name = clause.substr(0, colon);
        int point = -1;
        for (unsigned i = 0; i < faultPointCount; ++i) {
            if (name == kPointNames[i])
                point = static_cast<int>(i);
        }
        if (point < 0)
            throw std::invalid_argument(
                "fault plan: unknown injection point '" + name + "'");
        FaultRule &rule = plan.rules[point];
        rule.active = true;

        size_t sp = colon;
        while (sp < clause.size()) {
            const size_t se =
                std::min(clause.find(':', sp + 1), clause.size());
            const std::string kv = clause.substr(sp + 1, se - sp - 1);
            sp = se;
            const size_t eq = kv.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument(
                    "fault plan: expected key=value, got '" + kv +
                    "' in clause '" + clause + "'");
            const std::string key = kv.substr(0, eq);
            const uint64_t val = parseU64(clause, kv.substr(eq + 1));
            if (key == "every") {
                if (val == 0)
                    throw std::invalid_argument(
                        "fault plan: every=0 in clause '" + clause +
                        "'");
                rule.every = val;
            } else if (key == "start") {
                rule.start = val;
            } else if (key == "max") {
                rule.max = val;
            } else if (key == "ms") {
                rule.ms = val;
            } else {
                throw std::invalid_argument(
                    "fault plan: unknown key '" + key +
                    "' in clause '" + clause + "'");
            }
        }
    }
    return plan;
}

bool
FaultPlan::anyActive() const
{
    for (const FaultRule &r : rules) {
        if (r.active)
            return true;
    }
    return false;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector inj;
    return inj;
}

FaultInjector::FaultInjector()
{
    for (unsigned i = 0; i < faultPointCount; ++i) {
        hits_[i].store(0, std::memory_order_relaxed);
        fired_[i].store(0, std::memory_order_relaxed);
    }
    // Environment arming: parsed once here (the singleton is built on
    // the first seam hit or test access). A malformed plan throws —
    // a CI matrix entry with a typo must fail, not silently run
    // fault-free.
    if (const char *env = std::getenv("HEROSIGN_FAULT_PLAN")) {
        if (env[0] != '\0')
            arm(FaultPlan::parse(env));
    }
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    // Publish plan before the armed flag: seams acquire-load the flag
    // and only then read the plan. Never swap plans under live
    // traffic — arm/disarm around a drained window.
    detail::faultArmed.store(false, std::memory_order_release);
    plan_ = plan;
    for (unsigned i = 0; i < faultPointCount; ++i) {
        hits_[i].store(0, std::memory_order_relaxed);
        fired_[i].store(0, std::memory_order_relaxed);
    }
    detail::faultArmed.store(plan.anyActive(),
                             std::memory_order_release);
}

void
FaultInjector::disarm()
{
    detail::faultArmed.store(false, std::memory_order_release);
}

uint64_t
FaultInjector::hits(FaultPoint point) const
{
    return hits_[static_cast<unsigned>(point)].load(
        std::memory_order_relaxed);
}

uint64_t
FaultInjector::fired(FaultPoint point) const
{
    return fired_[static_cast<unsigned>(point)].load(
        std::memory_order_relaxed);
}

unsigned
FaultInjector::laneFor(uint64_t fire_index, unsigned limit) const
{
    return static_cast<unsigned>(mix64(plan_.seed ^ fire_index) %
                                 limit);
}

bool
FaultInjector::fireArmed(FaultPoint point)
{
    const unsigned i = static_cast<unsigned>(point);
    const FaultRule &rule = plan_.rules[i];
    if (!rule.active)
        return false;
    // Hit indices are 1-based fetch_add results: the schedule is a
    // pure function of the index, so the SET of firing indices is
    // fixed — under concurrency only which thread draws a firing
    // index varies, never how many fire.
    const uint64_t hit =
        hits_[i].fetch_add(1, std::memory_order_relaxed) + 1;
    if (hit <= rule.start)
        return false;
    if ((hit - rule.start - 1) % rule.every != 0)
        return false;
    const uint64_t nth =
        fired_[i].fetch_add(1, std::memory_order_relaxed) + 1;
    if (nth > rule.max) {
        fired_[i].fetch_sub(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void
FaultInjector::throwIfFires(FaultPoint point)
{
    if (fire(point))
        throw FaultInjected(std::string("injected fault: ") +
                            faultPointName(point));
}

} // namespace herosign
