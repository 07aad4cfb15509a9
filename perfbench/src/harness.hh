/**
 * @file
 * Harness-side building blocks of the serving benchmark: the seeded
 * input stream, percentile arithmetic, the in-memory span tracer, a
 * small parallel-for for the output checks, and the metric sink that
 * prints the result line. Nothing here calls into the library under
 * test except Sha256::compressionCount(), which spans read.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.hh"

namespace perfbench
{

using herosign::ByteSpan;
using herosign::ByteVec;
using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p a to @p b. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/**
 * SplitMix64 stream keyed by (seed, tag). Every input of a workload
 * comes from one of these, so the library's own Rng never shapes the
 * inputs it is measured on. Distinct tags give independent streams.
 */
class Stream
{
  public:
    Stream(uint64_t seed, uint64_t tag)
        : s_(mix(seed ^ mix(tag + 0x632BE59BD9B4E019ull)))
    {
    }

    uint64_t next() { return mix(s_ += 0x9E3779B97F4A7C15ull); }
    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [lo, hi]. */
    uint64_t between(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    ByteVec bytes(size_t n);
    /** min(k, n) distinct indices drawn from [0, n). */
    std::vector<size_t> distinct(size_t n, size_t k);

  private:
    static uint64_t mix(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    uint64_t s_;
};

/**
 * The @p pct-th percentile of @p v: the mean of the order statistics
 * around the nearest rank, reaching half-way to the nearer end on both
 * sides (a median is the mean of the middle half). Refuses (nullopt)
 * when fewer than @p min_beyond samples lie above the nearest rank, so
 * a p99 needs at least 1000 samples; an empty input is always refused.
 */
std::optional<double> percentile(std::vector<double> v, unsigned pct,
                                 size_t min_beyond);

/** Median, or nullopt for an empty input. */
inline std::optional<double>
median(std::vector<double> v)
{
    return percentile(std::move(v), 50, 0);
}

/** p99 with the ten-samples-beyond rule. */
inline std::optional<double>
p99(std::vector<double> v)
{
    return percentile(std::move(v), 99, 10);
}

/**
 * Samples in arrival order, split into consecutive chunks of at least
 * @p chunk samples (one chunk when there are fewer): the median of the
 * chunks' percentiles, so one bad stretch of a run moves it less than
 * the pooled percentile. Refused when any chunk refuses.
 */
std::optional<double> chunkedPercentile(const std::vector<double> &v,
                                        unsigned pct, size_t min_beyond,
                                        size_t chunk);

/** One timed interval; spans of one request share @c request. */
struct Span
{
    uint64_t id = 0;      ///< 1-based, index + 1 in the tracer
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0; ///< the request this work belongs to
    std::string name;
    double startNs = 0; ///< relative to the tracer's origin
    double endNs = 0;
    /// Sha256::compressionCount() delta on the recording thread
    /// (0 for spans reconstructed from another thread's stamps; the
    /// count at open() while the span is open).
    uint64_t comps = 0;

    double durationNs() const { return endNs - startNs; }
};

/**
 * In-memory span store. open()/close() time live calls on the calling
 * thread; add() takes a span whose stamps were taken elsewhere. Spans
 * are written out once, at the end of the run.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    uint64_t open(std::string name, uint64_t parent, uint64_t request);
    void close(uint64_t id);
    uint64_t add(Span s);

    const Span &span(uint64_t id) const { return spans_.at(id - 1); }
    const std::vector<Span> &spans() const { return spans_; }

    /** Per span (index = id - 1): duration minus its children's. */
    std::vector<double> selfNs() const;

    /** Durations (ns) of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** One JSON object per line. */
    void write(std::ostream &os) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span on a Tracer. */
class Scope
{
  public:
    Scope(Tracer &t, std::string name, uint64_t parent, uint64_t request)
        : t_(t), id_(t.open(std::move(name), parent, request))
    {
    }
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    uint64_t id_;
};

/**
 * Run body(i) for i in [0, n) on @p threads threads (the caller is one
 * of them). The first exception a body throws is rethrown on the
 * caller after every thread has joined.
 */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)> &body);

/** Named metric values with units, printed as the final result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value, std::string unit)
    {
        values_[name] = {value, std::move(unit)};
    }
    double get(const std::string &name) const
    {
        return values_.at(name).first;
    }

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"},
     * restricted to @p names (all of them must be set).
     */
    std::string resultLine(bool correct, uint64_t attempted,
                           uint64_t failed,
                           const std::vector<std::string> &names) const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** @p v with all 17 significant digits. */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
