/**
 * @file
 * Self-check of the benchmark's own arithmetic: percentile refusal,
 * seed determinism of schedules and inputs, the realized Poisson
 * rate, and span self time. Runs before every measurement.
 */

#include "selftest.hh"

#include <cmath>
#include <numeric>

#include "workload.hh"

namespace perfbench
{

bool
selfTest(std::ostream &os)
{
    unsigned failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            os << "self-test failed: " << what << "\n";
            ++failures;
        }
    };

    // Percentiles: a p99 needs ten samples beyond its rank.
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0);
    check(p99(v) == 990.0, "p99 of 1..1000 is 990");
    check(median(v) == 500.0, "median of 1..1000 is its middle half's mean");
    std::vector<double> gap(1000, 1.0);
    std::fill(gap.begin() + 500, gap.end(), 3.0);
    const auto mid = median(gap);
    check(mid && *mid > 1.0 && *mid < 3.0,
          "a median that falls in a gap lands inside it");
    v.pop_back();
    check(!p99(v), "p99 of 999 samples is refused");
    check(median({3.0, 1.0, 2.0}) == 2.0, "median of {3,1,2} is 2");
    check(!median({}), "median of nothing is refused");

    // One seed, one schedule and one set of inputs; another seed differs.
    const WorkloadSpec &open = workloadByName("mixed-192f");
    auto same = [](const std::vector<Arrival> &a,
                   const std::vector<Arrival> &b) {
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i)
            if (a[i].atNs != b[i].atNs || a[i].sign != b[i].sign ||
                a[i].tenant != b[i].tenant)
                return false;
        return true;
    };
    check(same(arrivals(open, 7, 2), arrivals(open, 7, 2)),
          "one seed yields one arrival schedule");
    check(!same(arrivals(open, 7, 2), arrivals(open, 8, 2)),
          "another seed yields another schedule");
    Stream a(7, kTagSignInputs), b(7, kTagSignInputs), c(8, kTagSignInputs);
    const ByteVec x = a.bytes(1024);
    check(x == b.bytes(1024), "one seed yields one input stream");
    check(x != c.bytes(1024), "another seed yields another input stream");
    check(makeTenant(open, 7, 3).kp.pk.pkRoot ==
              makeTenant(open, 7, 3).kp.pk.pkRoot,
          "one seed yields one key");

    // The realized rate and sign share equal the frozen ones, and the
    // gaps look exponential: mean 1/rate, coefficient of variation 1.
    const double secs = 10;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        const std::vector<Arrival> arr = arrivals(open, seed, secs);
        const double n = static_cast<double>(arr.size());
        check(std::abs(n / secs - open.rate) <= 1 / secs,
              "realized arrival rate matches the frozen rate");
        double signs = 0, sum = 0, sumSq = 0, prev = 0;
        bool ordered = true;
        for (const Arrival &ar : arr) {
            signs += ar.sign;
            const double gap = ar.atNs - prev;
            ordered = ordered && gap >= 0 && ar.atNs < secs * 1e9;
            sum += gap;
            sumSq += gap * gap;
            prev = ar.atNs;
        }
        check(ordered, "arrivals are ordered and inside the window");
        check(std::abs(signs - n * open.signShare) <= 1,
              "realized sign share matches the frozen share");
        const double mean = sum / n;
        const double cv = std::sqrt(sumSq / n - mean * mean) / mean;
        check(std::abs(mean * open.rate * 1e-9 - 1) < 0.05,
              "mean gap is 1/rate");
        check(std::abs(cv - 1) < 0.1, "gaps are exponential (cv ~ 1)");
    }

    // Self time is duration minus the children's durations.
    Tracer t(Clock::now());
    auto span = [&](uint64_t parent, double start, double end) {
        Span s;
        s.parent = parent;
        s.startNs = start;
        s.endNs = end;
        return t.add(s);
    };
    const uint64_t root = span(0, 0, 100);
    const uint64_t kid = span(root, 10, 30);
    span(root, 40, 70);
    span(kid, 15, 20);
    const std::vector<double> self = t.selfNs();
    check(self[root - 1] == 50.0, "root self time is 100 - 20 - 30");
    check(self[kid - 1] == 15.0, "child self time is 20 - 5");

    return failures == 0;
}

} // namespace perfbench
