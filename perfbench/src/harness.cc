#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "hash/sha256.hh"

namespace perfbench
{

ByteVec
Stream::bytes(size_t n)
{
    ByteVec out(n);
    for (size_t i = 0; i < n; i += 8) {
        const uint64_t w = next();
        for (size_t j = 0; j < 8 && i + j < n; ++j)
            out[i + j] = static_cast<uint8_t>(w >> (8 * j));
    }
    return out;
}

std::vector<size_t>
Stream::distinct(size_t n, size_t k)
{
    // Partial Fisher-Yates over the index range.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    k = std::min(k, n);
    for (size_t i = 0; i < k; ++i)
        std::swap(idx[i], idx[i + below(n - i)]);
    idx.resize(k);
    return idx;
}

std::optional<double>
percentile(std::vector<double> v, unsigned pct, size_t min_beyond)
{
    const size_t n = v.size();
    if (n == 0 || pct == 0 || pct > 100)
        return std::nullopt;
    // 1-based nearest rank ceil(pct * n / 100), in integers so p99 of
    // 1000 samples is exactly rank 990 with ten samples beyond it.
    const size_t rank = (n * pct + 99) / 100;
    if (n - rank < min_beyond)
        return std::nullopt;
    // Average the order statistics from half-way to the nearer end on
    // one side to as far on the other: the middle half for a median,
    // ranks 985-995 for a p99 of 1000. Latencies here are often bimodal
    // (burst waves, stretches where the host's vector units run slow);
    // a bare rank, or a narrow window, near the gap flips between the
    // modes from run to run.
    const size_t h = std::min((rank - 1) / 2, (n - rank) / 2);
    std::sort(v.begin(), v.end());
    double sum = 0;
    for (size_t i = rank - 1 - h; i <= rank - 1 + h; ++i)
        sum += v[i];
    return sum / static_cast<double>(2 * h + 1);
}

std::optional<double>
chunkedPercentile(const std::vector<double> &v, unsigned pct,
                  size_t min_beyond, size_t chunk)
{
    const size_t chunks = std::max<size_t>(1, v.size() / chunk);
    std::vector<double> per;
    for (size_t c = 0; c < chunks; ++c) {
        const auto q = percentile(
            std::vector<double>(v.begin() + v.size() * c / chunks,
                                v.begin() + v.size() * (c + 1) / chunks),
            pct, min_beyond);
        if (!q)
            return std::nullopt;
        per.push_back(*q);
    }
    return median(per);
}

uint64_t
Tracer::open(std::string name, uint64_t parent, uint64_t request)
{
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.comps = herosign::Sha256::compressionCount();
    spans_.push_back(std::move(s));
    // Stamp last so the bookkeeping above is outside the interval.
    spans_.back().startNs = nsBetween(origin_, Clock::now());
    return spans_.back().id;
}

void
Tracer::close(uint64_t id)
{
    const double end = nsBetween(origin_, Clock::now());
    Span &s = spans_.at(id - 1);
    s.endNs = end;
    s.comps = herosign::Sha256::compressionCount() - s.comps;
}

uint64_t
Tracer::add(Span s)
{
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<double>
Tracer::selfNs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationNs();
    for (const Span &s : spans_)
        if (s.parent)
            self[s.parent - 1] -= s.durationNs();
    return self;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.durationNs());
    return out;
}

void
Tracer::write(std::ostream &os) const
{
    const std::vector<double> self = selfNs();
    for (const Span &s : spans_) {
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << num(s.startNs)
           << ",\"end_ns\":" << num(s.endNs)
           << ",\"self_ns\":" << num(self[s.id - 1])
           << ",\"comps\":" << s.comps << "}\n";
    }
}

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &body)
{
    std::atomic<size_t> next{0};
    std::mutex errM;
    std::exception_ptr err;
    auto run = [&] {
        try {
            for (size_t i = next++; i < n; i = next++)
                body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(errM);
            if (!err)
                err = std::current_exception();
            next = n;
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t)
        pool.emplace_back(run);
    run();
    for (std::thread &t : pool)
        t.join();
    if (err)
        std::rethrow_exception(err);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
Metrics::resultLine(bool correct, uint64_t attempted, uint64_t failed,
                    const std::vector<std::string> &names) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &[value, unit] = values_.at(names[i]);
        if (i)
            out += ", ";
        out += "\"" + names[i] + "\": {\"value\": " + num(value) +
               ", \"unit\": \"" + unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
