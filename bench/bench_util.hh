/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: CLI flag
 * handling (--csv), headers that identify the experiment, and an
 * engine cache so a bench constructing several configurations does
 * not re-profile needlessly.
 */

#ifndef HEROSIGN_BENCH_BENCH_UTIL_HH
#define HEROSIGN_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "core/engine.hh"
#include "hash/sha256xN.hh"
#include "telemetry/histogram.hh"

namespace herosign::bench
{

/** Outcome of one measureFor() run. */
struct MeasureResult
{
    uint64_t iters = 0; ///< operations completed inside the window
    double wallUs = 0;  ///< measured wall clock of those operations

    /** Operations per second (0 when nothing ran). */
    double
    opsPerSec() const
    {
        return wallUs > 0 ? iters * 1e6 / wallUs : 0.0;
    }
};

/**
 * The shared duration-bounded measurement loop: run @p fn in a closed
 * loop for (at least) @p seconds of wall clock, after @p warmup_iters
 * untimed warmup calls. At least one timed iteration always runs, so
 * rates are never divided by zero and a single slow operation still
 * yields its true cost.
 */
template <typename Fn>
MeasureResult
measureFor(double seconds, unsigned warmup_iters, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    for (unsigned i = 0; i < warmup_iters; ++i)
        fn();
    MeasureResult r;
    const auto t0 = clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(seconds));
    do {
        fn();
        ++r.iters;
    } while (clock::now() < deadline);
    r.wallUs = std::chrono::duration<double, std::micro>(clock::now() -
                                                         t0)
                   .count();
    return r;
}

/**
 * What makes a bench number host-specific: CPU model, core count and
 * the SHA-256 lane dispatch tier. Recorded in every snapshot's
 * __meta__ record so the trend differ can tell a regression from a
 * host change.
 */
struct HostFingerprint
{
    std::string cpuModel = "unknown"; ///< /proc/cpuinfo "model name"
    unsigned cores = 0; ///< std::thread::hardware_concurrency()
    std::string dispatch; ///< "avx512" / "avx2" / "portable"

    static HostFingerprint
    current()
    {
        HostFingerprint fp;
        fp.cores = std::thread::hardware_concurrency();
        switch (laneDispatch().backend) {
        case LaneBackend::Avx512: fp.dispatch = "avx512"; break;
        case LaneBackend::Avx2: fp.dispatch = "avx2"; break;
        case LaneBackend::Scalar: fp.dispatch = "portable"; break;
        }
        const std::string key = "model name";
        std::ifstream cpuinfo("/proc/cpuinfo");
        std::string line;
        while (std::getline(cpuinfo, line)) {
            if (line.rfind(key, 0) != 0)
                continue;
            const auto b = line.find_first_not_of(" \t:", key.size());
            if (b != std::string::npos)
                fp.cpuModel = line.substr(b);
            break;
        }
        return fp;
    }
};

/**
 * q-quantile (0..1) of @p lat_us, in milliseconds — computed through
 * the telemetry LatencyHistogram so bench tables and the live
 * exporters share one percentile definition (exact-bucket upper
 * bound, never under-reporting, ~3% bucket resolution).
 */
inline double
percentileMs(const std::vector<double> &lat_us, double q)
{
    if (lat_us.empty())
        return 0.0;
    telemetry::LatencyHistogram h(1);
    for (double us : lat_us)
        h.record(us <= 0 ? 0
                         : static_cast<uint64_t>(us * 1000.0 + 0.5));
    return static_cast<double>(h.snapshot().percentile(q)) / 1e6;
}

/** Parsed command-line options shared by all bench binaries. */
struct Options
{
    bool csv = false;
    unsigned iters = 0; ///< --iters N; 0 = the bench's own default
    std::string jsonPath; ///< --json <path>; empty = no JSON output

    static Options
    parse(int argc, char **argv)
    {
        Options o;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--csv") {
                o.csv = true;
            } else if (a == "--json") {
                // Consume the value only when it is not another flag,
                // matching the --iters convention below.
                const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
                if (v && std::strncmp(v, "--", 2) != 0) {
                    o.jsonPath = v;
                    ++i;
                } else {
                    std::cerr << "--json expects a file path; "
                                 "ignoring\n";
                }
            } else if (a == "--iters") {
                // Consume the value only when it parses, so a
                // following flag is not swallowed by a bad value.
                const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
                bool ok = false;
                if (v) {
                    unsigned n = 0;
                    const char *end = v + std::strlen(v);
                    auto [p, ec] = std::from_chars(v, end, n);
                    if (ec == std::errc() && p == end && n > 0) {
                        o.iters = n;
                        ok = true;
                        ++i;
                    }
                }
                if (!ok) {
                    std::cerr << "--iters expects a positive integer, "
                                 "got '"
                              << (v ? v : "") << "'; ignoring\n";
                }
            }
        }
        return o;
    }
};

/** Escape a string for embedding in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Accumulates every table a bench emits and rewrites the --json file
 * as one array of {title, note, headers, rows} objects, rows keyed by
 * header — the machine-readable record the BENCH_*.json perf
 * trajectory is built from. Benches are single-threaded; rewriting on
 * each emit keeps the file valid even if the bench aborts later.
 */
inline void
emitJson(const std::string &path, const std::string &title,
         const std::string &note, const TextTable &table)
{
    // Keyed by destination so two --json paths in one process (or a
    // future multi-file bench) cannot cross-contaminate.
    static std::map<std::string, std::vector<std::string>> rendered_by;
    std::vector<std::string> &rendered = rendered_by[path];

    // First table into a file: lead with the host fingerprint, so
    // trend comparisons can tell a regression from a host change
    // (scripts/bench_trend.py warns instead of failing across
    // differing fingerprints).
    if (rendered.empty()) {
        const auto fp = HostFingerprint::current();
        std::string meta;
        meta.append("  {\n    \"title\": \"__meta__\",\n"
                    "    \"fingerprint\": {\"cpu\": \"");
        meta.append(jsonEscape(fp.cpuModel));
        meta.append("\", \"cores\": ");
        meta.append(std::to_string(fp.cores));
        meta.append(", \"dispatch\": \"");
        meta.append(jsonEscape(fp.dispatch));
        meta.append("\"}\n  }");
        rendered.push_back(std::move(meta));
    }

    // Built with append() chains: GCC 12 raises a -Wrestrict false
    // positive on nested operator+ of temporaries here.
    const auto &headers = table.headers();
    std::string obj;
    obj.append("  {\n    \"title\": \"");
    obj.append(jsonEscape(title));
    obj.append("\",\n    \"note\": \"");
    obj.append(jsonEscape(note));
    obj.append("\",\n    \"headers\": [");
    for (size_t c = 0; c < headers.size(); ++c) {
        if (c)
            obj.append(", ");
        obj.append("\"");
        obj.append(jsonEscape(headers[c]));
        obj.append("\"");
    }
    obj.append("],\n    \"rows\": [\n");
    bool first_row = true;
    for (const auto &row : table.rawRows()) {
        if (row.empty())
            continue; // separator
        if (!first_row)
            obj.append(",\n");
        first_row = false;
        obj.append("      {");
        for (size_t c = 0; c < headers.size() && c < row.size(); ++c) {
            if (c)
                obj.append(", ");
            obj.append("\"");
            obj.append(jsonEscape(headers[c]));
            obj.append("\": \"");
            obj.append(jsonEscape(row[c]));
            obj.append("\"");
        }
        obj.append("}");
    }
    obj.append("\n    ]\n  }");
    rendered.push_back(std::move(obj));

    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        std::cerr << "--json: cannot write '" << path << "'\n";
        return;
    }
    f << "[\n";
    for (size_t i = 0; i < rendered.size(); ++i)
        f << rendered[i] << (i + 1 < rendered.size() ? ",\n" : "\n");
    f << "]\n";
}

/** Print the experiment banner and the table (text, CSV, JSON). */
inline void
emit(const Options &o, const std::string &title, const TextTable &table,
     const std::string &note = "")
{
    if (!o.jsonPath.empty())
        emitJson(o.jsonPath, title, note, table);
    if (o.csv) {
        std::cout << table.renderCsv();
        return;
    }
    std::cout << "== " << title << " ==\n";
    if (!note.empty())
        std::cout << note << "\n";
    std::cout << table.render() << "\n";
}

/** Cache of engines keyed by (set, device, config name). */
class EngineCache
{
  public:
    core::SignEngine &
    get(const sphincs::Params &p, const gpu::DeviceProps &dev,
        const core::EngineConfig &cfg)
    {
        const std::string key = p.name + "/" + dev.name + "/" + cfg.name;
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            it = cache_
                     .emplace(key, std::make_unique<core::SignEngine>(
                                       p, dev, cfg))
                     .first;
        }
        return *it->second;
    }

  private:
    std::map<std::string, std::unique_ptr<core::SignEngine>> cache_;
};

/** KOPS of a kernel at the paper's reference batch of 1024. */
inline double
kernelKops(core::SignEngine &engine, core::KernelKind kind,
           unsigned batch = 1024)
{
    auto timing = engine.kernelTimingAt(kind, batch);
    return batch * 1000.0 / timing.durationUs;
}

} // namespace herosign::bench

#endif // HEROSIGN_BENCH_BENCH_UTIL_HH
