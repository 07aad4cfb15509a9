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
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "common/table.hh"
#include "core/engine.hh"

namespace herosign::bench
{

/** Parsed command-line options shared by all bench binaries. */
struct Options
{
    bool csv = false;
    unsigned iters = 0; ///< --iters N; 0 = the bench's own default

    static Options
    parse(int argc, char **argv)
    {
        Options o;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--csv") {
                o.csv = true;
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

/** Print the experiment banner and the table (text or CSV). */
inline void
emit(const Options &o, const std::string &title, const TextTable &table,
     const std::string &note = "")
{
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
