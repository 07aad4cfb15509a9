/**
 * @file
 * Minimal Prometheus text-exposition format checker, used by tests
 * and the metrics-soak example to validate exportPrometheus()
 * output without an external scraper.
 *
 * Checks the subset of the format the exporter emits:
 *  - every non-comment line is `name{labels} value` or `name value`;
 *  - metric names and label keys are legal identifiers;
 *  - label values are double-quoted with no raw quotes inside;
 *  - every sample's base name was declared by a preceding # TYPE;
 *  - histogram series carry _bucket/_sum/_count suffixes, buckets
 *    are cumulative (non-decreasing by `le`) and end at le="+Inf"
 *    with a count equal to the _count sample.
 */

#ifndef HEROSIGN_TESTS_TELEMETRY_PROM_CHECK_HH
#define HEROSIGN_TESTS_TELEMETRY_PROM_CHECK_HH

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace herosign::telemetry
{

struct PromCheckResult
{
    bool ok = true;
    std::vector<std::string> errors;
    size_t samples = 0;
    size_t typeDecls = 0;

    void
    fail(size_t lineNo, const std::string &why)
    {
        ok = false;
        errors.push_back("line " + std::to_string(lineNo) + ": " +
                         why);
    }
};

namespace prom_detail
{

inline bool
validName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!(std::isalpha(static_cast<unsigned char>(s[0])) ||
          s[0] == '_' || s[0] == ':'))
        return false;
    for (char c : s)
        if (!(std::isalnum(static_cast<unsigned char>(c)) ||
              c == '_' || c == ':'))
            return false;
    return true;
}

inline bool
validValue(const std::string &s)
{
    if (s.empty())
        return false;
    if (s == "+Inf" || s == "-Inf" || s == "NaN")
        return true;
    char *end = nullptr;
    std::string copy = s;
    std::strtod(copy.c_str(), &end);
    return end != nullptr && *end == '\0';
}

/// Base metric name of a sample: strips a histogram suffix.
inline std::string
baseName(const std::string &name)
{
    for (const char *suffix : {"_bucket", "_sum", "_count"})
    {
        const std::string suf(suffix);
        if (name.size() > suf.size() &&
            name.compare(name.size() - suf.size(), suf.size(),
                         suf) == 0)
            return name.substr(0, name.size() - suf.size());
    }
    return name;
}

} // namespace prom_detail

/**
 * Validate @p text as Prometheus text exposition output.
 * All violations are collected (not just the first).
 */
inline PromCheckResult
promCheck(const std::string &text)
{
    using namespace prom_detail;
    PromCheckResult result;
    std::map<std::string, std::string> types; // base name -> type
    // Per histogram+label-set (minus `le`): bucket counts in order,
    // the +Inf count, and the _count sample value.
    struct HistState
    {
        std::vector<double> buckets;
        bool sawInf = false;
        double infCount = 0;
        bool sawCount = false;
        double countValue = 0;
    };
    std::map<std::string, HistState> hists;

    std::istringstream in(text);
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line))
    {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#')
        {
            std::istringstream ls(line);
            std::string hash, kind, name, rest;
            ls >> hash >> kind >> name;
            if (kind == "TYPE")
            {
                std::string type;
                ls >> type;
                if (!validName(name))
                    result.fail(lineNo, "bad TYPE name: " + name);
                else if (type != "counter" && type != "gauge" &&
                         type != "histogram" && type != "summary" &&
                         type != "untyped")
                    result.fail(lineNo, "bad TYPE kind: " + type);
                else
                {
                    types[name] = type;
                    ++result.typeDecls;
                }
            }
            else if (kind != "HELP")
                result.fail(lineNo,
                            "unknown comment directive: " + kind);
            continue;
        }

        // Sample line: name[{labels}] value
        size_t brace = line.find('{');
        size_t nameEnd = brace == std::string::npos
                             ? line.find(' ')
                             : brace;
        if (nameEnd == std::string::npos)
        {
            result.fail(lineNo, "no value: " + line);
            continue;
        }
        const std::string name = line.substr(0, nameEnd);
        if (!validName(name))
        {
            result.fail(lineNo, "bad metric name: " + name);
            continue;
        }
        std::string labels;
        size_t valueStart;
        if (brace != std::string::npos)
        {
            size_t close = line.find('}', brace);
            if (close == std::string::npos)
            {
                result.fail(lineNo, "unterminated label set");
                continue;
            }
            labels = line.substr(brace + 1, close - brace - 1);
            valueStart = close + 1;
        }
        else
            valueStart = nameEnd;
        while (valueStart < line.size() && line[valueStart] == ' ')
            ++valueStart;
        const std::string value = line.substr(valueStart);
        if (!validValue(value))
        {
            result.fail(lineNo, "bad sample value: '" + value + "'");
            continue;
        }

        // Label pairs: key="value",...
        std::string le;
        std::string otherLabels;
        size_t pos = 0;
        bool labelsOk = true;
        while (pos < labels.size())
        {
            size_t eq = labels.find('=', pos);
            if (eq == std::string::npos ||
                eq + 1 >= labels.size() || labels[eq + 1] != '"')
            {
                result.fail(lineNo, "malformed label set: {" +
                                        labels + "}");
                labelsOk = false;
                break;
            }
            const std::string key = labels.substr(pos, eq - pos);
            size_t endQuote = labels.find('"', eq + 2);
            if (!validName(key) || endQuote == std::string::npos)
            {
                result.fail(lineNo, "malformed label: " + key);
                labelsOk = false;
                break;
            }
            const std::string val =
                labels.substr(eq + 2, endQuote - eq - 2);
            if (key == "le")
                le = val;
            else
            {
                if (!otherLabels.empty())
                    otherLabels += ',';
                otherLabels += key + "=" + val;
            }
            pos = endQuote + 1;
            if (pos < labels.size() && labels[pos] == ',')
                ++pos;
        }
        if (!labelsOk)
            continue;

        const std::string base = baseName(name);
        auto typeIt = types.find(base);
        if (typeIt == types.end() &&
            types.find(name) == types.end())
        {
            result.fail(lineNo,
                        "sample without preceding # TYPE: " + name);
            continue;
        }
        ++result.samples;

        const bool isHist =
            typeIt != types.end() && typeIt->second == "histogram";
        if (isHist)
        {
            HistState &hs = hists[base + "|" + otherLabels];
            const double v = std::strtod(value.c_str(), nullptr);
            if (name == base + "_bucket")
            {
                if (le.empty())
                    result.fail(lineNo, "bucket without le label");
                else if (le == "+Inf")
                {
                    hs.sawInf = true;
                    hs.infCount = v;
                }
                else
                {
                    if (!hs.buckets.empty() &&
                        v < hs.buckets.back())
                        result.fail(
                            lineNo,
                            "non-cumulative bucket in " + base);
                    hs.buckets.push_back(v);
                }
            }
            else if (name == base + "_count")
            {
                hs.sawCount = true;
                hs.countValue = v;
            }
        }
    }

    for (const auto &[key, hs] : hists)
    {
        const std::string base = key.substr(0, key.find('|'));
        if (!hs.sawInf)
            result.fail(0, "histogram " + base +
                               " missing le=\"+Inf\" bucket");
        if (!hs.sawCount)
            result.fail(0,
                        "histogram " + base + " missing _count");
        if (hs.sawInf && hs.sawCount &&
            hs.infCount != hs.countValue)
            result.fail(0, "histogram " + base +
                               " +Inf bucket != _count");
        if (hs.sawInf && !hs.buckets.empty() &&
            hs.infCount < hs.buckets.back())
            result.fail(0, "histogram " + base +
                               " +Inf below last bucket");
    }
    return result;
}

} // namespace herosign::telemetry

#endif // HEROSIGN_TESTS_TELEMETRY_PROM_CHECK_HH
