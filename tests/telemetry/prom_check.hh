/**
 * @file
 * Minimal Prometheus text-exposition format checker, used by tests
 * and the metrics-soak example to validate exportPrometheus()
 * output without an external scraper.
 *
 * Checks the subset of the format the exporter emits:
 *  - every non-comment line is `name{labels} value` or `name value`;
 *  - metric names and label keys are legal identifiers;
 *  - label values are double-quoted; inside them a backslash, a
 *    double quote and a line feed appear only as the escapes \\,
 *    \" and \n, so a raw quote (or a line the exposition broke in
 *    two) fails;
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
#include <set>
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
    /// Every label value seen, unescaped, by label key.
    std::map<std::string, std::set<std::string>> labelValues;

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

/**
 * Parse the label set that starts at line[pos] (just past the '{')
 * into key/value pairs, unescaping the values. On success @p pos is
 * just past the closing '}'.
 */
inline bool
parseLabels(const std::string &line, size_t &pos,
            std::vector<std::pair<std::string, std::string>> &out,
            std::string &why)
{
    while (pos < line.size() && line[pos] != '}')
    {
        const size_t eq = line.find('=', pos);
        if (eq == std::string::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"')
        {
            why = "malformed label set";
            return false;
        }
        const std::string key = line.substr(pos, eq - pos);
        if (!validName(key))
        {
            why = "malformed label: " + key;
            return false;
        }
        std::string val;
        size_t i = eq + 2;
        for (; i < line.size() && line[i] != '"'; ++i)
        {
            if (line[i] != '\\')
            {
                val += line[i];
                continue;
            }
            const char esc = i + 1 < line.size() ? line[++i] : '\0';
            if (esc == '\\' || esc == '"')
                val += esc;
            else if (esc == 'n')
                val += '\n';
            else
            {
                why = "bad escape in label " + key;
                return false;
            }
        }
        if (i >= line.size())
        {
            why = "unterminated label value: " + key;
            return false;
        }
        out.emplace_back(key, std::move(val));
        pos = i + 1;
        if (pos < line.size() && line[pos] == ',')
            ++pos;
        else if (pos >= line.size() || line[pos] != '}')
        {
            why = "malformed label set after " + key;
            return false;
        }
    }
    if (pos >= line.size())
    {
        why = "unterminated label set";
        return false;
    }
    ++pos;
    return true;
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
        std::vector<std::pair<std::string, std::string>> labels;
        size_t valueStart = nameEnd;
        if (brace != std::string::npos)
        {
            std::string why;
            valueStart = brace + 1;
            if (!parseLabels(line, valueStart, labels, why))
            {
                result.fail(lineNo, why + ": " + line);
                continue;
            }
        }
        while (valueStart < line.size() && line[valueStart] == ' ')
            ++valueStart;
        const std::string value = line.substr(valueStart);
        if (!validValue(value))
        {
            result.fail(lineNo, "bad sample value: '" + value + "'");
            continue;
        }

        std::string le;
        std::string otherLabels;
        for (const auto &[key, val] : labels)
        {
            result.labelValues[key].insert(val);
            if (key == "le")
                le = val;
            else
            {
                if (!otherLabels.empty())
                    otherLabels += ',';
                otherLabels += key + "=" + val;
            }
        }

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
