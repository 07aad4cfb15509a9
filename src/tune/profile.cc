#include "tune/profile.hh"

#include <cctype>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/hex.hh"
#include "hash/sha256.hh"
#include "sphincs/thashx.hh"

namespace herosign::tune
{

namespace
{

/**
 * Minimal recursive-descent JSON reader, just enough for the flat
 * profile schema: objects, strings, unsigned/float numbers, and
 * generic value skipping for unknown keys. Every syntax error throws
 * ProfileError{Parse} with the byte offset, so a corrupt profile is
 * loudly rejected instead of partially applied.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    void
    expect(char c)
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    tryConsume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != '"')
            fail("expected string");
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("dangling escape");
                char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'u':
                    // Profiles only ever contain ASCII; decode the
                    // low byte and reject anything wider.
                    if (pos_ + 4 > s_.size())
                        fail("truncated \\u escape");
                    out += static_cast<char>(
                        std::stoi(s_.substr(pos_, 4), nullptr, 16));
                    pos_ += 4;
                    break;
                default: fail("unsupported escape");
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    double
    parseNumber()
    {
        skipWs();
        const size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        try {
            return std::stod(s_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return 0; // unreachable
    }

    /** Skip any one JSON value (for unknown keys). */
    void
    skipValue()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("expected value");
        const char c = s_[pos_];
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            forEachKey([this](const std::string &) { skipValue(); });
        } else if (c == '[') {
            ++pos_;
            if (tryConsume(']'))
                return;
            do {
                skipValue();
            } while (tryConsume(','));
            expect(']');
        } else if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            parseNumber();
        }
    }

    /** Parse one object, invoking @p on_key for every key. */
    template <typename Fn>
    void
    forEachKey(Fn &&on_key)
    {
        expect('{');
        if (tryConsume('}'))
            return;
        do {
            std::string key = parseString();
            expect(':');
            on_key(key);
        } while (tryConsume(','));
        expect('}');
    }

    void
    checkEnd()
    {
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage");
    }

    [[noreturn]] void
    fail(const std::string &why)
    {
        throw ProfileError(ProfileError::Kind::Parse,
                           "profile JSON: " + why + " at byte " +
                               std::to_string(pos_));
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

std::string
fmtDouble(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

unsigned
asUnsigned(double v, const char *field)
{
    if (v < 0 || v != static_cast<double>(static_cast<uint64_t>(v)))
        throw ProfileError(ProfileError::Kind::Parse,
                           std::string("profile JSON: field '") +
                               field + "' is not a non-negative " +
                               "integer");
    return static_cast<unsigned>(v);
}

std::mutex g_profileHashM;
std::string g_profileHash;

} // namespace

HostFingerprint
HostFingerprint::current(const std::string &param_set)
{
    HostFingerprint fp;
    fp.cores = std::thread::hardware_concurrency();
    fp.paramSet = param_set;
    switch (laneDispatch().backend) {
    case LaneBackend::Avx512: fp.dispatch = "avx512"; break;
    case LaneBackend::Avx2: fp.dispatch = "avx2"; break;
    case LaneBackend::Scalar: fp.dispatch = "portable"; break;
    }
    fp.cpuModel = "unknown";
#ifdef __linux__
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto pos = line.find("model name");
        if (pos != std::string::npos) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                size_t b = colon + 1;
                while (b < line.size() && line[b] == ' ')
                    ++b;
                fp.cpuModel = line.substr(b);
            }
            break;
        }
    }
#endif
    return fp;
}

std::string
HostFingerprint::describeMismatch(const HostFingerprint &other) const
{
    std::string why;
    auto add = [&](const char *what, const std::string &a,
                   const std::string &b) {
        if (a != b) {
            if (!why.empty())
                why += "; ";
            why += std::string(what) + " '" + a + "' vs '" + b + "'";
        }
    };
    add("cpu", cpuModel, other.cpuModel);
    add("cores", std::to_string(cores), std::to_string(other.cores));
    add("dispatch", dispatch, other.dispatch);
    add("param set", paramSet, other.paramSet);
    return why;
}

std::string
Profile::toJson() const
{
    std::string s;
    s += "{\n";
    s += "  \"version\": " + std::to_string(kVersion) + ",\n";
    s += "  \"fingerprint\": {\n";
    s += "    \"cpu\": " + jsonQuote(fingerprint.cpuModel) + ",\n";
    s += "    \"cores\": " + std::to_string(fingerprint.cores) + ",\n";
    s += "    \"dispatch\": " + jsonQuote(fingerprint.dispatch) +
         ",\n";
    s += "    \"param_set\": " + jsonQuote(fingerprint.paramSet) +
         "\n  },\n";
    s += "  \"config\": {\n";
    s += "    \"sign_workers\": " + std::to_string(config.signWorkers) +
         ",\n";
    s += "    \"sign_shards\": " + std::to_string(config.signShards) +
         ",\n";
    s += "    \"sign_coalesce\": " +
         std::to_string(config.signCoalesce) + ",\n";
    s += "    \"verify_workers\": " +
         std::to_string(config.verifyWorkers) + ",\n";
    s += "    \"verify_shards\": " +
         std::to_string(config.verifyShards) + ",\n";
    s += "    \"verify_coalesce\": " +
         std::to_string(config.verifyCoalesce) + ",\n";
    s += "    \"cache_capacity\": " +
         std::to_string(config.cacheCapacity) + "\n  },\n";
    s += "  \"measured\": {\n";
    s += "    \"tuned_ops_per_sec\": " + fmtDouble(tunedOpsPerSec) +
         ",\n";
    s += "    \"baseline_ops_per_sec\": " +
         fmtDouble(baselineOpsPerSec) + ",\n";
    s += "    \"tuned_p99_ms\": " + fmtDouble(tunedP99Ms) + "\n  },\n";
    s += "  \"seed\": " + std::to_string(seed) + ",\n";
    s += "  \"trials\": " + std::to_string(trials) + "\n";
    s += "}\n";
    return s;
}

Profile
Profile::fromJson(const std::string &text)
{
    JsonReader r(text);
    Profile p;
    bool saw_version = false, saw_fingerprint = false,
         saw_config = false;
    r.forEachKey([&](const std::string &key) {
        if (key == "version") {
            const unsigned v = asUnsigned(r.parseNumber(), "version");
            saw_version = true;
            if (v != kVersion)
                throw ProfileError(
                    ProfileError::Kind::Version,
                    "profile version " + std::to_string(v) +
                        " != supported " + std::to_string(kVersion));
        } else if (key == "fingerprint") {
            saw_fingerprint = true;
            r.forEachKey([&](const std::string &k) {
                if (k == "cpu")
                    p.fingerprint.cpuModel = r.parseString();
                else if (k == "cores")
                    p.fingerprint.cores =
                        asUnsigned(r.parseNumber(), "cores");
                else if (k == "dispatch")
                    p.fingerprint.dispatch = r.parseString();
                else if (k == "param_set")
                    p.fingerprint.paramSet = r.parseString();
                else
                    r.skipValue();
            });
        } else if (key == "config") {
            saw_config = true;
            r.forEachKey([&](const std::string &k) {
                auto u = [&](const char *f) {
                    return asUnsigned(r.parseNumber(), f);
                };
                if (k == "sign_workers")
                    p.config.signWorkers = u(k.c_str());
                else if (k == "sign_shards")
                    p.config.signShards = u(k.c_str());
                else if (k == "sign_coalesce")
                    p.config.signCoalesce = u(k.c_str());
                else if (k == "verify_workers")
                    p.config.verifyWorkers = u(k.c_str());
                else if (k == "verify_shards")
                    p.config.verifyShards = u(k.c_str());
                else if (k == "verify_coalesce")
                    p.config.verifyCoalesce = u(k.c_str());
                else if (k == "cache_capacity")
                    p.config.cacheCapacity = u(k.c_str());
                else
                    r.skipValue();
            });
        } else if (key == "measured") {
            r.forEachKey([&](const std::string &k) {
                if (k == "tuned_ops_per_sec")
                    p.tunedOpsPerSec = r.parseNumber();
                else if (k == "baseline_ops_per_sec")
                    p.baselineOpsPerSec = r.parseNumber();
                else if (k == "tuned_p99_ms")
                    p.tunedP99Ms = r.parseNumber();
                else
                    r.skipValue();
            });
        } else if (key == "seed") {
            p.seed = static_cast<uint64_t>(r.parseNumber());
        } else if (key == "trials") {
            p.trials = asUnsigned(r.parseNumber(), "trials");
        } else {
            r.skipValue();
        }
    });
    r.checkEnd();
    if (!saw_version)
        throw ProfileError(ProfileError::Kind::Parse,
                           "profile JSON: missing 'version'");
    if (!saw_fingerprint)
        throw ProfileError(ProfileError::Kind::Parse,
                           "profile JSON: missing 'fingerprint'");
    if (!saw_config)
        throw ProfileError(ProfileError::Kind::Parse,
                           "profile JSON: missing 'config'");
    return p;
}

std::string
Profile::hash() const
{
    const std::string doc = toJson();
    const auto d = Sha256::digest(
        ByteSpan(reinterpret_cast<const uint8_t *>(doc.data()),
                 doc.size()));
    return hexEncode(ByteSpan(d.data(), 8));
}

void
saveProfile(const std::string &path, const Profile &profile)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw ProfileError(ProfileError::Kind::Io,
                           "cannot write profile '" + path + "'");
    f << profile.toJson();
    f.flush();
    if (!f)
        throw ProfileError(ProfileError::Kind::Io,
                           "short write to profile '" + path + "'");
}

Profile
loadProfile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw ProfileError(ProfileError::Kind::Io,
                           "cannot read profile '" + path + "'");
    std::ostringstream buf;
    buf << f.rdbuf();
    return Profile::fromJson(buf.str());
}

Profile
loadProfileMatching(const std::string &path,
                    const HostFingerprint &expect)
{
    Profile p = loadProfile(path);
    if (!(p.fingerprint == expect))
        throw ProfileError(
            ProfileError::Kind::Fingerprint,
            "profile '" + path + "' is stale for this host: " +
                p.fingerprint.describeMismatch(expect));
    return p;
}

void
setActiveProfileHash(const std::string &hash)
{
    std::lock_guard<std::mutex> lk(g_profileHashM);
    g_profileHash = hash;
}

std::string
activeProfileHash()
{
    std::lock_guard<std::mutex> lk(g_profileHashM);
    return g_profileHash;
}

} // namespace herosign::tune

// --- fromProfile: the recommended construction path -----------------
//
// Defined here (not in the service TUs) so the config header only
// needs a forward declaration of tune::Profile; the library links
// as one unit either way. Profile knobs pass through KnobSpace::clamp
// — the same floors/caps the constructors apply — so a value loaded
// from a profile and the same value set directly produce identical
// effective configurations; explicit user overrides then win
// unconditionally.

namespace herosign::service
{

ServiceConfig
ServiceConfig::fromProfile(const tune::Profile &p)
{
    return fromProfile(p, tune::ServiceKnobOverrides{});
}

ServiceConfig
ServiceConfig::fromProfile(const tune::Profile &p,
                           const tune::ServiceKnobOverrides &user)
{
    const tune::KnobConfig k = tune::KnobSpace::clamp(p.config);
    ServiceConfig cfg;
    cfg.workers = user.workers.value_or(k.signWorkers);
    cfg.shards = user.shards.value_or(k.signShards);
    cfg.signCoalesce = user.signCoalesce.value_or(k.signCoalesce);
    cfg.verifyWorkers = user.verifyWorkers.value_or(k.verifyWorkers);
    cfg.verifyShards = user.verifyShards.value_or(k.verifyShards);
    cfg.verifyCoalesce =
        user.verifyCoalesce.value_or(k.verifyCoalesce);
    cfg.contextCacheCapacity =
        user.contextCacheCapacity.value_or(k.cacheCapacity);
    return cfg;
}

} // namespace herosign::service
