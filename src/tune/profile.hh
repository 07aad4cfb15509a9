/**
 * @file
 * Persisted per-host tuning profiles.
 *
 * A Profile is the autotuner's output: the winning KnobConfig plus
 * the fingerprint of the host it was measured on (cpu model, core
 * count, SIMD dispatch tier, parameter set) and the measured
 * tuned/baseline rates. Profiles round-trip through a small JSON
 * document; loading validates the format and (optionally) the
 * fingerprint, and every failure is a typed ProfileError — a
 * malformed or stale profile is rejected, never silently applied.
 *
 * ServiceConfig::fromProfile() (declared on the config struct,
 * defined here) is the recommended construction path: profile knobs
 * are clamped exactly like directly set ones, and explicit user
 * overrides always win.
 */

#ifndef HEROSIGN_TUNE_PROFILE_HH
#define HEROSIGN_TUNE_PROFILE_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "tune/knob_space.hh"

namespace herosign::tune
{

/** Thrown for every profile load/validation failure. */
class ProfileError : public std::runtime_error
{
  public:
    enum class Kind {
        Io,          ///< file unreadable/unwritable
        Parse,       ///< malformed JSON or missing required field
        Version,     ///< produced by an incompatible format version
        Fingerprint, ///< recorded on a different host/config
    };

    ProfileError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/**
 * What made the measurements host-specific. Two profiles are
 * interchangeable only when every field matches: a different CPU,
 * core count or SIMD dispatch tier shifts every knob's payoff, and a
 * different parameter set changes the work shape entirely.
 */
struct HostFingerprint
{
    std::string cpuModel; ///< /proc/cpuinfo "model name" (or unknown)
    unsigned cores = 0;   ///< std::thread::hardware_concurrency()
    std::string dispatch; ///< "avx512" / "avx2" / "portable"
    std::string paramSet; ///< Params::name the tuning ran against

    bool operator==(const HostFingerprint &) const = default;

    /** The current host's fingerprint for @p param_set. */
    static HostFingerprint current(const std::string &param_set);

    /** Human-readable mismatch description ("" when equal). */
    std::string describeMismatch(const HostFingerprint &other) const;
};

/** The autotuner's persisted result. */
struct Profile
{
    /// Bumped when the JSON schema changes incompatibly.
    static constexpr unsigned kVersion = 1;

    HostFingerprint fingerprint;
    KnobConfig config;
    double tunedOpsPerSec = 0;    ///< measured with `config`
    double baselineOpsPerSec = 0; ///< measured with the defaults
    double tunedP99Ms = 0;        ///< tail latency with `config`
    uint64_t seed = 0;            ///< search seed (replayability)
    unsigned trials = 0;          ///< measured trials spent

    /** Serialize as a stable, human-readable JSON document. */
    std::string toJson() const;

    /**
     * Parse a profile document.
     * @throws ProfileError{Parse} on malformed JSON or missing
     *         fields, ProfileError{Version} on a schema mismatch
     */
    static Profile fromJson(const std::string &text);

    /** Short content hash of the serialized profile (sha256/8B hex). */
    std::string hash() const;
};

/** Write @p profile to @p path. @throws ProfileError{Io} */
void saveProfile(const std::string &path, const Profile &profile);

/** Load @p path without fingerprint checks. @throws ProfileError */
Profile loadProfile(const std::string &path);

/**
 * Load @p path and require its fingerprint to match @p expect —
 * the guard that keeps a profile recorded on one host (or SIMD
 * tier, or parameter set) from being applied on another.
 * @throws ProfileError{Fingerprint} on any mismatch
 */
Profile loadProfileMatching(const std::string &path,
                            const HostFingerprint &expect);

/**
 * Explicit user overrides for the serving-layer knobs; a set field
 * always beats the profile value in fromProfile().
 */
struct ServiceKnobOverrides
{
    std::optional<unsigned> workers;
    std::optional<unsigned> shards;
    std::optional<unsigned> signCoalesce;
    std::optional<unsigned> verifyWorkers;
    std::optional<unsigned> verifyShards;
    std::optional<unsigned> verifyCoalesce;
    std::optional<size_t> contextCacheCapacity;
};

/**
 * Record the profile applied to this process (its content hash is
 * embedded in bench snapshot fingerprints); pass "" to clear.
 */
void setActiveProfileHash(const std::string &hash);

/** The hash recorded by setActiveProfileHash ("" when none). */
std::string activeProfileHash();

} // namespace herosign::tune

#endif // HEROSIGN_TUNE_PROFILE_HH
