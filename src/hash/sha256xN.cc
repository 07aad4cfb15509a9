#include "hash/sha256xN.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "common/fault.hh"
#include "hash/sha256_tables.hh"

namespace herosign
{

namespace
{

using sha256tables::initState;

std::atomic<bool> force_scalar{false};
std::atomic<bool> disable_avx512{false};

// Verify-after-sign quarantine state: sticky per-tier kill switches
// plus a monotonic count, all process-wide (a faulty vector unit is
// not a per-thread condition).
std::atomic<bool> quarantine_avx2{false};
std::atomic<bool> quarantine_avx512{false};
std::atomic<uint64_t> quarantine_count{0};

// The forced-scalar re-sign scope is per thread: one worker redoing
// a suspect signature must not demote its siblings' dispatch.
thread_local bool tl_force_scalar = false;

bool
cpuHasAvx2()
{
#if defined(HEROSIGN_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
cpuHasAvx512f()
{
#if defined(HEROSIGN_HAVE_AVX512) &&                                    \
    (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

/**
 * Startup snapshot of both disable variables, taken together on the
 * first dispatch query so the two ISAs gate off one consistent view
 * of the environment.
 */
struct EnvSnapshot
{
    bool disableAvx2;
    bool disableAvx512;
};

const EnvSnapshot &
envSnapshot()
{
    static const EnvSnapshot snap{
        laneEnvFlagEnabled("HEROSIGN_DISABLE_AVX2"),
        laneEnvFlagEnabled("HEROSIGN_DISABLE_AVX512"),
    };
    return snap;
}

} // namespace

bool
laneEnvFlagEnabled(const char *var)
{
    const char *v = std::getenv(var);
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

bool
sha256LanesAvx2Compiled()
{
#ifdef HEROSIGN_HAVE_AVX2
    return true;
#else
    return false;
#endif
}

bool
sha256LanesAvx2Supported()
{
    static const bool supported = cpuHasAvx2();
    return sha256LanesAvx2Compiled() && supported;
}

bool
sha256LanesAvx512Compiled()
{
#ifdef HEROSIGN_HAVE_AVX512
    return true;
#else
    return false;
#endif
}

bool
sha256LanesAvx512Supported()
{
    static const bool supported = cpuHasAvx512f();
    return sha256LanesAvx512Compiled() && supported;
}

LaneDispatch
laneDispatch()
{
    const EnvSnapshot &env = envSnapshot();
    const bool forced = force_scalar.load(std::memory_order_relaxed) ||
                        tl_force_scalar;

    LaneDispatch d;
    d.avx2 = sha256LanesAvx2Supported() && !env.disableAvx2 &&
             !forced &&
             !quarantine_avx2.load(std::memory_order_relaxed);
    // Disabling the narrower ISA implies the wider one is off too
    // (AVX-512F hardware always has AVX2), so HEROSIGN_DISABLE_AVX2=1
    // keeps its historical meaning: fully portable lanes. This
    // mirrors ci.sh's build-gate cascade (AVX2=OFF forces AVX512=OFF).
    d.avx512 = sha256LanesAvx512Supported() && !env.disableAvx512 &&
               !env.disableAvx2 && !forced &&
               !disable_avx512.load(std::memory_order_relaxed) &&
               !quarantine_avx512.load(std::memory_order_relaxed) &&
               // An AVX2 quarantine demotes to portable outright: the
               // shared vector register file is suspect, so the wider
               // tier of the same unit is no safer.
               !quarantine_avx2.load(std::memory_order_relaxed);
    d.backend = d.avx512   ? LaneBackend::Avx512
                : d.avx2   ? LaneBackend::Avx2
                           : LaneBackend::Scalar;
    // The portable path batches 8 wide so scalar-mode hash shapes (and
    // the compression-count trace) match the historical 8-lane engine.
    d.width = d.avx512 ? 16u : 8u;
    return d;
}

bool
sha256LanesAvx2Active()
{
    return laneDispatch().avx2;
}

bool
sha256LanesAvx512Active()
{
    return laneDispatch().avx512;
}

void
sha256LanesForceScalar(bool force)
{
    force_scalar.store(force, std::memory_order_relaxed);
}

void
sha256LanesDisableAvx512(bool disable)
{
    disable_avx512.store(disable, std::memory_order_relaxed);
}

void
sha256LanesQuarantine(LaneBackend tier)
{
    switch (tier) {
    case LaneBackend::Avx512:
        if (!quarantine_avx512.exchange(true,
                                        std::memory_order_relaxed))
            quarantine_count.fetch_add(1, std::memory_order_relaxed);
        break;
    case LaneBackend::Avx2:
        if (!quarantine_avx2.exchange(true, std::memory_order_relaxed))
            quarantine_count.fetch_add(1, std::memory_order_relaxed);
        break;
    case LaneBackend::Scalar:
        break; // nothing below the portable tier to demote to
    }
}

LaneBackend
sha256LanesQuarantineActiveTier()
{
    const LaneBackend active = laneDispatch().backend;
    sha256LanesQuarantine(active);
    return active;
}

uint64_t
sha256LanesQuarantineCount()
{
    return quarantine_count.load(std::memory_order_relaxed);
}

void
sha256LanesClearQuarantines()
{
    quarantine_avx2.store(false, std::memory_order_relaxed);
    quarantine_avx512.store(false, std::memory_order_relaxed);
}

ScopedScalarLanes::ScopedScalarLanes() : prev_(tl_force_scalar)
{
    tl_force_scalar = true;
}

ScopedScalarLanes::~ScopedScalarLanes()
{
    tl_force_scalar = prev_;
}

bool
ScopedScalarLanes::activeOnThisThread()
{
    return tl_force_scalar;
}

Sha256Lanes::Sha256Lanes(unsigned width)
    : Sha256Lanes(width, Sha256State{initState, 0})
{
}

Sha256Lanes::Sha256Lanes(unsigned width, const Sha256State &state)
    : bufLen_(0), total_(state.bytesCompressed), width_(width)
{
    if (width_ == 0 || width_ > maxLanes)
        throw std::invalid_argument("Sha256Lanes: width must be 1..16");
    if (state.bytesCompressed % blockSize != 0)
        throw std::logic_error("Sha256Lanes: mid-state not block aligned");
    const LaneDispatch d = laneDispatch();
    avx2_ = d.avx2;
    avx512_ = d.avx512;
    for (size_t l = 0; l < width_; ++l)
        h_[l] = state.h;
}

void
Sha256Lanes::compressAll(const uint8_t *const blocks[])
{
    // Greedy widest-first: 16-wide AVX-512 chunks, then 8-wide AVX2
    // chunks, then a scalar tail. Any width works on any backend and
    // every lane's digest is bit-identical regardless of the split.
    unsigned l = 0;
    while (avx512_ && width_ - l >= 16) {
        sha256Compress16Avx512(h_ + l, blocks + l);
        l += 16;
    }
    while (avx2_ && width_ - l >= 8) {
        sha256Compress8Avx2(h_ + l, blocks + l);
        l += 8;
    }
    for (; l < width_; ++l)
        sha256CompressNative(h_[l], blocks[l]);
    // One W-wide step does the work of W scalar compressions; keep
    // the global accounting (tests, cost-model calibration) in sync.
    Sha256::addCompressions(width_);

    // Fault seam: a hash-compress rule flips one bit of one lane's
    // chaining state, modeling a transient ALU fault inside the
    // compression function. Disabled cost: one relaxed load.
    if (FaultInjector::fire(FaultPoint::HashCompress)) {
        FaultInjector &inj = FaultInjector::instance();
        const unsigned lane = inj.laneFor(
            inj.fired(FaultPoint::HashCompress), width_);
        h_[lane][0] ^= 1u;
    }
}

void
Sha256Lanes::compressBuffers()
{
    const uint8_t *blocks[maxLanes];
    for (size_t l = 0; l < width_; ++l)
        blocks[l] = buf_[l];
    compressAll(blocks);
}

void
Sha256Lanes::update(const uint8_t *const data[], size_t len)
{
    if (len == 0)
        return;
    const uint8_t *p[maxLanes];
    for (size_t l = 0; l < width_; ++l)
        p[l] = data[l];

    size_t off = 0;
    total_ += len;
    if (bufLen_ > 0) {
        const size_t take = std::min(blockSize - bufLen_, len);
        for (size_t l = 0; l < width_; ++l)
            std::memcpy(buf_[l] + bufLen_, p[l], take);
        bufLen_ += take;
        off += take;
        if (bufLen_ == blockSize) {
            compressBuffers();
            bufLen_ = 0;
        }
    }
    while (off + blockSize <= len) {
        const uint8_t *blocks[maxLanes];
        for (size_t l = 0; l < width_; ++l)
            blocks[l] = p[l] + off;
        compressAll(blocks);
        off += blockSize;
    }
    if (off < len) {
        for (size_t l = 0; l < width_; ++l)
            std::memcpy(buf_[l], p[l] + off, len - off);
        bufLen_ = len - off;
    }
}

void
Sha256Lanes::final(uint8_t *const out[])
{
    const uint64_t bit_len = total_ * 8;

    // Padding is identical across lanes since lengths are uniform:
    // 0x80, zeros to 56 mod 64, then the 64-bit bit length.
    size_t r = bufLen_;
    for (size_t l = 0; l < width_; ++l)
        buf_[l][r] = 0x80;
    ++r;
    if (r > blockSize - 8) {
        for (size_t l = 0; l < width_; ++l)
            std::memset(buf_[l] + r, 0, blockSize - r);
        compressBuffers();
        r = 0;
    }
    for (size_t l = 0; l < width_; ++l) {
        std::memset(buf_[l] + r, 0, blockSize - 8 - r);
        storeBe64(buf_[l] + blockSize - 8, bit_len);
    }
    compressBuffers();
    bufLen_ = 0;

    for (size_t l = 0; l < width_; ++l)
        for (int i = 0; i < 8; ++i)
            storeBe32(out[l] + 4 * i, h_[l][i]);
}

#ifndef HEROSIGN_HAVE_AVX2
void
sha256Compress8Avx2(std::array<uint32_t, 8>[8], const uint8_t *const[8])
{
    throw std::logic_error(
        "sha256Compress8Avx2: AVX2 backend not compiled in");
}

void
sha256Final8SeededAvx2(const std::array<uint32_t, 8> &,
                       const uint8_t *const[8], uint8_t *const[8])
{
    throw std::logic_error(
        "sha256Final8SeededAvx2: AVX2 backend not compiled in");
}
#endif

#ifndef HEROSIGN_HAVE_AVX512
void
sha256Compress16Avx512(std::array<uint32_t, 8>[16],
                       const uint8_t *const[16])
{
    throw std::logic_error(
        "sha256Compress16Avx512: AVX-512 backend not compiled in");
}

void
sha256Final16SeededAvx512(const std::array<uint32_t, 8> &,
                          const uint8_t *const[16], uint8_t *const[16])
{
    throw std::logic_error(
        "sha256Final16SeededAvx512: AVX-512 backend not compiled in");
}

void
sha256Chain16SeededAvx512(const std::array<uint32_t, 8> &,
                          const uint8_t *const[16], unsigned, unsigned,
                          uint8_t *const[16], const uint32_t[16],
                          uint8_t *const[16])
{
    throw std::logic_error(
        "sha256Chain16SeededAvx512: AVX-512 backend not compiled in");
}
#endif

} // namespace herosign
