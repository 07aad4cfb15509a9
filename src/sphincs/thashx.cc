#include "sphincs/thashx.hh"

#include <stdexcept>

#include "common/fault.hh"

namespace herosign::sphincs
{

namespace
{

/**
 * Largest data length that still fits one padded SHA-256 block
 * (64 - 1 pad byte - 8 length bytes).
 */
constexpr size_t oneBlockMax = Sha256::blockSize - 9;

/** Lane count of the AVX-512 chain kernel. */
constexpr unsigned chainKernelLanes = 16;

/**
 * Write lane l's padded single block adrs_c || in[l] of a call resumed
 * from @p mid into blocks[l] and point bptrs[l] at it, for l < count.
 * Cache-line aligned blocks: the SIMD kernels load each one as whole
 * vectors, so keep every 64-byte block on one line.
 */
void
fillOneBlocks(uint8_t (*blocks)[Sha256::blockSize], const uint8_t *bptrs[],
              const Sha256State &mid, const Address adrs[],
              const uint8_t *const in[], size_t in_len, unsigned count)
{
    const size_t data_len = Address::compressedSize + in_len;
    const uint64_t bit_len = (mid.bytesCompressed + data_len) * 8;
    for (unsigned l = 0; l < count; ++l) {
        const auto adrs_c = adrs[l].compressed();
        std::memcpy(blocks[l], adrs_c.data(), Address::compressedSize);
        std::memcpy(blocks[l] + Address::compressedSize, in[l], in_len);
        blocks[l][data_len] = 0x80;
        std::memset(blocks[l] + data_len + 1, 0,
                    Sha256::blockSize - 9 - data_len);
        storeBe64(blocks[l] + Sha256::blockSize - 8, bit_len);
        bptrs[l] = blocks[l];
    }
}

/**
 * Fused single-block batch: every hot batched call (PRF, FORS leaf,
 * and a WOTS+ chain step off the chain kernel) hashes adrs_c || input
 * of 22 + n <= 54 bytes on top of the per-keypair mid-state — exactly
 * one padded compression per lane. Building the padded blocks
 * directly and running the widest compressions available skips the
 * incremental engine entirely; the SIMD kernels additionally
 * broadcast the shared mid-state instead of transposing per-lane
 * copies of it. The batch is consumed greedily: 16-wide AVX-512
 * chunks, then 8-wide AVX2 chunks, then scalar lanes — digests and
 * compression counts are identical for every split.
 */
void
thashXOneBlock(uint8_t *const out[], const Context &ctx,
               const Address adrs[], const uint8_t *const in[],
               size_t in_len, unsigned count)
{
    const unsigned n = ctx.params().n;
    const Sha256State &mid = ctx.seededState();

    alignas(64) uint8_t blocks[maxHashLanes][Sha256::blockSize];
    const uint8_t *bptrs[maxHashLanes];
    fillOneBlocks(blocks, bptrs, mid, adrs, in, in_len, count);

    const LaneDispatch d = laneDispatch();
    uint8_t digests[maxHashLanes][Sha256::digestSize];
    uint8_t *dptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l)
        dptrs[l] = digests[l];

    unsigned l = 0;
    while (d.avx512 && count - l >= 16) {
        sha256Final16SeededAvx512(mid.h, bptrs + l, dptrs + l);
        l += 16;
    }
    while (d.avx2 && count - l >= 8) {
        sha256Final8SeededAvx2(mid.h, bptrs + l, dptrs + l);
        l += 8;
    }
    // Fault seam: a simd-lane rule corrupts one digest produced by
    // the SIMD kernels above — never a scalar-tail lane, so a
    // forced-scalar (or quarantined) path is immune by construction
    // and the verify-after-sign guard's re-sign converges.
    if (l > 0 && FaultInjector::fire(FaultPoint::SimdLane)) {
        FaultInjector &inj = FaultInjector::instance();
        const unsigned victim =
            inj.laneFor(inj.fired(FaultPoint::SimdLane), l);
        digests[victim][0] ^= 1u;
    }
    for (; l < count; ++l) {
        std::array<uint32_t, 8> h = mid.h;
        sha256CompressNative(h, blocks[l]);
        for (int i = 0; i < 8; ++i)
            storeBe32(digests[l] + 4 * i, h[i]);
    }
    for (unsigned j = 0; j < count; ++j)
        std::memcpy(out[j], digests[j], n);
    Sha256::addCompressions(count);
}

} // namespace

void
thashX(uint8_t *const out[], const Context &ctx, const Address adrs[],
       const uint8_t *const in[], size_t in_len, unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("thashX: count must be 1..16");
    const unsigned n = ctx.params().n;

    if (Address::compressedSize + in_len <= oneBlockMax) {
        thashXOneBlock(out, ctx, adrs, in, in_len, count);
        return;
    }

    // Long inputs (e.g. the T_len public-key compression of a whole
    // leaf's chains): the incremental lane engine at exactly the
    // batch's width — it picks the widest kernels internally.
    Sha256Lanes hasher(count, ctx.seededState());

    std::array<uint8_t, Address::compressedSize> adrs_c[maxHashLanes];
    const uint8_t *ptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        adrs_c[l] = adrs[l].compressed();
        ptrs[l] = adrs_c[l].data();
    }
    hasher.update(ptrs, Address::compressedSize);
    hasher.update(in, in_len);

    uint8_t digests[maxHashLanes][Sha256::digestSize];
    uint8_t *dptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l)
        dptrs[l] = digests[l];
    hasher.final(dptrs);
    for (unsigned l = 0; l < count; ++l)
        std::memcpy(out[l], digests[l], n);
}

void
thashChainX(uint8_t *const vals[], const Context &ctx,
            const Address adrs[], const uint32_t start[], uint32_t steps,
            unsigned count, uint8_t *const cap_out[],
            const uint32_t cap_pos[])
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("thashChainX: count must be 1..16");
    const Params &p = ctx.params();
    for (unsigned l = 0; l < count; ++l) {
        if (start[l] > p.wotsW - 1 || steps > p.wotsW - 1 - start[l])
            throw std::invalid_argument(
                "thashChainX: chain runs past w - 1");
    }
    if (steps == 0)
        return;
    const unsigned n = p.n;
    const Sha256State &mid = ctx.seededState();

    if (count == chainKernelLanes && laneDispatch().avx512) {
        alignas(64) uint8_t blocks[chainKernelLanes][Sha256::blockSize];
        const uint8_t *bptrs[chainKernelLanes];
        fillOneBlocks(blocks, bptrs, mid, adrs, vals, n, count);
        uint32_t cap_step[chainKernelLanes] = {};
        bool capture = false;
        for (unsigned l = 0; l < count; ++l) {
            // The hash field is the compressed address's last word.
            storeBe32(blocks[l] + Address::compressedSize - 4, start[l]);
            if (cap_out && cap_out[l] && cap_pos[l] > start[l] &&
                cap_pos[l] - start[l] <= steps) {
                cap_step[l] = cap_pos[l] - start[l];
                capture = true;
            }
        }
        sha256Chain16SeededAvx512(mid.h, bptrs, n, steps, vals,
                                  capture ? cap_step : nullptr, cap_out);
        // Fault seam: once per kernel call, one lane's output is
        // flipped — the whole segment counts as one SIMD-produced
        // result, as one fused one-block call does below.
        if (FaultInjector::fire(FaultPoint::SimdLane)) {
            FaultInjector &inj = FaultInjector::instance();
            vals[inj.laneFor(inj.fired(FaultPoint::SimdLane), count)][0] ^=
                1u;
        }
        Sha256::addCompressions(static_cast<uint64_t>(count) * steps);
        return;
    }

    // Every other tier and partial group: the same segment as one
    // fused one-block call per step.
    Address lane_adrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        lane_adrs[l] = adrs[l];
        lane_adrs[l].setHash(start[l]);
    }
    for (uint32_t s = 1; s <= steps; ++s) {
        thashXOneBlock(vals, ctx, lane_adrs, vals, n, count);
        for (unsigned l = 0; l < count; ++l) {
            lane_adrs[l].setHash(start[l] + s);
            if (cap_out && cap_out[l] && cap_pos[l] == start[l] + s)
                std::memcpy(cap_out[l], vals[l], n);
        }
    }
}

void
prfAddrX(uint8_t *const out[], const Context &ctx, const Address adrs[],
         unsigned count)
{
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l)
        ins[l] = ctx.skSeed().data();
    thashX(out, ctx, adrs, ins, ctx.params().n, count);
}

} // namespace herosign::sphincs
