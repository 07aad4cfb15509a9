/**
 * @file
 * AVX-512 backend of the lane-parallel SHA-256 engine: 16 lanes per
 * compression. This translation unit is the only one compiled with
 * -mavx512f (see src/hash/CMakeLists.txt), so the rest of the library
 * keeps the baseline ISA and dispatch can always fall back to the
 * AVX2 or portable paths.
 *
 * Layout: fully transposed. Each SHA-256 state word a..h is one
 * `__m512i` whose 32-bit element l belongs to lane l; the 64-entry
 * message schedule is likewise one `__m512i` per round, so schedule
 * expansion and the round function run once for all sixteen lanes.
 * Per-lane 64-byte blocks move into word-per-register layout through
 * four 8x8 32-bit transposes of 256-bit halves stitched together with
 * `_mm512_inserti64x4` (cheaper and simpler than a monolithic 16x16
 * network, and it reuses the proven AVX2 transpose shape). AVX-512F's
 * native rotates (`_mm512_ror_epi32`) and three-input bit logic
 * (`_mm512_ternarylogic_epi32` for Ch/Maj/xor3) shorten the round
 * function relative to the AVX2 kernel.
 *
 * Two entry points mirror the AVX2 backend:
 *  * sha256Compress16Avx512 — generic transposed compression for the
 *    incremental Sha256Lanes engine.
 *  * sha256Final16SeededAvx512 — the fused SPHINCS+ fast path: all
 *    lanes resume from ONE shared mid-state (a broadcast, no state
 *    transpose) and absorb exactly one pre-padded block, the shape of
 *    every batched F/PRF call.
 * A third has no AVX2 counterpart:
 *  * sha256Chain16SeededAvx512 — sixteen WOTS+ chains advanced a whole
 *    segment of F steps with their values kept transposed in
 *    registers; see its definition for what it saves per step.
 */

#ifdef HEROSIGN_HAVE_AVX512

#include <immintrin.h>

#include <cstring>

// GCC implements the AVX-512 cast/extract intrinsics on top of
// _mm256_undefined_si256(), which GCC 12 flags as used-uninitialized
// under -Werror (PR105593). The uninitialized upper half is by design
// — it is immediately overwritten — so silence the false positive for
// this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "hash/sha256_tables.hh"
#include "hash/sha256xN.hh"

namespace herosign
{

namespace
{

using sha256tables::K;

/** x ^ y ^ z in one ternary-logic op (truth table 0x96). */
inline __m512i
xor3(__m512i x, __m512i y, __m512i z)
{
    return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

inline __m512i
sigma0(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 7), _mm512_ror_epi32(x, 18),
                _mm512_srli_epi32(x, 3));
}

inline __m512i
sigma1(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 17), _mm512_ror_epi32(x, 19),
                _mm512_srli_epi32(x, 10));
}

inline __m512i
bigSigma0(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 2), _mm512_ror_epi32(x, 13),
                _mm512_ror_epi32(x, 22));
}

inline __m512i
bigSigma1(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 6), _mm512_ror_epi32(x, 11),
                _mm512_ror_epi32(x, 25));
}

/** (e & f) ^ (~e & g): truth table 0xCA. */
inline __m512i
ch(__m512i e, __m512i f, __m512i g)
{
    return _mm512_ternarylogic_epi32(e, f, g, 0xCA);
}

/** Majority of three: truth table 0xE8. */
inline __m512i
maj(__m512i a, __m512i b, __m512i c)
{
    return _mm512_ternarylogic_epi32(a, b, c, 0xE8);
}

/** Byte-swap each 32-bit element of a 256-bit half (AVX2, available
 * under -mavx512f's implied ISA set). */
inline __m256i
bswap32Half(__m256i x)
{
    const __m256i mask = _mm256_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13,
        14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
    return _mm256_shuffle_epi8(x, mask);
}

/**
 * In-place 8x8 32-bit transpose of 256-bit rows — the same
 * self-inverse network the AVX2 backend uses.
 */
inline void
transpose8x8Half(__m256i r[8])
{
    __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);

    __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
    __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    __m256i u7 = _mm256_unpackhi_epi64(t5, t7);

    r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/**
 * Load 8 consecutive 32-bit words from lanes [lane0, lane0+8) at byte
 * offset @p off, byteswapped to big-endian and transposed so half[i]
 * holds word (off/4 + i) of those eight lanes.
 */
inline void
loadTransposedHalf(__m256i half[8], const uint8_t *const blocks[16],
                   unsigned lane0, size_t off)
{
    for (int l = 0; l < 8; ++l) {
        half[l] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            blocks[lane0 + l] + off));
        half[l] = bswap32Half(half[l]);
    }
    transpose8x8Half(half);
}

/**
 * Fill w[0..15] with the transposed message block of all 16 lanes:
 * w[i] element l = big-endian word i of lane l's 64-byte block.
 */
inline void
loadMessage16(__m512i w[16], const uint8_t *const blocks[16])
{
    // Quadrants: (lane half, word half) -> four 8x8 transposes.
    __m256i q[4][8];
    loadTransposedHalf(q[0], blocks, 0, 0);  // lanes 0-7,  words 0-7
    loadTransposedHalf(q[1], blocks, 8, 0);  // lanes 8-15, words 0-7
    loadTransposedHalf(q[2], blocks, 0, 32); // lanes 0-7,  words 8-15
    loadTransposedHalf(q[3], blocks, 8, 32); // lanes 8-15, words 8-15
    for (int i = 0; i < 8; ++i) {
        w[i] = _mm512_inserti64x4(_mm512_castsi256_si512(q[0][i]),
                                  q[1][i], 1);
        w[8 + i] = _mm512_inserti64x4(_mm512_castsi256_si512(q[2][i]),
                                      q[3][i], 1);
    }
}

/** Expand message words w[16..63] from the block words w[0..15]. */
inline void
expandSchedule(__m512i w[64])
{
    for (int i = 16; i < 64; ++i) {
        w[i] = _mm512_add_epi32(
            _mm512_add_epi32(w[i - 16], sigma0(w[i - 15])),
            _mm512_add_epi32(w[i - 7], sigma1(w[i - 2])));
    }
}

/**
 * Run rounds [first, last) on the working variables v = {a..h}, in
 * place; no feed-forward.
 */
inline void
roundRange(__m512i v[8], const __m512i w[64], int first, int last)
{
    __m512i a = v[0], b = v[1], c = v[2], d = v[3];
    __m512i e = v[4], f = v[5], g = v[6], h = v[7];

    for (int i = first; i < last; ++i) {
        __m512i t1 = _mm512_add_epi32(
            _mm512_add_epi32(
                _mm512_add_epi32(h, bigSigma1(e)),
                _mm512_add_epi32(
                    ch(e, f, g),
                    _mm512_set1_epi32(static_cast<int>(K[i])))),
            w[i]);
        __m512i t2 = _mm512_add_epi32(bigSigma0(a), maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = _mm512_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm512_add_epi32(t1, t2);
    }

    v[0] = a;
    v[1] = b;
    v[2] = c;
    v[3] = d;
    v[4] = e;
    v[5] = f;
    v[6] = g;
    v[7] = h;
}

/** Expand the schedule and run the 64 rounds; s is updated in place. */
inline void
rounds16(__m512i s[8], __m512i w[64])
{
    expandSchedule(w);
    __m512i v[8];
    for (int i = 0; i < 8; ++i)
        v[i] = s[i];
    roundRange(v, w, 0, 64);
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_add_epi32(s[i], v[i]);
}

/**
 * Per-lane states (16 rows of 8 words) -> word-per-register: s[i]
 * element l = state[l][i]. Two 8x8 half transposes per half of the
 * lanes, stitched with inserti64x4.
 */
inline void
loadStates16(__m512i s[8], const std::array<uint32_t, 8> state[16])
{
    __m256i lo[8], hi[8];
    for (int l = 0; l < 8; ++l) {
        lo[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(state[l].data()));
        hi[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(state[8 + l].data()));
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_inserti64x4(_mm512_castsi256_si512(lo[i]), hi[i],
                                  1);
}

/**
 * Word-per-register state -> 32 big-endian digest bytes per lane at
 * digests[l].
 */
inline void
storeDigests16(uint8_t *const digests[16], const __m512i s[8])
{
    __m256i lo[8], hi[8];
    for (int i = 0; i < 8; ++i) {
        lo[i] = _mm512_castsi512_si256(s[i]);
        hi[i] = _mm512_extracti64x4_epi64(s[i], 1);
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(digests[l]),
                            bswap32Half(lo[l]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(digests[8 + l]),
            bswap32Half(hi[l]));
    }
}

/** Inverse of loadStates16. */
inline void
storeStates16(std::array<uint32_t, 8> state[16], const __m512i s[8])
{
    __m256i lo[8], hi[8];
    for (int i = 0; i < 8; ++i) {
        lo[i] = _mm512_castsi512_si256(s[i]);
        hi[i] = _mm512_extracti64x4_epi64(s[i], 1);
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(state[l].data()), lo[l]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(state[8 + l].data()), hi[l]);
    }
}

} // namespace

void
sha256Compress16Avx512(std::array<uint32_t, 8> state[16],
                       const uint8_t *const blocks[16])
{
    __m512i w[64];
    loadMessage16(w, blocks);

    __m512i s[8];
    loadStates16(s, state);

    rounds16(s, w);

    storeStates16(state, s);
}

void
sha256Final16SeededAvx512(const std::array<uint32_t, 8> &mid,
                          const uint8_t *const blocks[16],
                          uint8_t *const digests[16])
{
    __m512i w[64];
    loadMessage16(w, blocks);

    // All lanes resume from the same chaining state: a broadcast per
    // word, no transpose.
    __m512i s[8];
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_set1_epi32(static_cast<int>(mid[i]));

    rounds16(s, w);
    storeDigests16(digests, s);
}

/**
 * The WOTS+ chain kernel. Per call it loads and transposes the 16
 * first-step blocks once and runs rounds 0-4 once: block words 0-4
 * (layer, tree, type, keypair, chain and the hash field's high half)
 * are the same for every step of a chain, so the state after round 4
 * is too. Per step it rebuilds only block word 5 onwards in
 * registers: word 5 is the hash field's low half (bumped by one per
 * step) above the value's first two bytes, and each later word is
 * the previous digest funnel-shifted by 16 bits, because the value
 * starts 2 bytes into word 5. Byte masks put the 0x80 pad after the
 * n-th value byte and keep the words beyond it zero, so any n fits
 * one code path. The value leaves the registers once, at the end;
 * captures are blended in per step under a lane mask.
 */
void
sha256Chain16SeededAvx512(const std::array<uint32_t, 8> &mid,
                          const uint8_t *const blocks[16], unsigned n,
                          unsigned steps, uint8_t *const out[16],
                          const uint32_t cap_step[16],
                          uint8_t *const cap[16])
{
    // Block words 5..13 can hold value bytes (n <= 32): 22 bytes of
    // compressed address, then n bytes of value, then the pad byte.
    constexpr int firstWord = 5, numWords = 9;
    constexpr unsigned valueOffset = 22;
    const unsigned pad_at = valueOffset + n;

    __m512i w[64];
    loadMessage16(w, blocks);

    __m512i midv[8], head[8];
    for (int i = 0; i < 8; ++i)
        midv[i] = head[i] = _mm512_set1_epi32(static_cast<int>(mid[i]));
    roundRange(head, w, 0, firstWord);

    // Word 5 + j has r bytes (hash or value) ahead of the pad byte:
    // r >= 4 keeps the whole word, r <= 0 none of it.
    __m512i keep[numWords], pad[numWords];
    for (int j = 0; j < numWords; ++j) {
        const int r = static_cast<int>(pad_at) - 4 * (firstWord + j);
        const uint32_t m = r >= 4   ? ~0u
                           : r <= 0 ? 0u
                                    : ~0u << (32 - 8 * r);
        const uint32_t p = r >= 0 && r < 4 ? 0x80u << (24 - 8 * r) : 0u;
        keep[j] = _mm512_set1_epi32(static_cast<int>(m));
        pad[j] = _mm512_set1_epi32(static_cast<int>(p));
    }

    __m512i hash = _mm512_srli_epi32(w[firstWord], 16);
    const __m512i capv =
        cap_step ? _mm512_loadu_si512(cap_step) : _mm512_setzero_si512();
    __m512i d[8], captured[8];
    for (int i = 0; i < 8; ++i)
        captured[i] = _mm512_setzero_si512();

    for (unsigned step = 1;; ++step) {
        expandSchedule(w);
        __m512i v[8];
        for (int i = 0; i < 8; ++i)
            v[i] = head[i];
        roundRange(v, w, firstWord, 64);
        for (int i = 0; i < 8; ++i)
            d[i] = _mm512_add_epi32(midv[i], v[i]);

        if (cap_step) {
            const __mmask16 hit = _mm512_cmpeq_epi32_mask(
                capv, _mm512_set1_epi32(static_cast<int>(step)));
            for (int i = 0; i < 8; ++i)
                captured[i] = _mm512_mask_mov_epi32(captured[i], hit, d[i]);
        }
        if (step == steps)
            break;

        // Next block: (hash low half << 16 | d0 >> 16), then
        // (d[j-1] << 16 | d[j] >> 16), each masked to the value bytes
        // with the pad byte ORed in. (A | B) & C is truth table 0xA8.
        hash = _mm512_add_epi32(hash, _mm512_set1_epi32(1));
        for (int j = 0; j < numWords; ++j) {
            const __m512i hi = j == 0 ? hash : d[j - 1];
            const __m512i lo = j < 8 ? d[j] : _mm512_setzero_si512();
            w[firstWord + j] = _mm512_or_si512(
                _mm512_ternarylogic_epi32(_mm512_slli_epi32(hi, 16),
                                          _mm512_srli_epi32(lo, 16),
                                          keep[j], 0xA8),
                pad[j]);
        }
    }

    alignas(64) uint8_t buf[16][32];
    uint8_t *bptrs[16];
    for (int l = 0; l < 16; ++l)
        bptrs[l] = buf[l];
    storeDigests16(bptrs, d);
    for (int l = 0; l < 16; ++l)
        std::memcpy(out[l], buf[l], n);
    if (cap_step) {
        storeDigests16(bptrs, captured);
        for (int l = 0; l < 16; ++l)
            if (cap_step[l] != 0)
                std::memcpy(cap[l], buf[l], n);
    }
}

} // namespace herosign

#endif // HEROSIGN_HAVE_AVX512
