#include "sphincs/wots.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

namespace herosign::sphincs
{

namespace
{

/**
 * Split @p in into consecutive lgW-bit digits, MSB first.
 */
void
baseW(uint32_t *out, size_t out_len, const uint8_t *in, unsigned lg_w)
{
    size_t in_idx = 0;
    unsigned bits = 0;
    uint8_t total = 0;
    for (size_t i = 0; i < out_len; ++i) {
        if (bits == 0) {
            total = in[in_idx++];
            bits = 8;
        }
        bits -= lg_w;
        out[i] = (total >> bits) & ((1u << lg_w) - 1);
    }
}

/**
 * Upper bound on chains advanced together: maxHashLanes leaves of len
 * chains.
 */
constexpr unsigned maxBatchChains = maxHashLanes * maxWotsLen;

/**
 * Advance @p num independent WOTS+ chains in lane groups of the
 * dispatched width W (hashLaneWidth(): 16 on AVX-512, 8 elsewhere).
 * Chain c steps its value vals[c] (n bytes, in place) from position
 * pos[c] to end[c]; adrs[c] must have layer/tree/type/keypair/chain
 * set (thashChainX sets the hash position). Each group of up to W
 * chains advances one segment — the fewest steps any of them has
 * left — in one thashChainX call; then finished chains retire and
 * pending ones refill their lanes, so lanes stay full while at least
 * W chains remain. Digests and compression counts are those of the
 * scalar path.
 *
 * When @p cap_out is non-null, chain c with cap_out[c] set copies its
 * value to cap_out[c] the moment its position reaches cap_pos[c]
 * (including a position already at the capture point on entry). The
 * chain keeps advancing to end[c] afterwards — this is how a signing
 * leaf's wotsSign() bytes fall out of its pk-generation walk.
 */
void
advanceChains(uint8_t *const vals[], const Address adrs[], uint32_t pos[],
              const uint32_t end[], unsigned num, const Context &ctx,
              uint8_t *const cap_out[] = nullptr,
              const uint32_t cap_pos[] = nullptr)
{
    const unsigned n = ctx.params().n;
    unsigned active[maxBatchChains];
    unsigned nactive = 0;
    for (unsigned c = 0; c < num; ++c) {
        if (cap_out && cap_out[c] && pos[c] == cap_pos[c])
            std::memcpy(cap_out[c], vals[c], n);
        if (pos[c] < end[c])
            active[nactive++] = c;
    }

    const unsigned width = hashLaneWidth();
    uint8_t *lane_vals[maxHashLanes];
    Address lane_adrs[maxHashLanes];
    uint32_t lane_pos[maxHashLanes];
    uint8_t *lane_cap[maxHashLanes];
    uint32_t lane_cap_pos[maxHashLanes];
    while (nactive > 0) {
        const unsigned m = std::min(nactive, width);
        uint32_t steps = end[active[0]] - pos[active[0]];
        for (unsigned j = 0; j < m; ++j) {
            const unsigned c = active[j];
            steps = std::min(steps, end[c] - pos[c]);
            lane_vals[j] = vals[c];
            lane_adrs[j] = adrs[c];
            lane_pos[j] = pos[c];
            lane_cap[j] = cap_out ? cap_out[c] : nullptr;
            lane_cap_pos[j] = cap_out ? cap_pos[c] : 0;
        }
        thashChainX(lane_vals, ctx, lane_adrs, lane_pos, steps, m,
                    cap_out ? lane_cap : nullptr, lane_cap_pos);

        // Retire finished lanes, compacting survivors to the front so
        // pending chains slot in next segment.
        unsigned w = 0;
        for (unsigned j = 0; j < m; ++j) {
            const unsigned c = active[j];
            pos[c] += steps;
            if (pos[c] < end[c])
                active[w++] = c;
        }
        for (unsigned j = m; j < nactive; ++j)
            active[w++] = active[j];
        nactive = w;
    }
}

/**
 * Derive the secret chain-start values for chains [0, num) described
 * by @p adrs (WOTS_PRF addresses, hash position 0), one dispatched
 * lane width per PRF batch, into vals[c].
 */
void
deriveChainSks(uint8_t *const vals[], const Address adrs[], unsigned num,
               const Context &ctx)
{
    const unsigned width = hashLaneWidth();
    uint8_t *outs[maxHashLanes];
    Address lane_adrs[maxHashLanes];
    for (unsigned g = 0; g < num; g += width) {
        const unsigned m = std::min(width, num - g);
        for (unsigned j = 0; j < m; ++j) {
            lane_adrs[j] = adrs[g + j];
            outs[j] = vals[g + j];
        }
        prfAddrX(outs, ctx, lane_adrs, m);
    }
}

} // namespace

void
chainLengths(uint32_t *lengths, const Params &params, const uint8_t *msg)
{
    const unsigned lg_w = params.lgW();
    const unsigned len1 = params.wotsLen1();
    const unsigned len2 = params.wotsLen2();

    baseW(lengths, len1, msg, lg_w);

    // Checksum over the message digits.
    uint32_t csum = 0;
    for (unsigned i = 0; i < len1; ++i)
        csum += params.wotsW - 1 - lengths[i];

    // Left-shift so the checksum occupies whole base-w digits from the
    // most significant bit of its byte string.
    csum <<= (8 - (len2 * lg_w) % 8) % 8;
    uint8_t csum_bytes[8];
    const size_t csum_len = (len2 * lg_w + 7) / 8;
    toByte(csum_bytes, csum, csum_len);
    baseW(lengths + len1, len2, csum_bytes, lg_w);
}

void
genChain(uint8_t *out, const uint8_t *in, uint32_t start, uint32_t steps,
         const Context &ctx, Address &adrs)
{
    const unsigned n = ctx.params().n;
    if (out != in)
        std::memcpy(out, in, n);
    for (uint32_t i = start; i < start + steps; ++i) {
        adrs.setHash(i);
        thashF(out, ctx, adrs, out);
    }
}

void
wotsChainSk(uint8_t *out, const Context &ctx, Address &adrs,
            uint32_t chain)
{
    adrs.setChain(chain);
    adrs.setHash(0);
    prfAddr(out, ctx, adrs);
}

void
wotsLeafBatch(const Context &ctx, const WotsLeafReq reqs[],
              unsigned count)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;

    // Chain c (= local leaf * len + i) lives at chains + c * n, so
    // each leaf's chains stay contiguous for its T_len compression.
    uint8_t chains[maxBatchChains * maxN];
    uint8_t *vals[maxBatchChains] = {};
    Address adrs[maxBatchChains];
    uint32_t pos[maxBatchChains];
    uint32_t end[maxBatchChains];
    uint8_t *cap_out[maxBatchChains];
    uint32_t cap_pos[maxBatchChains];

    for (unsigned base = 0; base < count; base += maxHashLanes) {
        const unsigned m = std::min(maxHashLanes, count - base);
        const unsigned total = m * len;
        bool any_capture = false;

        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            Address prf_base;
            prf_base.setLayer(r.layer);
            prf_base.setTree(r.tree);
            prf_base.setType(AddrType::WotsPrf);
            prf_base.setKeypair(r.keypair);
            for (unsigned i = 0; i < len; ++i) {
                const unsigned c = j * len + i;
                vals[c] = chains + static_cast<size_t>(c) * n;
                adrs[c] = prf_base;
                adrs[c].setChain(i);
                adrs[c].setHash(0);
                if (r.sigOut) {
                    any_capture = true;
                    cap_out[c] = r.sigOut + static_cast<size_t>(i) * n;
                    cap_pos[c] = r.lengths[i];
                } else {
                    cap_out[c] = nullptr;
                    cap_pos[c] = 0;
                }
            }
        }
        deriveChainSks(vals, adrs, total, ctx);

        // All m * len chains advance the full w-1 steps, one segment
        // per lane group; capture chains copy out their signature
        // value in passing.
        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            Address hash_base;
            hash_base.setLayer(r.layer);
            hash_base.setTree(r.tree);
            hash_base.setType(AddrType::WotsHash);
            hash_base.setKeypair(r.keypair);
            for (unsigned i = 0; i < len; ++i) {
                const unsigned c = j * len + i;
                adrs[c] = hash_base;
                adrs[c].setChain(i);
                pos[c] = 0;
                end[c] = p.wotsW - 1;
            }
        }
        advanceChains(vals, adrs, pos, end, total, ctx,
                      any_capture ? cap_out : nullptr,
                      any_capture ? cap_pos : nullptr);

        // Compress each leaf's public key, batched across leaves.
        Address pk_adrs[maxHashLanes];
        uint8_t *pks[maxHashLanes];
        const uint8_t *ins[maxHashLanes];
        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            pk_adrs[j].setLayer(r.layer);
            pk_adrs[j].setTree(r.tree);
            pk_adrs[j].setType(AddrType::WotsPk);
            pk_adrs[j].setKeypair(r.keypair);
            pks[j] = r.leafOut;
            ins[j] = chains + static_cast<size_t>(j) * len * n;
        }
        thashX(pks, ctx, pk_adrs, ins, static_cast<size_t>(len) * n, m);
    }
}

void
wotsSign(uint8_t *sig, const uint8_t *msg, const Context &ctx,
         const Address &leaf_adrs)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;

    uint32_t lengths[maxWotsLen];
    chainLengths(lengths, p, msg);

    uint8_t *vals[maxWotsLen] = {};
    Address adrs[maxWotsLen];
    uint32_t pos[maxWotsLen];

    Address prf_base = leaf_adrs;
    prf_base.setType(AddrType::WotsPrf);
    prf_base.setKeypair(leaf_adrs.keypair());
    for (unsigned i = 0; i < len; ++i) {
        vals[i] = sig + static_cast<size_t>(i) * n;
        adrs[i] = prf_base;
        adrs[i].setChain(i);
        adrs[i].setHash(0);
    }
    deriveChainSks(vals, adrs, len, ctx);

    // Ragged chain lengths: segments end as chains finish, and lanes
    // refill.
    Address hash_base = leaf_adrs;
    hash_base.setType(AddrType::WotsHash);
    hash_base.setKeypair(leaf_adrs.keypair());
    for (unsigned i = 0; i < len; ++i) {
        adrs[i] = hash_base;
        adrs[i].setChain(i);
        pos[i] = 0;
    }
    advanceChains(vals, adrs, pos, lengths, len, ctx);
}

void
wotsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                const uint8_t *const msg[], const Context &ctx,
                const Address leaf_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "wotsPkFromSigXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;
    const unsigned total = count * len;

    // Chain c (= lane * len + i) lives at chains + c * n, so each
    // lane's recomputed chain heads stay contiguous for its T_len
    // compression.
    uint8_t chains[maxBatchChains * maxN];
    uint8_t *vals[maxBatchChains] = {};
    Address adrs[maxBatchChains];
    uint32_t pos[maxBatchChains];
    uint32_t end[maxBatchChains];

    for (unsigned l = 0; l < count; ++l) {
        uint32_t lengths[maxWotsLen];
        chainLengths(lengths, p, msg[l]);
        std::memcpy(chains + static_cast<size_t>(l) * len * n, sig[l],
                    static_cast<size_t>(len) * n);

        Address hash_base = leaf_adrs[l];
        hash_base.setType(AddrType::WotsHash);
        hash_base.setKeypair(leaf_adrs[l].keypair());
        for (unsigned i = 0; i < len; ++i) {
            const unsigned c = l * len + i;
            vals[c] = chains + static_cast<size_t>(c) * n;
            adrs[c] = hash_base;
            adrs[c].setChain(i);
            pos[c] = lengths[i];
            end[c] = p.wotsW - 1;
        }
    }
    advanceChains(vals, adrs, pos, end, total, ctx);

    // One T_len public-key compression per lane, batched.
    Address pk_adrs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        pk_adrs[l] = leaf_adrs[l];
        pk_adrs[l].setType(AddrType::WotsPk);
        pk_adrs[l].setKeypair(leaf_adrs[l].keypair());
        ins[l] = chains + static_cast<size_t>(l) * len * n;
    }
    thashX(pk_out, ctx, pk_adrs, ins, static_cast<size_t>(len) * n,
           count);
}

} // namespace herosign::sphincs
