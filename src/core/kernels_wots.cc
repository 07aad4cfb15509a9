#include <cstring>

#include "core/kernels.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

namespace herosign::core
{

using sphincs::Address;
using sphincs::AddrType;
using sphincs::maxN;
using sphincs::maxWotsLen;

namespace
{

template <typename Fn>
void
charged(gpu::BlockContext &blk, unsigned tid, Fn &&fn)
{
    const uint64_t before = Sha256::compressionCount();
    fn();
    blk.chargeHash(tid, Sha256::compressionCount() - before);
}

} // namespace

WotsSignKernel::WotsSignKernel(MessageJob &job, bool full_chains,
                               bool shift_math, const MemPolicy &mem)
    : job_(job), fullChains_(full_chains), shiftMath_(shift_math),
      mem_(mem)
{
}

unsigned
WotsSignKernel::blockThreads() const
{
    const sphincs::Params &p = job_.ctx->params();
    const unsigned chains = p.layers * p.wotsLen();
    const unsigned rounded = ((chains + 31) / 32) * 32;
    return std::min(1024u, rounded);
}

void
WotsSignKernel::run(unsigned phase, gpu::BlockContext &blk, unsigned tid)
{
    (void)phase;
    const sphincs::Params &p = job_.ctx->params();
    const sphincs::Context &ctx = *job_.ctx;
    const unsigned n = p.n;
    const unsigned len = p.wotsLen();
    const unsigned chains = p.layers * len;
    const unsigned threads = blockThreads();

    const double math_cycles =
        shiftMath_ ? chainMathCyclesShift : chainMathCyclesDivMod;

    for (unsigned c = tid; c < chains; c += threads) {
        const unsigned layer = c / len;
        const unsigned chain = c % len;

        // Read the n-byte message this layer signs (FORS pk or the
        // subtree root below).
        const uint8_t *msg =
            job_.wotsMessages.data() + static_cast<size_t>(layer) * n;
        blk.chargeGlobal(tid, n);

        // Chain length for this digit. Checksum digits require the
        // sum over all len1 message digits.
        uint32_t lengths[maxWotsLen];
        sphincs::chainLengths(lengths, p, msg);
        const unsigned digit_work =
            chain < p.wotsLen1() ? 1 : p.wotsLen1();
        blk.chargeCycles(tid, math_cycles * digit_work);

        Address adrs;
        adrs.setLayer(layer);
        adrs.setTree(job_.layerTree[layer]);
        adrs.setType(AddrType::WotsPrf);
        adrs.setKeypair(job_.layerLeaf[layer]);

        uint8_t sk[maxN];
        charged(blk, tid, [&] {
            sphincs::wotsChainSk(sk, ctx, adrs, chain);
        });
        mem_.chargeSeedRead(blk, tid, 2ull * n);

        Address hash_adrs;
        hash_adrs.setLayer(layer);
        hash_adrs.setTree(job_.layerTree[layer]);
        hash_adrs.setType(AddrType::WotsHash);
        hash_adrs.setKeypair(job_.layerLeaf[layer]);
        hash_adrs.setChain(chain);

        uint8_t *out = job_.wotsSigs.data() +
                       (static_cast<size_t>(layer) * len + chain) * n;
        charged(blk, tid, [&] {
            sphincs::genChain(out, sk, 0, lengths[chain], ctx,
                              hash_adrs);
        });
        blk.chargeCycles(tid, math_cycles * lengths[chain]);
        blk.chargeGlobal(tid, n);

        if (fullChains_) {
            // TCAS walks every chain to w-1 and selects afterwards;
            // charge the surplus steps (one compression each).
            const unsigned surplus = p.wotsW - 1 - lengths[chain];
            blk.chargeHash(tid, surplus);
            blk.chargeCycles(tid, math_cycles * surplus);
        }
    }
}

} // namespace herosign::core
