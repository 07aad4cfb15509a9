#include "layers.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "batch/lane_scheduler.hh"
#include "hash/sha256xN.hh"
#include "sphincs/address.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

namespace perfbench
{

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

/// Latency samples per chunk of the end-to-end percentiles.
constexpr size_t kLatencyChunk = 1000;
/// Signatures decomposed call by call.
constexpr size_t kLayerSample = 16;
/// LaneScheduler groups of preferredGroup() requests re-signed.
constexpr unsigned kGroups = 2;
/// verifyBatch calls of one full lane group each.
constexpr unsigned kVerifyBatches = 4;
/// Hash-kernel timing: repetitions of one ~100 ms chunk each.
constexpr unsigned kKernelReps = 9;
constexpr auto kKernelChunk = std::chrono::milliseconds(100);
/// Kernel calls between clock reads.
constexpr unsigned kKernelInner = 64;
/// One-block input: 55 bytes plus padding fill exactly one block.
constexpr size_t kOneBlock = 55;

double
require(std::optional<double> v, const char *what)
{
    if (!v)
        throw std::runtime_error(
            std::string(what) +
            ": too few samples (a p99 needs ten beyond it); "
            "raise --seconds");
    return *v;
}

double
medianOf(std::vector<double> v, const char *what)
{
    return require(median(std::move(v)), what);
}

/**
 * Mcomp/s of @p fn: the median over kKernelReps chunks, each one span
 * whose compression delta and duration give the rate.
 */
double
kernelRate(Tracer &t, const char *name, const std::function<void()> &fn)
{
    std::vector<double> rates;
    for (unsigned rep = 0; rep < kKernelReps; ++rep) {
        const uint64_t id = t.open(name, 0, 0);
        const auto end = Clock::now() + kKernelChunk;
        do {
            for (unsigned i = 0; i < kKernelInner; ++i)
                fn();
        } while (Clock::now() < end);
        t.close(id);
        const Span &s = t.span(id);
        rates.push_back(static_cast<double>(s.comps) /
                        (s.durationNs() * 1e-3));
    }
    return medianOf(rates, name);
}

/** Distinct non-failed requests of one kind, grouped per tenant. */
std::vector<std::vector<const Rec *>>
byTenant(const RunResult &r, Kind kind)
{
    std::vector<std::vector<const Rec *>> out(r.tenants.size());
    for (const Rec &rec : r.recs)
        if (rec.kind == kind && !rec.failed)
            out[rec.tenant].push_back(&rec);
    return out;
}

/** The tenant with the most requests in @p groups. */
const std::vector<const Rec *> &
busiest(const std::vector<std::vector<const Rec *>> &groups)
{
    return *std::max_element(
        groups.begin(), groups.end(),
        [](const auto &a, const auto &b) { return a.size() < b.size(); });
}

/** State shared by the re-run steps of one ladder. */
struct Rerun
{
    const Params &p;
    const RunResult &r;
    Tracer &t;
    std::vector<uint64_t> serviceSpan; ///< request id -> its span
    std::vector<std::unique_ptr<Context>> ctx; ///< per tenant, warm
    SphincsPlus scheme;
    uint64_t mismatches = 0;

    Rerun(const Params &params, const RunResult &run, Tracer &tracer)
        : p(params), r(run), t(tracer), scheme(params)
    {
        for (const Tenant &tn : r.tenants)
            ctx.push_back(std::make_unique<Context>(
                p, tn.kp.sk.pkSeed, tn.kp.sk.skSeed));
    }

    /** One signature call by call, then whole; compares every output. */
    void decompose(const Rec &rec);
    /** One LaneScheduler group over @p members (same tenant). */
    void group(const std::vector<const Rec *> &members);
    void verifyOne(const Rec &rec);
    void verifyBatch(const std::vector<const Rec *> &members);
};

void
Rerun::decompose(const Rec &rec)
{
    const Tenant &tn = r.tenants[rec.tenant];
    const Context &c = *ctx[rec.tenant];
    const uint64_t req = rec.id;
    Scope root(t, "layers.resign", serviceSpan[req], req);

    ByteVec sig(p.sigBytes());
    uint8_t *out = sig.data();
    ByteVec digest(p.msgDigestBytes());
    DigestSplit split;
    {
        Scope h(t, "sphincs.hmsg", root.id(), req);
        {
            Scope s(t, "prfMsg", h.id(), req);
            prfMsg(out, c, tn.kp.sk.skPrf, rec.optRand, rec.msg);
        }
        {
            Scope s(t, "hashMessage", h.id(), req);
            hashMessage(digest, c, ByteSpan(out, p.n), tn.kp.sk.pkRoot,
                        rec.msg);
        }
        split = splitDigest(p, digest);
    }
    out += p.n;

    uint8_t node[maxN];
    {
        Scope f(t, "sphincs.fors", root.id(), req);
        Address a;
        a.setLayer(0);
        a.setTree(split.idxTree);
        a.setType(AddrType::ForsTree);
        a.setKeypair(split.idxLeaf);
        forsSign(out, node, split.forsMsg.data(), c, a);
    }
    out += p.forsSigBytes();

    // The message, tree and leaf each layer signs, for the WOTS+ re-run.
    std::vector<std::array<uint8_t, maxN>> signedRoot(p.layers);
    std::vector<uint64_t> trees(p.layers);
    std::vector<uint32_t> leaves(p.layers);
    {
        Scope tr(t, "sphincs.tree", root.id(), req);
        uint64_t tree = split.idxTree;
        uint32_t leaf = split.idxLeaf;
        for (uint32_t layer = 0; layer < p.layers; ++layer) {
            std::copy(node, node + p.n, signedRoot[layer].begin());
            trees[layer] = tree;
            leaves[layer] = leaf;
            {
                Scope m(t, "merkleSign", tr.id(), req);
                merkleSign(out, node, c, layer, tree, leaf, node);
            }
            out += p.xmssSigBytes();
            leaf = static_cast<uint32_t>(
                tree & ((uint64_t{1} << p.treeHeight()) - 1));
            tree >>= p.treeHeight();
        }
    }
    mismatches += sig != rec.sig;

    // WOTS+ signing is part of each merkleSign; re-run it alone on the
    // same inputs to split TREE from WOTS+.
    {
        Scope wo(t, "sphincs.wots", root.id(), req);
        ByteVec wsig(p.wotsSigBytes());
        for (uint32_t layer = 0; layer < p.layers; ++layer) {
            Address a;
            a.setLayer(layer);
            a.setTree(trees[layer]);
            a.setType(AddrType::WotsHash);
            a.setKeypair(leaves[layer]);
            {
                Scope s(t, "wotsSign", wo.id(), req);
                wotsSign(wsig.data(), signedRoot[layer].data(), c, a);
            }
            const size_t at = p.n + p.forsSigBytes() +
                              static_cast<size_t>(layer) * p.xmssSigBytes();
            mismatches += !std::equal(wsig.begin(), wsig.end(),
                                      rec.sig.begin() + at);
        }
    }

    ByteVec whole;
    {
        Scope s(t, "sphincs.sign", root.id(), req);
        whole = scheme.sign(c, rec.msg, tn.kp.sk, rec.optRand);
    }
    mismatches += whole != rec.sig;
}

void
Rerun::group(const std::vector<const Rec *> &members)
{
    const Rec &lead = *members.front();
    const unsigned count = static_cast<unsigned>(members.size());
    std::vector<ByteSpan> msgs, rands;
    for (const Rec *m : members) {
        msgs.push_back(m->msg);
        rands.push_back(m->optRand);
    }
    std::vector<ByteVec> sigs(count);
    {
        Scope s(t, "batch.signGroup", serviceSpan[lead.id], lead.id);
        batch::LaneScheduler::signGroup(*ctx[lead.tenant],
                                        r.tenants[lead.tenant].kp.sk,
                                        msgs.data(), rands.data(),
                                        sigs.data(), count);
    }
    for (unsigned i = 0; i < count; ++i)
        mismatches += sigs[i] != members[i]->sig;
}

void
Rerun::verifyOne(const Rec &rec)
{
    const ByteVec sig = rec.payload();
    bool ok = false;
    {
        Scope s(t, "sphincs.verify", serviceSpan[rec.id], rec.id);
        ok = scheme.verify(*ctx[rec.tenant], rec.target->msg, sig,
                           r.tenants[rec.tenant].kp.pk);
    }
    mismatches += ok != rec.expected();
}

void
Rerun::verifyBatch(const std::vector<const Rec *> &members)
{
    const Rec &lead = *members.front();
    const size_t count = members.size();
    std::vector<ByteVec> sigs;
    std::vector<ByteSpan> msgSpans, sigSpans;
    for (const Rec *m : members)
        sigs.push_back(m->payload());
    for (size_t i = 0; i < count; ++i) {
        msgSpans.push_back(members[i]->target->msg);
        sigSpans.push_back(sigs[i]);
    }
    const auto ok = std::make_unique<bool[]>(count);
    {
        Scope s(t, "sphincs.verifyBatch", serviceSpan[lead.id], lead.id);
        scheme.verifyBatch(*ctx[lead.tenant], msgSpans.data(),
                           sigSpans.data(), r.tenants[lead.tenant].kp.pk,
                           ok.get(), count);
    }
    for (size_t i = 0; i < count; ++i)
        mismatches += ok[i] != members[i]->expected();
}

/** Per-item time (ns) of every span called @p name, split @p per ways. */
std::vector<double>
perItem(const Tracer &t, const char *name, double per)
{
    std::vector<double> v = t.durations(name);
    for (double &x : v)
        x /= per;
    return v;
}

/** Median compressions of the spans called @p name. */
double
medianComps(const Tracer &t, const char *name)
{
    std::vector<double> v;
    for (const Span &s : t.spans())
        if (s.name == name)
            v.push_back(static_cast<double>(s.comps));
    return medianOf(v, name);
}

} // namespace

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = {
        "sign_tput",     "sign_p50_ms", "verify_tput",
        "verify_p50_ms", "setup_s",
    };
    return names;
}

const std::vector<std::string> &
tailNames()
{
    static const std::vector<std::string> names = {"sign_p99_ms",
                                                   "verify_p99_ms"};
    return names;
}

Metrics
endToEnd(const RunResult &r)
{
    std::vector<double> signMs, verifyMs;
    for (const Rec &rec : r.recs)
        if (!rec.failed)
            (rec.kind == Kind::Sign ? signMs : verifyMs)
                .push_back((rec.doneNs - rec.sendNs) * 1e-6);
    // Latency percentiles are medians over 1000-sample chunks of the
    // run.
    auto p50 = [](const std::vector<double> &v, const char *what) {
        return require(chunkedPercentile(v, 50, 0, kLatencyChunk), what);
    };
    auto tail = [](const std::vector<double> &v) {
        return chunkedPercentile(v, 99, 10, kLatencyChunk)
            .value_or(std::numeric_limits<double>::quiet_NaN());
    };
    Metrics m;
    m.set("sign_tput", static_cast<double>(signMs.size()) / r.signWallS,
          "signatures/s");
    m.set("sign_p50_ms", p50(signMs, "sign_p50_ms"), "ms");
    m.set("sign_p99_ms", tail(signMs), "ms");
    m.set("verify_tput",
          static_cast<double>(verifyMs.size()) / r.verifyWallS,
          "verifications/s");
    m.set("verify_p50_ms", p50(verifyMs, "verify_p50_ms"), "ms");
    m.set("verify_p99_ms", tail(verifyMs), "ms");
    m.set("setup_s", require(median(r.setupS), "setup_s"), "s");
    m.set("fail_frac",
          static_cast<double>(r.failed()) /
              static_cast<double>(std::max<size_t>(1, r.recs.size())),
          "ratio");
    m.set("sign_samples", static_cast<double>(signMs.size()), "count");
    m.set("verify_samples", static_cast<double>(verifyMs.size()), "count");
    return m;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> all = {
        {"hash.lanes_mcomps", "Mcomp/s", "sign_tput", "batch-256f"},
        {"hash.scalar_mcomps", "Mcomp/s", "sign_p50_ms", "single-128f"},
        {"hash.comps_per_sign", "count", "every sign metric", "all"},
        {"hash.comps_per_verify", "count", "verify_p50_ms", "mixed-192f"},
        {"sphincs.thashx_mcomps", "Mcomp/s", "sign_tput", "batch-256f"},
        {"sphincs.thashx_eff", "ratio", "sign_tput", "batch-256f"},
        {"sphincs.hmsg_us", "us", "sign_p50_ms", "single-128f"},
        {"sphincs.fors_ms", "ms", "sign_p50_ms", "single-128f"},
        {"sphincs.tree_ms", "ms", "sign_p50_ms", "single-128f"},
        {"sphincs.wots_ms", "ms", "sign_p50_ms", "single-128f"},
        {"sphincs.sign_ms", "ms", "sign_p50_ms",
         "single-128f, mixed-192f"},
        {"sphincs.sign_eff", "ratio", "sign_p50_ms", "single-128f"},
        {"sphincs.verify_us", "us", "verify_p50_ms", "mixed-192f"},
        {"sphincs.verify_batch_us", "us", "verify_p99_ms", "mixed-192f"},
        {"batch.group_sign_ms", "ms", "sign_tput",
         "batch-256f (no change on single-128f)"},
        {"batch.group_gain", "ratio", "sign_tput", "batch-256f"},
        {"service.submit_p99_us", "us", "sign_p99_ms, verify_p99_ms",
         "mixed-192f"},
        {"service.self_ms", "ms", "sign_p50_ms", "single-128f, mixed-192f"},
        {"service.group_mean", "count", "sign_tput; sign_p99_ms",
         "batch-256f; mixed-192f"},
        {"service.grouped_frac", "ratio", "sign_tput; sign_p99_ms",
         "batch-256f; mixed-192f"},
        {"service.core_eff", "ratio", "sign_tput", "batch-256f"},
        {"service.cache_hit_frac", "ratio", "setup_s, sign_p99_ms",
         "mixed-192f"},
        {"service.mcomps", "Mcomp/s", "sign_tput", "all"},
        {"service.eff", "ratio", "sign_tput", "batch-256f"},
        {"loadgen.lag_p99_ms", "ms", "(validity)", "mixed-192f"},
        {"trace.overhead", "ratio", "(validity)", "all"},
    };
    return all;
}

uint64_t
traceLayers(const WorkloadSpec &w, uint64_t seed, const RunResult &traced,
            const Metrics &untraced, Tracer &tracer, Metrics &out,
            std::ostream &report)
{
    const Params &p = *w.params;
    Rerun rr(p, traced, tracer);

    // 1. One span per service call, send -> future ready, with the
    //    submit call as its child.
    rr.serviceSpan.assign(traced.recs.size() + 1, 0);
    std::vector<double> submitNs, lagNs;
    for (const Rec &rec : traced.recs) {
        Span s;
        s.request = rec.id;
        s.name = rec.kind == Kind::Sign ? "service.sign" : "service.verify";
        s.startNs = rec.sendNs;
        s.endNs = rec.doneNs;
        const uint64_t id = rr.serviceSpan[rec.id] = tracer.add(s);
        Span sub;
        sub.parent = id;
        sub.request = rec.id;
        sub.name = "service.submit";
        sub.startNs = rec.sentNs;
        sub.endNs = rec.sentNs + rec.submitNs;
        tracer.add(sub);
        submitNs.push_back(rec.submitNs);
        lagNs.push_back(rec.lagNs);
    }

    // 2. Re-run a seeded sample of the run's own requests, layer by
    //    layer, on this thread.
    const auto signs = byTenant(traced, Kind::Sign);
    const auto verifies = byTenant(traced, Kind::Verify);
    std::vector<const Rec *> allSigns;
    for (const auto &v : signs)
        allSigns.insert(allSigns.end(), v.begin(), v.end());

    Stream pick(seed, kTagLadder);
    for (size_t i : pick.distinct(allSigns.size(), kLayerSample))
        rr.decompose(*allSigns[i]);

    const auto &groupPool = busiest(signs);
    const size_t groupSize = std::min<size_t>(
        batch::LaneScheduler::preferredGroup(), groupPool.size());
    for (unsigned g = 0; g < kGroups && groupSize > 0; ++g) {
        std::vector<const Rec *> members;
        for (size_t i : pick.distinct(groupPool.size(), groupSize))
            members.push_back(groupPool[i]);
        rr.group(members);
    }

    const auto &verifyPool = busiest(verifies);
    const size_t lanes = hashLaneWidth();
    const std::vector<size_t> vpick =
        pick.distinct(verifyPool.size(), lanes * kVerifyBatches);
    for (size_t i : vpick)
        rr.verifyOne(*verifyPool[i]);
    for (size_t b = 0; b < vpick.size(); b += lanes) {
        std::vector<const Rec *> members;
        for (size_t i = b; i < std::min(vpick.size(), b + lanes); ++i)
            members.push_back(verifyPool[vpick[i]]);
        rr.verifyBatch(members);
    }

    // Exact compressions of one signature and one verification, on a
    // canonical input (seed 0) so the count repeats across runs.
    {
        const Tenant canon = makeTenant(w, 0, 0);
        const Context c(p, canon.kp.sk.pkSeed, canon.kp.sk.skSeed);
        Stream in(0, kTagSignInputs);
        const ByteVec msg = in.bytes(32);
        const ByteVec rand = in.bytes(p.n);
        ByteVec sig;
        bool ok = false;
        {
            Scope s(tracer, "hash.canonical_sign", 0, 0);
            sig = rr.scheme.sign(c, msg, canon.kp.sk, rand);
        }
        {
            Scope s(tracer, "hash.canonical_verify", 0, 0);
            ok = rr.scheme.verify(c, msg, sig, canon.kp.pk);
        }
        rr.mismatches += !ok;
    }

    // 3. Hash kernels on seeded one-block inputs.
    const unsigned width = hashLaneWidth();
    Stream kin(seed, kTagKernelInputs);
    std::vector<ByteVec> blocks(width), digests(width);
    std::vector<const uint8_t *> inPtr(width);
    std::vector<uint8_t *> outPtr(width);
    for (unsigned i = 0; i < width; ++i) {
        blocks[i] = kin.bytes(kOneBlock);
        digests[i].resize(std::max<size_t>(Sha256::digestSize, p.n));
        inPtr[i] = blocks[i].data();
        outPtr[i] = digests[i].data();
    }
    const double lanesRate = kernelRate(tracer, "hash.lanes", [&] {
        Sha256Lanes h(width);
        h.update(inPtr.data(), kOneBlock);
        h.final(outPtr.data());
    });
    const double scalarRate = kernelRate(tracer, "hash.scalar", [&] {
        Sha256 h;
        h.update(ByteSpan(blocks[0].data(), kOneBlock));
        h.final(digests[0].data());
    });
    std::vector<Address> adrs(width);
    for (unsigned i = 0; i < width; ++i) {
        adrs[i].setType(AddrType::WotsHash);
        adrs[i].setKeypair(static_cast<uint32_t>(kin.below(p.treeLeaves())));
        adrs[i].setChain(i);
        adrs[i].setHash(static_cast<uint32_t>(kin.below(p.wotsW)));
    }
    const double thashRate = kernelRate(tracer, "sphincs.thashFX", [&] {
        thashFX(outPtr.data(), *rr.ctx[0], adrs.data(), inPtr.data(),
                width);
    });

    // 4. Per-layer metrics.
    const double hmsg = medianOf(tracer.durations("sphincs.hmsg"), "hmsg");
    const double fors = medianOf(tracer.durations("sphincs.fors"), "fors");
    const double tree = medianOf(tracer.durations("sphincs.tree"), "tree");
    const double wots = medianOf(tracer.durations("sphincs.wots"), "wots");
    const double sign = medianOf(tracer.durations("sphincs.sign"), "sign");
    const double group = medianOf(
        perItem(tracer, "batch.signGroup", static_cast<double>(groupSize)),
        "group");
    const double cps = medianComps(tracer, "hash.canonical_sign");
    const double cpv = medianComps(tracer, "hash.canonical_verify");
    const double nproc = std::thread::hardware_concurrency();
    const double signTput = untraced.get("sign_tput");
    const double verifyTput = untraced.get("verify_tput");
    const service::ServiceStats st =
        traced.signStats.mergedWith(traced.verifyStats);
    const double lookups =
        static_cast<double>(st.cache.hits + st.cache.misses);

    auto set = [&](const char *name, double v) {
        for (const LayerMetric &lm : layerMetrics())
            if (std::string(lm.name) == name)
                return out.set(name, v, lm.unit);
        throw std::logic_error(std::string("unlisted metric ") + name);
    };
    set("hash.lanes_mcomps", lanesRate);
    set("hash.scalar_mcomps", scalarRate);
    set("hash.comps_per_sign", cps);
    set("hash.comps_per_verify", cpv);
    set("sphincs.thashx_mcomps", thashRate);
    set("sphincs.thashx_eff", thashRate / lanesRate);
    set("sphincs.hmsg_us", hmsg * 1e-3);
    set("sphincs.fors_ms", fors * 1e-6);
    set("sphincs.tree_ms", tree * 1e-6);
    set("sphincs.wots_ms", wots * 1e-6);
    set("sphincs.sign_ms", sign * 1e-6);
    set("sphincs.sign_eff", cps / (sign * 1e-3) / lanesRate);
    set("sphincs.verify_us",
        medianOf(tracer.durations("sphincs.verify"), "verify") * 1e-3);
    set("sphincs.verify_batch_us",
        medianOf(perItem(tracer, "sphincs.verifyBatch",
                         static_cast<double>(lanes)),
                 "verifyBatch") *
            1e-3);
    set("batch.group_sign_ms", group * 1e-6);
    set("batch.group_gain", sign / group);
    set("service.submit_p99_us",
        require(p99(submitNs), "service.submit_p99_us") * 1e-3);
    set("service.self_ms", untraced.get("sign_p50_ms") - sign * 1e-6);
    // No lane group at all means every sign pass was a group of one.
    set("service.group_mean",
        st.signLaneGroups
            ? static_cast<double>(st.signCrossSignJobs) /
                  static_cast<double>(st.signLaneGroups)
            : 1.0);
    set("service.grouped_frac",
        static_cast<double>(st.signCrossSignJobs) /
            static_cast<double>(std::max<uint64_t>(1, st.signsCompleted)));
    set("service.core_eff", signTput / (nproc * 1e3 / (group * 1e-6)));
    set("service.cache_hit_frac",
        static_cast<double>(st.cache.hits) / std::max(1.0, lookups));
    const double mcomps = (signTput * cps + verifyTput * cpv) * 1e-6;
    set("service.mcomps", mcomps);
    set("service.eff", mcomps / (nproc * lanesRate));
    set("loadgen.lag_p99_ms", require(p99(lagNs), "loadgen.lag_p99_ms") * 1e-6);
    set("trace.overhead", signTput / endToEnd(traced).get("sign_tput"));

    // 5. The ladder and the CPU Table II.
    char line[256];
    report << "layer ladder (" << w.name << ", " << p.name << "):\n";
    for (const LayerMetric &lm : layerMetrics()) {
        std::snprintf(line, sizeof line, "  %-24s %14.6g %-8s moves %s on %s\n",
                      lm.name, out.get(lm.name), lm.unit, lm.moves, lm.on);
        report << line;
    }
    const double wotsComps = medianComps(tracer, "sphincs.wots");
    const double rows[4][2] = {
        {hmsg, medianComps(tracer, "sphincs.hmsg")},
        {fors, medianComps(tracer, "sphincs.fors")},
        {tree - wots, medianComps(tracer, "sphincs.tree") - wotsComps},
        {wots, wotsComps},
    };
    const char *phase[4] = {"H_msg", "FORS", "TREE", "WOTS+"};
    const double total = hmsg + fors + tree;
    const double totalComps = rows[0][1] + rows[1][1] + rows[2][1] + rows[3][1];
    report << "CPU Table II (" << p.name
           << ", one signature on one thread, median of "
           << tracer.durations("sphincs.sign").size() << "):\n";
    std::snprintf(line, sizeof line, "  %-6s %10s %7s %10s %7s\n", "phase",
                  "ms", "share", "comps", "share");
    report << line;
    for (int i = 0; i < 4; ++i) {
        std::snprintf(line, sizeof line,
                      "  %-6s %10.4f %6.1f%% %10.0f %6.1f%%\n", phase[i],
                      rows[i][0] * 1e-6, 100 * rows[i][0] / total,
                      rows[i][1], 100 * rows[i][1] / totalComps);
        report << line;
    }
    std::snprintf(line, sizeof line,
                  "  H_msg+FORS+TREE = %.4f ms = %.3f x sphincs.sign_ms "
                  "(%.4f ms); TREE includes WOTS+ on the sign path\n",
                  total * 1e-6, total / sign, sign * 1e-6);
    report << line;
    return rr.mismatches;
}

} // namespace perfbench
