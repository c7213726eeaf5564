/**
 * @file
 * Layer kernels the traced run times on their own, each sized from the
 * workload's configuration: the event queue (sim), an L1 cache
 * (mem, Cache::access), a counter-cache channel (memctl,
 * CounterCache::access) and the encryption engine's pad and MAC
 * (crypto). Each kernel reports the median over repetitions of host ns
 * per call.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "crypto/ctr_engine.hh"
#include "mem/cache.hh"
#include "memctl/counter_cache.hh"
#include "perfbench.hh"
#include "sim/eventq.hh"

namespace perfbench
{

using namespace cnvm;

namespace
{

constexpr int repetitions = 5;

/** Median over repetitions of host ns per call of @p body, which makes
 *  @p calls calls. */
template <typename F>
double
nsPerCall(std::size_t calls, F &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < repetitions; ++r) {
        std::int64_t t0 = nowNs();
        body();
        samples.push_back(static_cast<double>(nowNs() - t0)
                          / static_cast<double>(calls));
    }
    std::nth_element(samples.begin(), samples.begin() + repetitions / 2,
                     samples.end());
    return samples[repetitions / 2];
}

/** Self-rescheduling event with a pseudo-random delay. */
class Ticker : public Event
{
  public:
    Ticker(EventQueue &eq, Random &rng, std::uint64_t &budget)
        : eq(eq), rng(rng), budget(budget)
    {}

    void
    process() override
    {
        if (budget == 0)
            return;
        --budget;
        eq.schedule(*this, eq.curTick() + 1 + rng.below(4000));
    }

  private:
    EventQueue &eq;
    Random &rng;
    std::uint64_t &budget;
};

} // namespace

KernelTimes
timeKernels(const SystemConfig &cfg, std::uint64_t seed, bool small)
{
    KernelTimes k;
    const std::size_t calls = small ? 4096 : 65536;
    const std::uint64_t region_lines = cfg.wl.regionBytes / lineBytes;

    // Addresses a core touches: uniformly over its region.
    Random rng(seed ^ 0x6b65726e656cull); // "kernel"
    std::vector<Addr> addrs(calls);
    for (Addr &a : addrs)
        a = cfg.dataRegionBase + rng.below(region_lines) * lineBytes;

    crypto::CtrEngine engine(cfg.memctl.key.data());
    LineData sink{};
    k.padNs = nsPerCall(calls, [&] {
        std::uint64_t ctr = 1;
        for (Addr a : addrs) {
            LineData pad = engine.makePad(a, ctr++);
            sink[0] ^= pad[0];
        }
    });
    std::uint64_t mac_sink = sink[0];
    k.macNs = nsPerCall(calls, [&] {
        std::uint64_t ctr = 1;
        for (Addr a : addrs)
            mac_sink ^= engine.lineMac(a, ctr++, sink);
    });

    k.cacheAccessNs = nsPerCall(calls, [&] {
        Cache l1("kernel.l1", cfg.cache.l1Bytes, cfg.cache.l1Assoc);
        for (Addr a : addrs)
            if (l1.access(a) == nullptr)
                l1.allocate(a, sink);
    });

    // One channel's share of the counter cache, over the counter lines
    // covering the region (eight data lines per counter line).
    std::uint64_t cc_bytes =
        cfg.memctl.counterCacheBytes / std::max(1u, cfg.numChannels);
    k.ctrCacheAccessNs = nsPerCall(calls, [&] {
        CounterCache cc(cc_bytes, cfg.memctl.counterCacheAssoc, nullptr);
        CounterLine values{};
        for (Addr a : addrs) {
            Addr ctr_line = cfg.memctl.counterRegionBase
                + (a - cfg.dataRegionBase) / lineBytes / 8 * lineBytes;
            if (cc.access(ctr_line) == nullptr)
                cc.install(ctr_line, values, 0);
        }
    });

    // As many events in flight as the workload's cores keep pending.
    std::uint64_t budget = 0;
    k.eventNs = nsPerCall(calls, [&] {
        EventQueue eq;
        Random erng(seed);
        budget = calls;
        std::vector<std::unique_ptr<Ticker>> tickers;
        for (unsigned i = 0; i < 8 * cfg.numCores; ++i) {
            tickers.push_back(std::make_unique<Ticker>(eq, erng, budget));
            eq.schedule(*tickers.back(), 1 + erng.below(4000));
        }
        eq.run();
    });

    // Keep the kernels' results observable.
    if ((mac_sink ^ sink[1]) == 0x5a5a5a5a5a5a5a5aull)
        k.padNs += 1e-9;
    return k;
}

} // namespace perfbench
