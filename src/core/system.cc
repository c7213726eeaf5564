#include "core/system.hh"

#include <algorithm>
#include <sstream>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "integrity/integrity_tree.hh"

namespace cnvm
{

namespace
{

/** Per-core bank-stagger step (see build(): 33 lines, coprime to the
 *  bank-interleave period). */
constexpr Addr bankStaggerStep = Addr(33) * lineBytes;

/** An address computed without wrapping: validate() sizes layouts
 *  whose end may lie beyond 2^64. */
using WideAddr = unsigned __int128;

/**
 * Stride between per-core regions, rounded for clean bank mapping and
 * padded so that every core's staggered region still fits inside its
 * own slot: core i's region starts bankStaggerStep * i past its slot
 * base, so the slot must absorb the largest stagger or the last cores
 * would bleed into their neighbours' slots.
 */
WideAddr
regionStride(const WorkloadParams &wl, unsigned num_cores)
{
    const WideAddr mb = WideAddr(1) << 20;
    const WideAddr max_stagger = WideAddr(num_cores - 1) * bankStaggerStep;
    return (wl.regionBytes + max_stagger + mb - 1) / mb * mb;
}

/**
 * The interleave map of a configuration that passes validate(). The
 * first part of a System built, so an invalid configuration is fatal
 * before anything else is.
 */
ChannelMap
makeChannelMap(const SystemConfig &cfg)
{
    const std::vector<std::string> reasons = cfg.validate();
    if (!reasons.empty())
        cnvm_fatal("%s", reasons.front().c_str());
    return ChannelMap(cfg.numChannels, cfg.memctl.counterRegionBase);
}

/** @p value as 0x-prefixed hex. */
std::string
hex(WideAddr value)
{
    std::string digits;
    do {
        digits.insert(digits.begin(), "0123456789abcdef"[value & 15]);
        value >>= 4;
    } while (value != 0);
    return "0x" + digits;
}

} // anonymous namespace

std::vector<std::string>
SystemConfig::validate() const
{
    std::vector<std::string> reasons;
    if (numCores < 1)
        reasons.push_back("numCores must be at least 1");
    if (!isPowerOfTwo(numChannels)) {
        reasons.push_back("numChannels must be a nonzero power of two, "
                          "got " + std::to_string(numChannels));
    } else if (memctl.counterCacheBytes % numChannels != 0) {
        // The configured capacity is the system total; each channel
        // owns an equal slice of it.
        reasons.push_back("counter cache ("
                          + std::to_string(memctl.counterCacheBytes)
                          + " B) does not split evenly over "
                          + std::to_string(numChannels) + " channels");
    } else if (designHasCounterCache(design)) {
        const std::uint64_t slice = memctl.counterCacheBytes / numChannels;
        const std::uint64_t set_bytes =
            std::uint64_t(memctl.counterCacheAssoc) * lineBytes;
        if (set_bytes == 0 || slice % set_bytes != 0
            || !isPowerOfTwo(slice / set_bytes)) {
            reasons.push_back(
                "counter cache (" + std::to_string(slice)
                + " B per channel) is not a power-of-two number of "
                + std::to_string(memctl.counterCacheAssoc) + "-way sets");
        }
    }

    if (wl.regionBytes < minRegionBytes(wl)) {
        reasons.push_back("workload region ("
                          + std::to_string(wl.regionBytes)
                          + " B) too small for the undo log (needs "
                          + std::to_string(minRegionBytes(wl)) + " B)");
    }
    if (numCores >= 1) {
        // Regions ascend with the core index, so the last one reaches
        // highest: past the data half of the address space it would
        // silently corrupt the counter store. In 128 bits, so a huge
        // region or core count cannot wrap around to a low address.
        const unsigned last = numCores - 1;
        const WideAddr last_base = dataRegionBase
            + WideAddr(last) * regionStride(wl, numCores)
            + WideAddr(last) * bankStaggerStep;
        const WideAddr last_end = last_base + wl.regionBytes;
        if (last_end > memctl.counterRegionBase) {
            reasons.push_back("core " + std::to_string(last) + " region ["
                              + hex(last_base) + ", " + hex(last_end)
                              + ") overflows into the counter region at "
                              + hex(memctl.counterRegionBase));
        }
    }
    return reasons;
}

System::System(const SystemConfig &cfg_in)
    : cfg(cfg_in),
      nvmDev(cfg_in.nvm, &registry, makeChannelMap(cfg_in))
{
    build(nullptr);
}

System::System(const SystemConfig &cfg_in, const ResumeState &resume)
    : cfg(cfg_in),
      nvmDev(cfg_in.nvm, &registry, makeChannelMap(cfg_in))
{
    cnvm_assert(resume.committedTxns.size() == cfg.numCores);
    cnvm_assert(resume.quarantined.size() == cfg.numCores);
    build(&resume);
}

System::~System() = default;

void
System::build(const ResumeState *resume)
{
    MemCtlConfig mc = cfg.memctl;
    mc.design = cfg.design;
    mc.numChannels = cfg.numChannels;
    // The configured counter-cache capacity is the explicit system
    // total; each channel owns an equal slice of it (validate()).
    mc.counterCacheBytes = cfg.memctl.counterCacheBytes / cfg.numChannels;
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        mc.channelId = ch;
        memCtls.push_back(std::make_unique<MemController>(
            eventq, nvmDev, mc, &registry, &sequencer));
    }

    MemBackend *backend = memCtls.front().get();
    if (cfg.numChannels > 1) {
        std::vector<MemBackend *> chans;
        chans.reserve(memCtls.size());
        for (auto &ctl : memCtls)
            chans.push_back(ctl.get());
        router = std::make_unique<ChannelRouter>(std::move(chans),
                                                 nvmDev.channelMap());
        backend = router.get();
    }

    ClockDomain cpu_clock(static_cast<Tick>(1000.0 / cfg.cpuGHz));

    for (unsigned i = 0; i < cfg.numCores; ++i) {
        WorkloadParams wl = cfg.wl;
        // The stagger keeps different cores' hot lines (log headers,
        // metadata) off the same NVM banks: a plain power-of-two
        // stride is a multiple of the bank-interleave period, which
        // would pile every core's log area onto one bank.
        Addr bank_stagger = Addr(i) * bankStaggerStep;
        wl.regionBase = cfg.dataRegionBase
                      + i * static_cast<Addr>(
                          regionStride(cfg.wl, cfg.numCores))
                      + bank_stagger;
        // Disjoint by construction (regionStride absorbs the largest
        // stagger); below the counter region by validate().
        wl.seed = cfg.coreSeed(i);
        workloads.push_back(makeWorkload(cfg.workload, wl));

        memPaths.push_back(std::make_unique<CoreMemPath>(
            eventq, cpu_clock, *backend, cfg.cache, i, &registry));
        cores.push_back(std::make_unique<Core>(
            eventq, cpu_clock, *memPaths.back(), *workloads.back(), i,
            &registry));
        cores.back()->setOnFinished([this]() {
            ++finishedCores;
            if (finishedCores == cfg.numCores) {
                if (injector)
                    injector->disarm();
                eventq.requestStop();
            }
        });
    }

    const ChannelMap &map = nvmDev.channelMap();
    if (resume == nullptr) {
        // Install each workload's initial state consistently: live
        // view, encrypted image and counters, as a freshly booted
        // system. Setup routes each line to its owning channel so the
        // per-channel counter engines see exactly their shard.
        for (auto &wl : workloads) {
            wl->setup([this](Addr a, const void *d, unsigned s) {
                nvmDev.livePlainStore(
                    a, s, static_cast<const std::uint8_t *>(d));
            });
            wl->shadowMem().forEachLine(
                [this, &map](Addr addr, const LineData &data) {
                    memCtls[map.channelOf(addr)]->initLine(addr, data);
                });
        }
    } else {
        // Resume-after-recovery: the recovered image is the persisted
        // truth — nothing is re-initialized on media. Each workload
        // replays its deterministic history host-side (setup with a
        // no-op writer, then fast-forward to the committed count),
        // which regenerates its shadow, RNG, allocator state and
        // digest log byte-identically to the pre-crash run's — the
        // digest log in particular must cover [0, K] so the *next*
        // recovery can match any prefix.
        nvmDev.installPersistedState(resume->image);
        // Channel counter state rebuilds from the persisted store
        // first, exactly as crash() leaves it — the re-seed
        // equivalence argument of DESIGN.md section 4i. Order matters:
        // a fresh-incarnation core below allocates new counters
        // through initLine(), which must continue above every
        // persisted value so no (address, counter) pair is reused.
        for (auto &ctl : memCtls)
            ctl->reseedFromPersistedImage();
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            Workload &wl = *workloads[i];
            if (i < resume->fresh.size() && resume->fresh[i]) {
                // Unrecoverable core: restart its workload from
                // scratch over the surviving media, as a first boot
                // would. The old incarnation's untouched lines stay
                // verifiable free space; its quarantined lines keep
                // their tombstones until setup or the new run drains
                // fresh triples over them.
                wl.setup([this](Addr a, const void *d, unsigned s) {
                    nvmDev.livePlainStore(
                        a, s, static_cast<const std::uint8_t *>(d));
                });
                wl.shadowMem().forEachLine(
                    [this, &map](Addr addr, const LineData &data) {
                        memCtls[map.channelOf(addr)]->initLine(addr,
                                                               data);
                    });
                continue;
            }
            wl.setup([](Addr, const void *, unsigned) {});
            if (resume->committedTxns[i] >= cfg.wl.txnTarget) {
                cnvm_fatal("resume: core %u committed %llu txns but "
                           "txnTarget is %u — nothing left to run",
                           i,
                           static_cast<unsigned long long>(
                               resume->committedTxns[i]),
                           cfg.wl.txnTarget);
            }
            std::vector<Op> discard;
            for (std::uint64_t k = 0; k < resume->committedTxns[i];
                 ++k) {
                discard.clear();
                bool more = wl.next(discard);
                cnvm_assert(more);
            }
            // Quarantined lines read as zeros everywhere the resumed
            // machine can see them: shadow first (it is the
            // program-order truth the digest log and validation walk),
            // then the live view below inherits the zeros. The media
            // keeps the tombstoned triple until a legitimate rewrite
            // drains fresh (cipher, counter, MAC) over it.
            LineData zeros{};
            for (Addr qa : resume->quarantined[i])
                wl.shadowMem().write(qa, zeros.data(), lineBytes);
            // Live plaintext view := the fast-forwarded shadow. The
            // shadow, not the decrypted image, is authoritative here:
            // cache write-allocate fills merge live-view bytes into
            // partially-stored lines, so the live view must equal the
            // program-order content the shadow carries.
            wl.shadowMem().forEachLine(
                [this](Addr addr, const LineData &data) {
                    nvmDev.livePlainStore(addr, lineBytes, data.data());
                });
        }
    }
    if (cfg.warmCounterCache) {
        // Separate pass: warming during installation would capture
        // counter lines whose neighbouring slots are not yet
        // initialized, and a later flush of that stale (clean) copy
        // would regress the persisted counters.
        for (auto &wl : workloads) {
            wl->shadowMem().forEachLine(
                [this, &map](Addr addr, const LineData &) {
                    memCtls[map.channelOf(addr)]->warmCounterLine(addr);
                });
        }
    }
}

RunResult
System::runInternal()
{
    for (auto &core : cores)
        core->start();

    eventq.run();

    RunResult result;
    result.crashed = lastResult.crashed;
    if (result.crashed) {
        result.endTick = lastResult.endTick;
    } else {
        Tick latest = 0;
        for (auto &core : cores)
            latest = std::max(latest, core->finishedAt());
        result.endTick = latest;
        // Let outstanding queue drains settle for accurate traffic
        // accounting.
        eventq.run();
    }
    for (auto &wl : workloads)
        result.txnsIssued += wl->txnsIssued();
    lastResult = result;
    return result;
}

void
System::setCtlEventHook(std::function<void(CtlEvent)> hook)
{
    for (auto &ctl : memCtls)
        ctl->setEventHook(hook);
}

RunResult
System::run()
{
    return runInternal();
}

CrashSnapshot
System::snapshotNow() const
{
    CrashSnapshot snap;
    snap.valid = true;
    snap.tick = eventq.curTick();
    for (const auto &ctl : memCtls) {
        snap.dataQueue += ctl->dataQueueOccupancy();
        snap.ctrQueue += ctl->ctrQueueOccupancy();
        snap.landing += ctl->landingDepth();
        snap.pipeline += ctl->pipelineDepth();
        snap.inflight += ctl->inflightDepth();
        snap.outstandingReads += ctl->outstandingReadCount();
    }
    return snap;
}

std::vector<AdrCut>
System::powerFail(PersistImage &img, const FaultSpec &faults) const
{
    std::vector<ChannelReady> ready(memCtls.size());
    unsigned total = 0;
    for (std::size_t c = 0; c < memCtls.size(); ++c) {
        ready[c].dataSeqs = memCtls[c]->readyDataSeqs();
        ready[c].ctrSeqs = memCtls[c]->readyCtrSeqs();
        total += static_cast<unsigned>(ready[c].dataSeqs.size()
                                       + ready[c].ctrSeqs.size());
    }

    // The fault model's two draws share one RNG stream, so their
    // order is fixed: the ADR energy loss first, the media dose last.
    const MemCtlConfig &mc = controller().config();
    FaultModel fm(faults, mc.counterRegionBase);
    std::vector<AdrCut> cuts =
        computeDrainKeeps(ready, fm.adrDropCount(total));
    for (std::size_t c = 0; c < memCtls.size(); ++c)
        memCtls[c]->drainAdr(img, cuts[c]);
    // The ADR budget's last act: flush the integrity tree, root last
    // *globally*, after every channel's counters. The volatile mirror
    // is the tree of the persisted store, so the flush is a rebuild of
    // the post-drain store — before the media dose, which is why a
    // replayed counter word never agrees with the persisted tree.
    if (mc.integrityTree)
        rebuildTree(img, mc.counterRegionBase, 0, ~Addr(0));
    fm.applyMediaFaults(img);
    return cuts;
}

void
System::crashChannels(const FaultSpec &faults)
{
    std::vector<AdrCut> cuts = powerFail(nvmDev.persistedState(), faults);
    for (std::size_t c = 0; c < memCtls.size(); ++c)
        memCtls[c]->crashWithCut(cuts[c]);
}

void
System::doCrash()
{
    lastResult.crashed = true;
    lastResult.endTick = eventq.curTick();
    snapshot = snapshotNow();

    for (auto &core : cores)
        core->halt();
    for (auto &path : memPaths)
        path->dropAll();
    crashChannels(activeSpec.faults);
    eventq.requestStop();
}

RunResult
System::runWithCrashAt(Tick crash_tick)
{
    return runWithCrash(CrashSpec::atTick(crash_tick));
}

RunResult
System::runWithCrash(const CrashSpec &spec)
{
    activeSpec = spec;
    injector = std::make_unique<CrashInjector>(
        eventq, spec, [this]() { doCrash(); });
    if (ctlEventFor(spec.kind)) {
        setCtlEventHook(
            [this](CtlEvent ev) { injector->onCtlEvent(ev); });
    }
    injector->start();
    return runInternal();
}

PersistFork
System::captureFork(const CrashSpec &spec) const
{
    PersistFork fork;
    fork.snapshot = snapshotNow();
    // Persisted state as a crash here would leave it: the same
    // power-failure sequence as doCrash(), on a copy-on-write copy of
    // the device's image. The trunk's own image stays untouched.
    fork.image = nvmDev.persistedState();
    powerFail(fork.image, spec.faults);

    // Digest logs snapshot: the trunk keeps committing after the
    // capture, and the committed-prefix search must not see the fork's
    // future.
    fork.coreDigests.reserve(workloads.size());
    for (const auto &wl : workloads)
        fork.coreDigests.push_back(wl->digests());
    return fork;
}

RunResult
System::runWithForkCapture(const std::vector<CrashSpec> &specs,
                           ForkSink sink)
{
    bool semantic = false;
    for (const CrashSpec &spec : specs)
        semantic = semantic || ctlEventFor(spec.kind).has_value();

    injector = std::make_unique<CrashInjector>(
        eventq, specs,
        [this, specs, sink = std::move(sink)](std::size_t i) {
            PersistFork fork = captureFork(specs[i]);
            fork.planIndex = i;
            sink(i, std::move(fork));
        });
    if (semantic) {
        setCtlEventHook(
            [this](CtlEvent ev) { injector->onCtlEvent(ev); });
    }
    injector->start();
    return runInternal();
}

std::vector<RecoveryReport>
System::recoverAll(unsigned recovery_jobs)
{
    // The pre-scan within each recovery is what parallelizes; cores
    // stay in order.
    RecoveryOptions ropt;
    ropt.jobs = recovery_jobs;

    RecoveryEngine engine(nvmDev, controller());
    std::vector<RecoveryReport> reports;
    reports.reserve(workloads.size());
    for (auto &wl : workloads)
        reports.push_back(engine.recover(*wl, nullptr, ropt));
    return reports;
}

std::vector<OracleReport>
System::examineAll()
{
    CrashOracle oracle(nvmDev, controller());
    std::vector<OracleReport> reports;
    reports.reserve(workloads.size());
    for (auto &wl : workloads)
        reports.push_back(oracle.examine(*wl));
    return reports;
}

bool
System::recoveredConsistently(std::string *first_failure)
{
    for (const RecoveryReport &report : recoverAll()) {
        if (!report.consistent) {
            if (first_failure != nullptr)
                *first_failure = report.detail;
            return false;
        }
    }
    return true;
}

double
System::throughputTxnPerSec() const
{
    if (lastResult.endTick == 0)
        return 0.0;
    double seconds = static_cast<double>(lastResult.endTick) * 1e-12;
    return static_cast<double>(lastResult.txnsIssued) / seconds;
}

double
System::counterCacheMissRate() const
{
    double hit_count = 0.0;
    double miss_count = 0.0;
    bool found = false;
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        std::string prefix = "ctrcache.ch" + std::to_string(c) + ".";
        const stats::Stat *hits = registry.find(prefix + "read_hits");
        const stats::Stat *misses = registry.find(prefix + "read_misses");
        if (hits == nullptr || misses == nullptr)
            continue;
        found = true;
        hit_count += hits->value();
        miss_count += misses->value();
    }
    if (!found)
        return 0.0;
    double total = hit_count + miss_count;
    return total == 0.0 ? 0.0 : miss_count / total;
}

std::string
System::describe() const
{
    std::ostringstream os;
    os << designName(cfg.design) << ", " << cfg.numCores << " core(s), "
       << cfg.numChannels << " channel(s), "
       << workloadKindName(cfg.workload) << ", "
       << (cfg.memctl.counterCacheBytes >> 10)
       << "KB counter cache total, "
       << cfg.memctl.dataWqEntries << "/" << cfg.memctl.ctrWqEntries
       << " data/counter WQ entries";
    return os.str();
}

} // namespace cnvm
