/**
 * @file
 * Design-space explorer: sweep the controller's architectural knobs —
 * counter cache size, write-queue depths, encryption latency, PCM
 * write pausing — and report how each moves SCA's performance. This is
 * the kind of study the library enables beyond the paper's figures.
 *
 *   ./design_space_explorer [workload]
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"

using namespace cnvm;

namespace
{

SystemConfig
baseConfig(WorkloadKind workload)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = workload;
    cfg.wl.regionBytes = 6ull << 20;
    cfg.wl.txnTarget = 200;
    return cfg;
}

double
runtimeOf(const SystemConfig &cfg)
{
    System sys(cfg);
    sys.run();
    return sys.runtimeNs();
}

void
sweepHeader(const char *title)
{
    std::printf("\n%s\n", title);
    std::printf("%-28s %12s %10s\n", "setting", "runtime(us)", "vs base");
    std::printf("%.*s\n", 52,
                "----------------------------------------------------");
}

void
reportPoint(const char *label, double runtime_ns, double base_ns)
{
    std::printf("%-28s %12.1f %9.3fx\n", label, runtime_ns / 1000.0,
                runtime_ns / base_ns);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    WorkloadKind workload = WorkloadKind::HashTable;
    if (argc > 1) {
        auto named = workloadKindFromName(argv[1]);
        if (!named) {
            std::fprintf(stderr, "unknown workload '%s' (try array, "
                         "queue, hash, btree, rbtree)\n", argv[1]);
            return 1;
        }
        workload = *named;
    }
    SystemConfig base = baseConfig(workload);
    double base_ns = runtimeOf(base);
    std::printf("base: %s, %.1f us\n",
                System(base).describe().c_str(), base_ns / 1000.0);

    sweepHeader("counter cache size (per core)");
    for (std::uint64_t kb : {64, 256, 1024, 4096}) {
        SystemConfig cfg = base;
        cfg.memctl.counterCacheBytes = kb << 10;
        cfg.warmCounterCache = false;
        std::string label = std::to_string(kb) + " KB (cold)";
        reportPoint(label.c_str(), runtimeOf(cfg), base_ns);
    }

    sweepHeader("counter write queue depth");
    for (unsigned entries : {4, 8, 16, 32, 64}) {
        SystemConfig cfg = base;
        cfg.memctl.ctrWqEntries = entries;
        std::string label = std::to_string(entries) + " entries";
        reportPoint(label.c_str(), runtimeOf(cfg), base_ns);
    }

    sweepHeader("data write queue depth");
    for (unsigned entries : {16, 32, 64, 128}) {
        SystemConfig cfg = base;
        cfg.memctl.dataWqEntries = entries;
        std::string label = std::to_string(entries) + " entries";
        reportPoint(label.c_str(), runtimeOf(cfg), base_ns);
    }

    sweepHeader("encryption engine latency");
    for (double ns : {10.0, 20.0, 40.0, 80.0}) {
        SystemConfig cfg = base;
        cfg.memctl.encLatency = nsToTicks(ns);
        std::string label = std::to_string(static_cast<int>(ns)) + " ns";
        reportPoint(label.c_str(), runtimeOf(cfg), base_ns);
    }

    sweepHeader("PCM write pausing (ablation)");
    {
        SystemConfig cfg = base;
        cfg.nvm.writePause = true;
        reportPoint("enabled (default)", runtimeOf(cfg), base_ns);
        cfg.nvm.writePause = false;
        reportPoint("disabled", runtimeOf(cfg), base_ns);
    }

    sweepHeader("NVM bank parallelism");
    for (unsigned banks : {8, 16, 32, 64}) {
        SystemConfig cfg = base;
        cfg.nvm.numBanks = banks;
        std::string label = std::to_string(banks) + " banks";
        reportPoint(label.c_str(), runtimeOf(cfg), base_ns);
    }

    return 0;
}
