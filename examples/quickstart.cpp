/**
 * @file
 * Quickstart: build an encrypted, crash-consistent NVMM system with
 * selective counter-atomicity, run a workload, and read the metrics.
 *
 *   ./quickstart [design] [workload] [txns]
 *
 * e.g. ./quickstart SCA btree 500
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "core/system.hh"

using namespace cnvm;

namespace
{

/** Exits 1 with a hint when an argument names no @p kind. */
template <typename T>
T
orExit(std::optional<T> value, const char *kind, const char *name,
       const char *hint)
{
    if (!value) {
        std::fprintf(stderr, "unknown %s '%s' (try %s)\n", kind, name,
                     hint);
        std::exit(1);
    }
    return *value;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // 1. Configure the system. Everything defaults to the paper's
    //    Table 2: 4 GHz cores, 64 KB L1 + 2 MB L2, a 1 MB counter
    //    cache, 64/16-entry data/counter write queues, and PCM timing.
    SystemConfig cfg;
    cfg.design = argc > 1
        ? orExit(designFromName(argv[1]), "design", argv[1],
                 "SCA, FCA, Ideal, NoEncryption, Colocated, ColocatedCC, "
                 "Unsafe")
        : DesignPoint::SCA;
    cfg.workload = argc > 2
        ? orExit(workloadKindFromName(argv[2]), "workload", argv[2],
                 "array, queue, hash, btree, rbtree")
        : WorkloadKind::BTree;
    cfg.wl.txnTarget = argc > 3 ? std::atoi(argv[3]) : 300;
    cfg.wl.regionBytes = 6ull << 20;

    // 2. Build and run. The workload executes undo-logging
    //    transactions using the paper's primitives: CounterAtomic
    //    stores for the log's valid flag and counter_cache_writeback()
    //    before each persist barrier.
    System sys(cfg);
    std::printf("running: %s\n", sys.describe().c_str());
    RunResult result = sys.run();

    // 3. Read the metrics.
    std::printf("\ntransactions: %llu\n",
                static_cast<unsigned long long>(result.txnsIssued));
    std::printf("simulated time: %.1f us\n", sys.runtimeNs() / 1000.0);
    std::printf("throughput: %.0f txn/s\n", sys.throughputTxnPerSec());
    std::printf("NVM traffic: %.1f KB written, %.1f KB read\n",
                sys.nvmBytesWritten() / 1024.0,
                sys.nvmBytesRead() / 1024.0);
    std::printf("counter cache miss rate: %.1f%%\n",
                sys.counterCacheMissRate() * 100.0);

    // 4. Dump the full stat registry for anything else.
    std::printf("\nselected stats:\n");
    for (const char *name :
         {"memctl.ch0.atomic_pairs", "memctl.ch0.ctr_inserts",
          "memctl.ch0.data_inserts", "memctl.ch0.data_coalesces",
          "core0.fences", "core0.fence_stall_ticks"}) {
        const stats::Stat *stat = sys.statsRegistry().find(name);
        if (stat != nullptr)
            std::printf("  %-28s %.0f\n", name, stat->value());
    }
    return 0;
}
