/**
 * @file
 * cnvm_perfbench: runs one benchmark workload for a fixed host time
 * and prints its metrics as one JSON object on the last line of
 * standard output.
 *
 *   cnvm_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--small]
 *
 * --trace 0 reports the end-to-end metrics of untraced passes.
 * --trace 1 alternates untraced and traced passes (spans recorded,
 * layer counters read) over the same seconds, then times the layer
 * kernels, and reports the per-layer metrics, including the tracing
 * overhead. Both modes gate determinism: every pass must reproduce the
 * first pass's simulated results exactly.
 *
 * The line before the result, starting "# report ", carries the
 * per-workload detail: pass counts, failure messages and, on
 * paper_1c, the Figure 12 ratios beside the paper's.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "cnvm_perfbench: %s\n"
                 "usage: cnvm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--small]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-'
        || v > max)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseUnsigned("--seed", value(), ~0ull >> 1);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(
                parseUnsigned("--seconds", value(), 3600));
            have_seconds = o.seconds >= 1;
        } else if (a == "--trace") {
            o.trace = parseUnsigned("--trace", value(), 1) == 1;
        } else if (a == "--small") {
            o.small = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds (>= 1) are required");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Factor scaling @p pass's host times to the reference host, from
 *  every calibration sample of the run near the pass. */
double
speedFactor(const RunRecord &rec, const PassRecord &pass)
{
    const auto window = static_cast<std::int64_t>(calibrationWindowS * 1e9);
    std::vector<double> near;
    for (const PassRecord &p : rec.passes)
        for (const auto &[t, ms] : p.cal)
            if (t >= pass.startNs - window && t <= pass.endNs + window)
                near.push_back(ms);
    return near.empty() ? 1.0 : calibrationRefMs / median(near);
}

/** Median over the passes of one kind of a per-pass quantity of the
 *  pass and its speed factor. */
template <typename F>
double
passMedian(const RunRecord &rec, bool traced, F &&f)
{
    std::vector<double> v;
    for (const PassRecord &p : rec.passes)
        if (p.traced == traced)
            v.push_back(f(p, speedFactor(rec, p)));
    return median(v);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
        os << (i ? ", " : "") << jsonString(ms[i].name) << ": {\"value\": "
           << buf << ", \"unit\": " << jsonString(ms[i].unit) << '}';
    }
    os << '}';
    return os.str();
}

/**
 * Each operation's median over the untraced passes of one per-operation
 * host time, scaled to the reference host. Every pass runs the same
 * operations in the same order, so a slow moment that hits one
 * operation of one pass drops out; the spread between operations stays.
 */
std::vector<double>
opMedians(const RunRecord &rec, std::vector<double> PassRecord::*field)
{
    std::vector<std::vector<double>> per_op;
    for (const PassRecord &p : rec.passes) {
        if (p.traced)
            continue;
        const std::vector<double> &v = p.*field;
        double k = speedFactor(rec, p);
        per_op.resize(std::max(per_op.size(), v.size()));
        for (std::size_t j = 0; j < v.size(); ++j)
            per_op[j].push_back(v[j] * k);
    }
    std::vector<double> out;
    for (const std::vector<double> &samples : per_op)
        out.push_back(median(samples));
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

std::vector<Metric>
endToEnd(const RunRecord &rec)
{
    // Host times scale to the reference host (see calibrationRefMs).
    auto pm = [&](auto f) { return passMedian(rec, false, f); };
    // Every pass commits the same transactions.
    double pass_txns = rec.passes.empty() ? 0 : rec.passes.front().simTxns;
    std::vector<double> classify_ms = opMedians(rec, &PassRecord::classifyMs);
    return {
        {"setup_s", sum(opMedians(rec, &PassRecord::setupS)), "s"},
        {"wall_s", pm([](const PassRecord &p, double k) {
             return p.wallS * k;
         }), "s"},
        {"sim_txn_per_host_s",
         ratio(pass_txns, sum(opMedians(rec, &PassRecord::simS))), "txn/s"},
        {"points_per_host_s", pm([](const PassRecord &p, double k) {
             return ratio(p.points, p.pointsS * k);
         }), "1/s"},
        {"classify_ms_p50", quantile(classify_ms, 0.50), "ms"},
        {"classify_ms_p95", quantile(classify_ms, 0.95), "ms"},
        // Less the calibration table every pass holds.
        {"peak_rss_mb", pm([](const PassRecord &p, double) {
             return p.peakRssMb
                 - static_cast<double>(calibrationTableBytes) / (1 << 20);
         }), "MB"},
        {"sim_ns_per_txn", geomean(rec.simNsPerTxn), "sim-ns/txn"},
        {"nvm_bytes_per_txn", geomean(rec.nvmBytesPerTxn), "B/txn"},
    };
}

std::vector<Metric>
perLayer(const RunRecord &rec, const Tracer &tr, const KernelTimes &k)
{
    const LayerCounts &l = rec.layers;
    auto extra = [&](const char *name) {
        auto it = rec.extra.find(name);
        return it == rec.extra.end() ? 0.0 : it->second;
    };
    // Per-pass span totals of the traced passes.
    double traced_passes = 0;
    for (const PassRecord &p : rec.passes)
        traced_passes += p.traced;
    auto perPass = [&](const char *span) {
        return ratio(tr.selfMs(span), traced_passes);
    };
    // Fork-sweep extras are sums over every traced sweep.
    double sweeps = extra("sweeps");
    double sim_ms = tr.selfMs("simulate") + tr.selfMs("trunk");
    double events_all = l.events * traced_passes;
    auto wall = [](const PassRecord &p, double k) { return p.wallS * k; };
    double untraced_wall = passMedian(rec, false, wall);
    double traced_wall = passMedian(rec, true, wall);

    return {
        {"sim.events", l.events, "count"},
        {"sim.host_ns_per_event", ratio(sim_ms * 1e6, events_all), "ns"},
        {"sim.kernel_ns_per_event", k.eventNs, "ns"},
        {"cpu.fence_stall_frac.sca", l.fenceStallFrac("SCA"), "ratio"},
        {"cpu.fence_stall_frac.fca", l.fenceStallFrac("FCA"), "ratio"},
        {"cpu.load_ticks_mean", ratio(l.loadTickSum, l.loadCount), "ticks"},
        {"mem.l1_hit_rate", ratio(l.l1Hits, l.l1Hits + l.l1Misses),
         "ratio"},
        {"mem.l2_hit_rate", ratio(l.l2Hits, l.l2Hits + l.l2Misses),
         "ratio"},
        {"mem.cache_access_ns", k.cacheAccessNs, "ns"},
        {"memctl.ctrcache_miss_rate",
         ratio(l.ccReadMisses, l.ccReadHits + l.ccReadMisses), "ratio"},
        {"memctl.pair_blocks_per_ktxn", ratio(l.pairBlocks * 1e3, l.txns),
         "1/ktxn"},
        {"memctl.write_rejects_per_ktxn",
         ratio(l.writeRejects * 1e3, l.txns), "1/ktxn"},
        {"memctl.coalesce_ratio",
         ratio(l.coalesces, l.inserts + l.coalesces), "ratio"},
        {"memctl.ctrcache_access_ns", k.ctrCacheAccessNs, "ns"},
        {"crypto.pad_ns", k.padNs, "ns"},
        {"crypto.mac_ns", k.macNs, "ns"},
        {"nvm.write_bytes_per_txn", ratio(l.nvmWriteBytes, l.txns),
         "B/txn"},
        {"nvm.read_bytes_per_txn", ratio(l.nvmReadBytes, l.txns), "B/txn"},
        {"integrity.node_writes_per_leaf",
         ratio(l.treeNodeWrites, l.treeLeafUpdates), "ratio"},
        {"integrity.flushes_per_ktxn", ratio(l.treeFlushes * 1e3, l.txns),
         "1/ktxn"},
        {"txn.lines_logged_per_txn", ratio(l.linesLogged, l.txns),
         "lines/txn"},
        {"core.setup_ms", perPass("setup"), "ms"},
        {"core.simulate_ms", perPass("simulate"), "ms"},
        {"core.trunk_ms", perPass("trunk"), "ms"},
        {"core.capture_ms",
         std::max(0.0, ratio(extra("core.capture_ms"), traced_passes)),
         "ms"},
        {"core.fork_lines", ratio(extra("core.fork_lines"), sweeps),
         "lines"},
        {"core.classify_ms",
         ratio(tr.selfMs("classify") + tr.selfMs("classifyFork"),
               tr.count("classify") + tr.count("classifyFork")),
         "ms"},
        {"runner.queue_wait_ms", ratio(extra("runner.queue_wait_ms"),
                                       sweeps), "ms"},
        {"runner.busy_frac", ratio(extra("runner.busy_frac"), sweeps),
         "ratio"},
        {"trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1,
         "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : workloads())
        if (o.workload == w.name)
            def = &w;
    if (def == nullptr)
        usage(("unknown workload " + o.workload).c_str());

    Tracer tracer;
    RunRecord rec;
    Clock::time_point start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    // Start another pass only while half of the last one still fits,
    // so a run ends close to its budget. A traced run alternates
    // untraced and traced passes, so drift in the host's speed cancels
    // out of the overhead comparison. Two passes at least, so the
    // determinism gate always compares.
    for (std::size_t n = 0;
         n < 2 || elapsed() + rec.passes.back().wallS / 2 < o.seconds; ++n) {
        bool traced = o.trace && n % 2 == 1;
        tracer.setEnabled(traced);
        def->pass(o, tracer, rec, traced);
        // Layer counters are deterministic: one traced pass's worth.
        rec.layersDone = rec.layersDone || traced;
    }
    KernelTimes kernels;
    if (o.trace)
        kernels = timeKernels(def->kernelConfig(o), o.seed, o.small);

    std::ostringstream report;
    report << "{\"workload\": " << jsonString(o.workload)
           << ", \"seed\": " << o.seed
           << ", \"passes\": " << rec.passes.size() << ", \"pass_wall_s\": [";
    for (std::size_t i = 0; i < rec.passes.size(); ++i)
        report << (i ? ", " : "") << rec.passes[i].wallS;
    report << "], \"pass_sim_s\": [";
    for (std::size_t i = 0; i < rec.passes.size(); ++i)
        report << (i ? ", " : "") << sum(rec.passes[i].simS);
    report << "], \"pass_peak_rss_mb\": [";
    for (std::size_t i = 0; i < rec.passes.size(); ++i)
        report << (i ? ", " : "") << rec.passes[i].peakRssMb;
    report << "], \"cal\": [";
    for (std::size_t i = 0; i < rec.passes.size(); ++i) {
        report << (i ? ", [" : "[");
        for (std::size_t j = 0; j < rec.passes[i].cal.size(); ++j)
            report << (j ? ", " : "") << rec.passes[i].cal[j].second;
        report << "]";
    }
    report << "], \"speed_factor\": [";
    for (std::size_t i = 0; i < rec.passes.size(); ++i)
        report << (i ? ", " : "") << speedFactor(rec, rec.passes[i]);
    report << "]"
           << ", \"host_jobs\": " << hostJobs()
           << ", \"elapsed_s\": " << elapsed()
           << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE);
    if (!rec.paper.empty()) {
        // Simulated Figure 12 averages beside the paper's figures.
        report << ", \"paper\": {\"sca_over_noenc\": {\"measured\": "
               << rec.paper["sca_over_noenc"]
               << ", \"paper\": 1.117}, \"fca_over_sca\": {\"measured\": "
               << rec.paper["fca_over_sca"] << ", \"paper\": 1.063}}";
    }
    report << ", \"failures\": [";
    for (std::size_t i = 0; i < rec.failures.size(); ++i)
        report << (i ? ", " : "") << jsonString(rec.failures[i]);
    report << "]}";
    std::cout << "# report " << report.str() << '\n';

    std::vector<Metric> metrics =
        o.trace ? perLayer(rec, tracer, kernels) : endToEnd(rec);
    std::cout << "{\"correct\": " << (rec.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << rec.attempted
              << ", \"failed\": " << rec.failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}
