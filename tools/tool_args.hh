/**
 * @file
 * The one command-line flag layer of the cnvm tools.
 *
 * Each driver has exactly one front end: cnvm_sim runs one System
 * (optionally crashed and verified), cnvm_crash_sweep runs the
 * crash-point sweep and the crash-during-recovery sweep, and cnvm_soak
 * runs the crash-chain soak. Each tool keeps its own flag names,
 * defaults and option summary; every decision about what a flag's
 * value means is made here, once:
 *
 *  - ArgReader: walks argv; each typed accessor consumes the current
 *    flag's value strictly (fully consumed, in range, finite) or prints
 *    a diagnostic and the tool's usage to stderr and exits 2. No value
 *    from the command line reaches a System unchecked.
 *  - parseMachineFlag(): the flags every tool shares that shape the
 *    simulated machine (--workload, --cores, --channels, --cc-kb,
 *    --integrity, --integrity-tree).
 *  - FaultFlags: the --faults / --fault-seed / --replays bundle, the
 *    rules that keep a tuning flag from silently enabling the dose,
 *    and the FaultSpec it selects.
 *  - FlagRule / ArgReader::enforce(): cross-flag prerequisites
 *    ("--fault-seed requires --faults") with a uniform diagnostic.
 *  - ArgReader::validate(): the configuration's own cross-field rules
 *    (SystemConfig::validate()), checked before any System is built.
 *  - shortDesignName(): the design column of the matrix tables.
 */

#ifndef CNVM_TOOLS_TOOL_ARGS_HH
#define CNVM_TOOLS_TOOL_ARGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "core/config.hh"
#include "nvm/fault_model.hh"

namespace cnvm
{
namespace toolargs
{

/**
 * One cross-flag prerequisite: @p flag was given (set) but only makes
 * sense alongside @p needs (prereq). A flag that merely *tunes*
 * another flag's behavior must not silently enable it.
 */
struct FlagRule
{
    bool set = false;
    bool prereq = false;
    const char *flag = "";
    const char *needs = "";
};

/** Walks a tool's argv one flag at a time. Every failure prints its
 *  diagnostic to stderr and exits 2 through the tool's usage(). */
class ArgReader
{
  public:
    using Usage = void (*)(int);

    ArgReader(int argc, char **argv, Usage usage)
        : argc_(argc), argv_(argv), usage_(usage)
    {}

    /** Advances to the next flag; false once argv is exhausted. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        flag_ = argv_[i_];
        return true;
    }

    /** True when the current flag is @p name. */
    bool is(const char *name) const { return flag_ == name; }

    /** The current flag's mandatory value. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_) {
            std::fprintf(stderr, "missing value for %s\n", flag_.c_str());
            exitUsage();
        }
        text_ = argv_[++i_];
        return text_;
    }

    /** Any unsigned 64-bit integer. */
    std::uint64_t
    u64()
    {
        return integer(0, std::numeric_limits<std::uint64_t>::max(),
                       "an unsigned integer");
    }

    /** A strictly positive integer that fits in unsigned. */
    unsigned
    positive()
    {
        return static_cast<unsigned>(integer(1, kUnsignedMax,
                                             "a positive integer"));
    }

    /** An integer in [1, @p max]; for knobs like --cycles where an
     *  absurd value is a typo (or a runaway run), not a request. */
    unsigned
    bounded(unsigned max)
    {
        std::string what = "an integer in [1, " + std::to_string(max)
            + "]";
        return static_cast<unsigned>(integer(1, max, what.c_str()));
    }

    /** A positive power of two that fits in unsigned: the interleave
     *  math (`addr & (channels - 1)`) is only valid for powers of two,
     *  so 0, 3, 6, ... are usage errors, not truncations. */
    unsigned
    powerOfTwo()
    {
        const char *what = "a power-of-two integer";
        std::uint64_t v = integer(1, kUnsignedMax, what);
        if ((v & (v - 1)) != 0)
            reject(what);
        return static_cast<unsigned>(v);
    }

    /** A positive size in units of 2^@p shift bytes, returned in bytes;
     *  a value whose shift would overflow 64 bits is rejected. */
    std::uint64_t
    size(unsigned shift)
    {
        std::string what = "a positive integer below 2^"
            + std::to_string(64 - shift);
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
        return integer(1, max >> shift, what.c_str()) << shift;
    }

    /** A finite real number > 0 (latency multipliers). */
    double
    positiveReal()
    {
        const char *what = "a finite number > 0";
        double v = real(what);
        if (!(v > 0))
            reject(what);
        return v;
    }

    /** A finite real number in [0, 1]. */
    double
    fraction()
    {
        const char *what = "a number in [0, 1]";
        double v = real(what);
        if (v < 0 || v > 1)
            reject(what);
        return v;
    }

    /** A design name as designFromName() accepts it. */
    DesignPoint
    design()
    {
        auto d = designFromName(value());
        if (!d)
            unknownName("design");
        return *d;
    }

    /** A workload name as workloadKindFromName() accepts it. */
    WorkloadKind
    workload()
    {
        auto w = workloadKindFromName(value());
        if (!w)
            unknownName("workload");
        return *w;
    }

    /** Rejects the current flag as unknown. */
    [[noreturn]] void
    unknown()
    {
        std::fprintf(stderr, "unknown option '%s'\n", flag_.c_str());
        exitUsage();
    }

    /**
     * Checks the cross-field rules of @p cfg (SystemConfig::validate())
     * under each of @p designs: the first configuration a System would
     * refuse prints every reason and exits 2, so a well-formed but
     * inconsistent flag combination is a usage error, not a fatal
     * error from deep inside the simulation.
     */
    void
    validate(SystemConfig cfg, const std::vector<DesignPoint> &designs)
    {
        for (DesignPoint d : designs) {
            cfg.design = d;
            const std::vector<std::string> reasons = cfg.validate();
            if (reasons.empty())
                continue;
            for (const std::string &reason : reasons)
                std::fprintf(stderr, "invalid configuration: %s\n",
                             reason.c_str());
            exitUsage();
        }
    }

    /** Checks every rule; the first violation prints a uniform
     *  "<flag> requires <needs>" and exits 2. */
    void
    enforce(std::initializer_list<FlagRule> rules)
    {
        for (const FlagRule &r : rules) {
            if (r.set && !r.prereq) {
                std::fprintf(stderr, "%s requires %s\n", r.flag, r.needs);
                exitUsage();
            }
        }
    }

  private:
    static constexpr std::uint64_t kUnsignedMax =
        std::numeric_limits<unsigned>::max();

    [[noreturn]] void
    exitUsage()
    {
        usage_(2);
        std::abort(); // usage() exits; this is never reached
    }

    [[noreturn]] void
    reject(const char *what)
    {
        std::fprintf(stderr, "%s needs %s, got '%s'\n", flag_.c_str(),
                     what, text_);
        exitUsage();
    }

    [[noreturn]] void
    unknownName(const char *kind)
    {
        std::fprintf(stderr, "unknown %s '%s'\n", kind, text_);
        exitUsage();
    }

    /** The value as a decimal integer in [lo, hi]: digits only (no
     *  sign, space or trailing garbage) and no 64-bit overflow. */
    std::uint64_t
    integer(std::uint64_t lo, std::uint64_t hi, const char *what)
    {
        const char *text = value();
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(text, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
            *end != '\0' || errno == ERANGE || v < lo || v > hi)
            reject(what);
        return v;
    }

    /** The value as a finite real number, fully consumed. */
    double
    real(const char *what)
    {
        const char *text = value();
        char *end = nullptr;
        double v = std::strtod(text, &end);
        if (end == text || *end != '\0' ||
            std::isspace(static_cast<unsigned char>(text[0])) ||
            !std::isfinite(v))
            reject(what);
        return v;
    }

    int argc_;
    char **argv_;
    Usage usage_;
    int i_ = 0;
    std::string flag_;
    const char *text_ = "";
};

/**
 * Consumes one of the machine-shaping flags every tool accepts
 * (--workload, --cores, --channels, --cc-kb, --integrity,
 * --integrity-tree) into @p cfg; false for any other flag.
 */
inline bool
parseMachineFlag(ArgReader &a, SystemConfig &cfg)
{
    if (a.is("--workload"))
        cfg.workload = a.workload();
    else if (a.is("--cores"))
        cfg.numCores = a.positive();
    else if (a.is("--channels"))
        cfg.numChannels = a.powerOfTwo();
    else if (a.is("--cc-kb"))
        cfg.memctl.counterCacheBytes = a.size(10);
    else if (a.is("--integrity"))
        cfg.memctl.integrityMac = true;
    else if (a.is("--integrity-tree"))
        cfg.memctl.integrityMac = cfg.memctl.integrityTree = true;
    else
        return false;
    return true;
}

/** The media-fault dose flags of the sweep and soak tools. */
struct FaultFlags
{
    bool faults = false;
    bool replays = false;
    bool seedSet = false;
    std::uint64_t seed = 1;

    /** Consumes --faults, --fault-seed or --replays; false otherwise. */
    bool
    parse(ArgReader &a)
    {
        if (a.is("--faults")) {
            faults = true;
        } else if (a.is("--fault-seed")) {
            seed = a.u64();
            seedSet = true;
        } else if (a.is("--replays")) {
            replays = true;
        } else {
            return false;
        }
        return true;
    }

    FlagRule seedRule() const
    { return {seedSet, faults, "--fault-seed", "--faults"}; }

    FlagRule replaysRule() const
    { return {replays, faults, "--replays", "--faults"}; }

    /** The dose the flags select: none without --faults. */
    FaultSpec
    spec() const
    {
        if (!faults)
            return {};
        return replays ? FaultSpec::allKindsWithReplays(seed)
                       : FaultSpec::allKinds(seed);
    }
};

/** The design column of the matrix tables: designName(), with the
 *  co-located designs shortened to their CLI spellings. */
inline const char *
shortDesignName(DesignPoint d)
{
    switch (d) {
      case DesignPoint::Colocated: return "Colocated";
      case DesignPoint::ColocatedCC: return "ColocatedCC";
      default: return designName(d);
    }
}

} // namespace toolargs
} // namespace cnvm

#endif // CNVM_TOOLS_TOOL_ARGS_HH
