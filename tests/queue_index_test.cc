/**
 * @file
 * Differential oracle for the memory controller's write-queue indexes.
 *
 * The controller keeps address and sequence maps over its two write
 * queues so the hot lookups (read forwarding, write combining, pair
 * blocking, drain completion) run in O(1) in the queue depth. This
 * test drives one controller through randomized sequences of writes,
 * reads, counter writebacks, event steps and crashes, and after every
 * op compares each indexed answer with a linear scan of the queues
 * written here, then asserts that the indexes mirror the queues entry
 * for entry (verifyIndexes). Half the runs switch write combining off,
 * so one address can hold several unissued entries and "the oldest
 * unissued entry" is a real choice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "memctl/mem_controller.hh"

namespace cnvm
{

/**
 * Test-only window onto MemController's queues: answers every indexed
 * lookup both ways — through the controller and by scanning its
 * queues — and records each disagreement as a test failure.
 */
class MemControllerTestPeer
{
  public:
    explicit MemControllerTestPeer(MemController &ctl) : ctl(ctl) {}

    /**
     * Checks every lookup over @p lines (data-line addresses) and
     * every sequence number present in either queue, plus absent
     * ones. @p where labels failures.
     */
    void
    checkLookups(const std::vector<Addr> &lines, const std::string &where)
    {
        ctl.verifyIndexes();

        std::set<std::uint64_t> seqs{0};
        for (const auto &entry : ctl.dataQ)
            seqs.insert(entry.seq);
        for (const auto &entry : ctl.ctrQ)
            seqs.insert(entry.seq);
        seqs.insert(*seqs.rbegin() + 1);
        for (std::uint64_t seq : seqs) {
            EXPECT_TRUE(ctl.locateDataEntry(seq) == scanData(seq))
                << where << ": locateDataEntry(" << seq << ")";
            EXPECT_TRUE(ctl.locateCtrEntry(seq) == scanCtr(seq))
                << where << ": locateCtrEntry(" << seq << ")";
        }

        std::set<Addr> ctr_lines;
        for (Addr addr : lines) {
            ctr_lines.insert(ctl.counterLineAddr(addr));
            EXPECT_EQ(ctl.dataQueueHas(addr), scanDataHas(addr))
                << where << ": dataQueueHas(" << std::hex << addr << ")";
            EXPECT_EQ(ctl.findUnissuedData(addr), scanUnissuedData(addr))
                << where << ": findUnissuedData(" << std::hex << addr
                << ")";
        }
        for (Addr ctr_addr : ctr_lines) {
            EXPECT_EQ(ctl.ctrQueueHasIssued(ctr_addr),
                      scanCtrHasIssued(ctr_addr))
                << where << ": ctrQueueHasIssued(" << std::hex << ctr_addr
                << ")";
            EXPECT_EQ(ctl.findUnissuedCtr(ctr_addr),
                      scanUnissuedCtr(ctr_addr))
                << where << ": findUnissuedCtr(" << std::hex << ctr_addr
                << ")";
            EXPECT_EQ(ctl.memoryViewCounters(ctr_addr),
                      scanMemoryView(ctr_addr))
                << where << ": memoryViewCounters(" << std::hex
                << ctr_addr << ")";
        }
    }

  private:
    using DataIter = MemController::DataIter;
    using CtrIter = MemController::CtrIter;
    using DataEntry = MemController::DataEntry;
    using CtrEntry = MemController::CtrEntry;

    DataIter
    scanData(std::uint64_t seq)
    {
        return std::find_if(ctl.dataQ.begin(), ctl.dataQ.end(),
                            [&](const DataEntry &e) {
                                return e.seq == seq;
                            });
    }

    CtrIter
    scanCtr(std::uint64_t seq)
    {
        return std::find_if(ctl.ctrQ.begin(), ctl.ctrQ.end(),
                            [&](const CtrEntry &e) {
                                return e.seq == seq;
                            });
    }

    bool
    scanDataHas(Addr addr) const
    {
        return std::any_of(ctl.dataQ.begin(), ctl.dataQ.end(),
                           [&](const DataEntry &e) {
                               return e.addr == addr;
                           });
    }

    bool
    scanCtrHasIssued(Addr ctr_addr) const
    {
        return std::any_of(ctl.ctrQ.begin(), ctl.ctrQ.end(),
                           [&](const CtrEntry &e) {
                               return e.issued && e.addr == ctr_addr;
                           });
    }

    /** The oldest unissued data entry for @p addr, in queue order. */
    DataEntry *
    scanUnissuedData(Addr addr)
    {
        for (DataEntry &e : ctl.dataQ) {
            if (!e.issued && e.addr == addr)
                return &e;
        }
        return nullptr;
    }

    /** The oldest unissued counter entry for @p ctr_addr. */
    CtrEntry *
    scanUnissuedCtr(Addr ctr_addr)
    {
        for (CtrEntry &e : ctl.ctrQ) {
            if (!e.issued && e.addr == ctr_addr)
                return &e;
        }
        return nullptr;
    }

    /** Persisted counters merged, in age order, with every pending
     *  counter-queue entry and unqueued eviction of the line. */
    CounterLine
    scanMemoryView(Addr ctr_addr) const
    {
        CounterLine values = ctl.nvm.persistedCounters(ctr_addr);
        auto merge = [&](const CounterLine &newer) {
            for (unsigned s = 0; s < countersPerLine; ++s)
                values[s] = std::max(values[s], newer[s]);
        };
        for (const CtrEntry &e : ctl.ctrQ) {
            if (e.addr == ctr_addr)
                merge(e.values);
        }
        for (const CounterEviction &ev : ctl.pendingCcEvictions) {
            if (ev.addr == ctr_addr)
                merge(ev.values);
        }
        return values;
    }

    MemController &ctl;
};

namespace
{

LineData
lineOf(std::uint8_t v)
{
    LineData d;
    d.fill(v);
    return d;
}

/**
 * Drives one controller through a seeded random op sequence and checks
 * every lookup after every op. Ops exercise every index mutation:
 * insert, coalesce, issue (via drains), complete, and crash.
 */
void
runOracleSequence(DesignPoint design, std::uint32_t seed,
                  bool write_combining)
{
    SCOPED_TRACE(std::string(designName(design)) + " seed "
                 + std::to_string(seed) + " combining "
                 + (write_combining ? "on" : "off"));
    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig cfg;
    cfg.design = design;
    cfg.writeCombining = write_combining;
    MemController ctl(eq, nvm, cfg, nullptr);
    MemControllerTestPeer peer(ctl);
    std::mt19937 rng(seed);

    // A small footprint keeps the queues hot and forces coalescing and
    // pair-blocking; the distinct counter lines exercise the address
    // maps with both singleton and multi-entry vectors.
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 24; ++i)
        lines.push_back(0x40000 + static_cast<Addr>(i) * lineBytes);
    // Probes also cover a line no op ever touches.
    std::vector<Addr> probes = lines;
    probes.push_back(0x80000);

    auto random_line = [&]() {
        return lines[rng() % lines.size()];
    };
    auto check = [&](unsigned op) {
        peer.checkLookups(probes, "op " + std::to_string(op));
        return !::testing::Test::HasFailure();
    };

    for (unsigned op = 0; op < 600; ++op) {
        unsigned kind = rng() % 100;
        if (kind < 55) {
            WriteReq req;
            req.addr = random_line();
            req.data = lineOf(static_cast<std::uint8_t>(rng() % 251));
            req.counterAtomic = rng() % 2 == 0;
            ctl.tryWrite(req);
        } else if (kind < 70) {
            ctl.issueRead(random_line(), 0, []() {});
        } else if (kind < 80) {
            ctl.tryCtrWriteback(random_line(), nullptr);
        } else if (kind < 97) {
            // Let simulated time advance a random number of events so
            // entries land, issue, and complete between ops.
            unsigned steps = rng() % 24;
            for (unsigned s = 0; s < steps && eq.step(); ++s) {
                if (!check(op))
                    return;
            }
        } else {
            ctl.crash();
        }
        if (!check(op))
            return;
    }
    eq.run();
    check(600);
    EXPECT_TRUE(ctl.writesIdle());
}

void
runOracle(DesignPoint design, std::initializer_list<std::uint32_t> seeds)
{
    for (std::uint32_t seed : seeds) {
        for (bool combining : {true, false})
            runOracleSequence(design, seed, combining);
    }
}

TEST(QueueIndex, MirroredRandomSequenceSca)
{
    runOracle(DesignPoint::SCA, {1u, 2u, 3u, 4u});
}

TEST(QueueIndex, MirroredRandomSequenceFca)
{
    // FCA pairs every write: maximal counter-queue pressure, frequent
    // pair blocking, and multi-entry address vectors.
    runOracle(DesignPoint::FCA, {5u, 6u, 7u, 8u});
}

TEST(QueueIndex, MirroredRandomSequenceUnsafe)
{
    runOracle(DesignPoint::Unsafe, {9u, 10u});
}

TEST(QueueIndex, MirroredRandomSequenceNoEncryption)
{
    runOracle(DesignPoint::NoEncryption, {11u, 12u});
}

} // anonymous namespace
} // namespace cnvm
