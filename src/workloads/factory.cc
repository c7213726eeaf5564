#include "workloads/factory.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "workloads/array_swap.hh"
#include "workloads/btree.hh"
#include "workloads/hash_table.hh"
#include "workloads/queue.hh"
#include "workloads/rbtree.hh"

namespace cnvm
{

const std::vector<WorkloadKind> &
allWorkloadKinds()
{
    static const std::vector<WorkloadKind> kinds = {
        WorkloadKind::ArraySwap, WorkloadKind::Queue,
        WorkloadKind::HashTable, WorkloadKind::BTree,
        WorkloadKind::RbTree,
    };
    return kinds;
}

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::ArraySwap: return "Array";
      case WorkloadKind::Queue: return "Queue";
      case WorkloadKind::HashTable: return "Hash";
      case WorkloadKind::BTree: return "B-Tree";
      case WorkloadKind::RbTree: return "RB-Tree";
    }
    return "?";
}

std::optional<WorkloadKind>
workloadKindFromName(const std::string &name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "array" || lower == "arrayswap" || lower == "array-swap")
        return WorkloadKind::ArraySwap;
    if (lower == "queue")
        return WorkloadKind::Queue;
    if (lower == "hash" || lower == "hashtable" || lower == "hash-table")
        return WorkloadKind::HashTable;
    if (lower == "btree" || lower == "b-tree")
        return WorkloadKind::BTree;
    if (lower == "rbtree" || lower == "rb-tree")
        return WorkloadKind::RbTree;
    return std::nullopt;
}

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, const WorkloadParams &params)
{
    switch (kind) {
      case WorkloadKind::ArraySwap:
        return std::make_unique<ArraySwapWorkload>(params);
      case WorkloadKind::Queue:
        return std::make_unique<QueueWorkload>(params);
      case WorkloadKind::HashTable:
        return std::make_unique<HashTableWorkload>(params);
      case WorkloadKind::BTree:
        return std::make_unique<BTreeWorkload>(params);
      case WorkloadKind::RbTree:
        return std::make_unique<RbTreeWorkload>(params);
    }
    cnvm_panic("bad workload kind");
    return nullptr;
}

} // namespace cnvm
