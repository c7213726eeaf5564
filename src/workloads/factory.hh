/**
 * @file
 * Workload construction by name.
 */

#ifndef CNVM_WORKLOADS_FACTORY_HH
#define CNVM_WORKLOADS_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace cnvm
{

/** Identifiers of the five evaluated workloads. */
enum class WorkloadKind
{
    ArraySwap,
    Queue,
    HashTable,
    BTree,
    RbTree,
};

/** All five, in the paper's figure order. */
const std::vector<WorkloadKind> &allWorkloadKinds();

/** Display name matching the paper ("Array", "Queue", ...). */
const char *workloadKindName(WorkloadKind kind);

/** Parses a name (case-insensitive); nullopt for an unknown name. */
std::optional<WorkloadKind> workloadKindFromName(const std::string &name);

/** Builds a workload of the given kind. */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       const WorkloadParams &params);

} // namespace cnvm

#endif // CNVM_WORKLOADS_FACTORY_HH
