#include "qos/retrieval.h"

#include <algorithm>
#include <functional>

namespace powerdial::qos {

double
fMeasure(double precision, double recall)
{
    const double denom = precision + recall;
    return denom > 0.0 ? 2.0 * precision * recall / denom : 0.0;
}

RetrievalScore
score(const std::vector<DocId> &returned, const std::vector<DocId> &relevant,
      std::size_t cutoff)
{
    RetrievalScore s;
    if (relevant.empty())
        return s;

    const std::size_t n =
        cutoff == 0 ? returned.size() : std::min(cutoff, returned.size());
    if (n == 0)
        return s;

    // Membership by binary search in the relevant set as a sorted,
    // duplicate-free list. Callers pass one already (searchx's ground
    // truth is), so only other input pays for a sorted copy.
    std::vector<DocId> sorted;
    const std::vector<DocId> *rel = &relevant;
    if (std::adjacent_find(relevant.begin(), relevant.end(),
                           std::greater_equal<DocId>()) != relevant.end()) {
        sorted = relevant;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        rel = &sorted;
    }

    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (std::binary_search(rel->begin(), rel->end(), returned[i]))
            ++hits;

    s.precision = static_cast<double>(hits) / static_cast<double>(n);
    const std::size_t denom =
        cutoff == 0 ? rel->size() : std::min(cutoff, rel->size());
    s.recall = static_cast<double>(hits) / static_cast<double>(denom);
    s.f_measure = fMeasure(s.precision, s.recall);
    return s;
}

} // namespace powerdial::qos
