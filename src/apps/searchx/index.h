/**
 * @file
 * Inverted-index search engine core.
 *
 * From-scratch stand-in for swish++ (paper section 4.4): builds an
 * inverted index over a document corpus and answers ranked queries with
 * tf-idf scoring. The max-results knob truncates the ranked list — the
 * paper's single swish++ dynamic knob — which shrinks both the
 * selection work (a bounded heap) and the result-serialisation work.
 */
#ifndef POWERDIAL_APPS_SEARCHX_INDEX_H
#define POWERDIAL_APPS_SEARCHX_INDEX_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "qos/retrieval.h"
#include "workload/corpus.h"

namespace powerdial::apps::searchx {

/** One posting: a document and the term's frequency within it. */
struct Posting
{
    qos::DocId doc;
    std::uint32_t tf;
};

/** One ranked search result. */
struct SearchResult
{
    qos::DocId doc;
    double score;
};

/** Outcome of one query, with a work estimate for cycle costing. */
struct QueryOutcome
{
    std::vector<SearchResult> results; //!< Ranked, truncated list.
    std::uint64_t work_ops = 0;        //!< Scoring + selection +
                                       //!< serialisation operations.
};

/** An immutable inverted index over a corpus. */
class InvertedIndex
{
  public:
    explicit InvertedIndex(const std::vector<workload::Document> &docs);

    /** Number of indexed documents. */
    std::size_t documentCount() const { return doc_count_; }

    /** Postings for @p word (empty if absent). */
    const std::vector<Posting> &postings(workload::WordId word) const;

    /**
     * Rank documents for @p query by tf-idf sum and return the top
     * @p max_results. Work accounting: one op per posting scored, a
     * log2(max_results) factor per heap update, and a fixed
     * serialisation cost per returned result.
     *
     * Scoring accumulates into a dense per-document scratch array
     * retained across queries (every tf-idf contribution is strictly
     * positive, so "score == 0" doubles as the touched mark), replacing
     * the previous per-query hash map. Each term's idf and every
     * 1 + log(1 + tf) factor are computed once, at build, by the very
     * expressions the per-posting loop used to evaluate, and the top
     * max_results are selected (nth_element) before only they are
     * sorted. Results and work_ops are bit-identical: per-document
     * accumulation order is unchanged and the ranking comparator is a
     * strict total order, so the ranked prefix is the same whatever
     * the candidate order or the selection algorithm. The scratch
     * makes search() not safe to call concurrently on one instance;
     * every FanoutEngine worker in this repo runs its own app
     * instance, so no caller does.
     */
    QueryOutcome search(const workload::Query &query,
                        std::size_t max_results) const;

    /** Per-result serialisation cost, ops (tunes the knob's speedup). */
    static constexpr std::uint64_t kSerializeOpsPerResult = 60;

  private:
    /** A term's postings, in document order, and its idf. */
    struct Term
    {
        std::vector<Posting> postings;
        double idf = 0.0;
    };

    std::unordered_map<workload::WordId, Term> index_;
    std::vector<Posting> empty_;
    std::size_t doc_count_ = 0;
    /** tf_weight_[tf] = 1 + log(1 + tf) for every tf in the corpus. */
    std::vector<double> tf_weight_;
    // Query-scoring scratch (see search()). score_of_ is zero outside
    // a search() call; touched_/ranked_ keep their capacity warm.
    mutable std::vector<double> score_of_;
    mutable std::vector<qos::DocId> touched_;
    mutable std::vector<SearchResult> ranked_;
};

/**
 * Retained naive query scoring (index_ref.cc): the pre-optimization
 * hash-map implementation over the same public index, kept verbatim as
 * the bit-exactness oracle for InvertedIndex::search.
 */
namespace reference {
QueryOutcome search(const InvertedIndex &index,
                    const workload::Query &query, std::size_t max_results);
} // namespace reference

} // namespace powerdial::apps::searchx

#endif // POWERDIAL_APPS_SEARCHX_INDEX_H
