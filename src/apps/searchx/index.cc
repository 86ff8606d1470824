#include "apps/searchx/index.h"

#include <algorithm>
#include <cmath>

namespace powerdial::apps::searchx {

InvertedIndex::InvertedIndex(const std::vector<workload::Document> &docs)
    : doc_count_(docs.size())
{
    // Count each document's words by sorting a reused scratch copy and
    // measuring each run of equal words, then append the document to
    // that term's postings.
    std::vector<workload::WordId> words;
    for (const auto &doc : docs) {
        words.assign(doc.words.begin(), doc.words.end());
        std::sort(words.begin(), words.end());
        for (auto run = words.begin(); run != words.end();) {
            const auto next = std::upper_bound(run, words.end(), *run);
            index_[*run].postings.push_back(
                {doc.id, static_cast<std::uint32_t>(next - run)});
            run = next;
        }
    }
    std::uint32_t max_tf = 0;
    for (auto &[word, term] : index_) {
        // Documents may come in any order, and a repeated id counts
        // as one document.
        auto &postings = term.postings;
        std::sort(postings.begin(), postings.end(),
                  [](const Posting &a, const Posting &b) {
                      return a.doc < b.doc;
                  });
        std::size_t kept = 0;
        for (const Posting &posting : postings) {
            if (kept > 0 && postings[kept - 1].doc == posting.doc)
                postings[kept - 1].tf += posting.tf;
            else
                postings[kept++] = posting;
        }
        postings.resize(kept);
        for (const Posting &posting : postings)
            max_tf = std::max(max_tf, posting.tf);
        term.idf = std::log(static_cast<double>(doc_count_ + 1) /
                            static_cast<double>(postings.size()));
    }
    tf_weight_.resize(static_cast<std::size_t>(max_tf) + 1);
    for (std::uint32_t t = 0; t <= max_tf; ++t)
        tf_weight_[t] = 1.0 + std::log(1.0 + t);
    qos::DocId max_doc = 0;
    for (const auto &doc : docs)
        max_doc = std::max(max_doc, doc.id);
    score_of_.assign(docs.empty() ? 0 : static_cast<std::size_t>(max_doc) + 1,
                     0.0);
}

const std::vector<Posting> &
InvertedIndex::postings(workload::WordId word) const
{
    const auto it = index_.find(word);
    return it == index_.end() ? empty_ : it->second.postings;
}

QueryOutcome
InvertedIndex::search(const workload::Query &query,
                      std::size_t max_results) const
{
    QueryOutcome out;
    if (max_results == 0)
        return out;

    // Score accumulation: tf-idf over the query terms, into the dense
    // per-document scratch. idf > 0 (df <= N < N+1) and the tf factor
    // is >= 1, so every contribution is strictly positive and a zero
    // score means "not yet touched" — no separate mark array needed.
    // Per-document accumulation order matches the hash-map reference
    // (terms in query order, postings in doc order), so each final
    // score is bit-identical.
    touched_.clear();
    for (const auto word : query.terms) {
        const auto it = index_.find(word);
        if (it == index_.end())
            continue;
        const double idf = it->second.idf;
        for (const auto &posting : it->second.postings) {
            double &score = score_of_[posting.doc];
            if (score == 0.0)
                touched_.push_back(posting.doc);
            score += tf_weight_[posting.tf] * idf;
        }
        out.work_ops += 6 * it->second.postings.size(); // 6 per posting.
    }

    // Bounded selection of the top max_results (the work swish++'s
    // max-results flag bounds; work_ops keeps the heap-of-size-m
    // cost model). The comparator is a strict total order (distinct
    // docs always order), so the top m and their order are the same
    // whatever the candidate traversal order or selection algorithm.
    ranked_.clear();
    ranked_.reserve(touched_.size());
    for (const auto doc : touched_) {
        ranked_.push_back({doc, score_of_[doc]});
        score_of_[doc] = 0.0; // Leave the scratch clean for next query.
    }
    const std::size_t m = std::min(max_results, ranked_.size());
    const double logm =
        std::max(1.0, std::log2(static_cast<double>(m + 1)));
    out.work_ops +=
        static_cast<std::uint64_t>(ranked_.size() * logm);
    const auto better = [](const SearchResult &a, const SearchResult &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.doc < b.doc; // Deterministic ties.
    };
    const auto top = ranked_.begin() + static_cast<std::ptrdiff_t>(m);
    std::nth_element(ranked_.begin(), top, ranked_.end(), better);
    std::sort(ranked_.begin(), top, better);

    // Result serialisation (snippet extraction, formatting, I/O) —
    // linear in the returned count.
    out.work_ops += m * kSerializeOpsPerResult;
    out.results.assign(ranked_.begin(),
                       ranked_.begin() + static_cast<std::ptrdiff_t>(m));
    return out;
}

} // namespace powerdial::apps::searchx
