#include "core/knob.h"

#include <cmath>
#include <stdexcept>

namespace powerdial::core {

KnobSpace::KnobSpace(std::vector<KnobParameter> params)
    : params_(std::move(params))
{
    if (params_.empty())
        throw std::invalid_argument("KnobSpace: no parameters");
    combinations_ = 1;
    for (const auto &p : params_) {
        if (p.values.empty())
            throw std::invalid_argument("KnobSpace: parameter '" + p.name +
                                        "' has no values");
        combinations_ *= p.values.size();
    }
}

const KnobParameter &
KnobSpace::parameter(std::size_t i) const
{
    if (i >= params_.size())
        throw std::out_of_range("KnobSpace: bad parameter index");
    return params_[i];
}

std::vector<std::size_t>
KnobSpace::indicesOf(std::size_t combination) const
{
    if (combination >= combinations_)
        throw std::out_of_range("KnobSpace: bad combination");
    std::vector<std::size_t> idx(params_.size());
    for (std::size_t i = params_.size(); i-- > 0;) {
        const std::size_t n = params_[i].values.size();
        idx[i] = combination % n;
        combination /= n;
    }
    return idx;
}

std::vector<double>
KnobSpace::valuesOf(std::size_t combination) const
{
    const auto idx = indicesOf(combination);
    std::vector<double> values(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i)
        values[i] = params_[i].values[idx[i]];
    return values;
}

std::size_t
KnobSpace::combinationOf(const std::vector<std::size_t> &indices) const
{
    if (indices.size() != params_.size())
        throw std::invalid_argument("KnobSpace: index arity mismatch");
    std::size_t combo = 0;
    for (std::size_t i = 0; i < params_.size(); ++i) {
        const std::size_t n = params_[i].values.size();
        if (indices[i] >= n)
            throw std::out_of_range("KnobSpace: bad value index");
        combo = combo * n + indices[i];
    }
    return combo;
}

std::size_t
KnobSpace::findCombination(const std::vector<double> &values) const
{
    if (values.size() != params_.size())
        throw std::invalid_argument("KnobSpace: value arity mismatch");
    std::vector<std::size_t> idx(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
        bool found = false;
        for (std::size_t j = 0; j < params_[i].values.size(); ++j) {
            if (params_[i].values[j] == values[i]) {
                idx[i] = j;
                found = true;
                break;
            }
        }
        if (!found) {
            throw std::invalid_argument(
                "KnobSpace: value not admissible for parameter '" +
                params_[i].name + "'");
        }
    }
    return combinationOf(idx);
}

void
KnobTable::bind(ControlVariableBinding binding)
{
    if (!binding.setter)
        throw std::invalid_argument("KnobTable: null setter");
    bindings_.push_back(std::move(binding));
}

void
KnobTable::record(std::size_t combination, std::size_t var_index,
                  std::vector<double> value)
{
    if (var_index >= bindings_.size())
        throw std::out_of_range("KnobTable: bad variable index");
    if (values_ == nullptr)
        values_ = std::make_shared<Values>();
    else if (values_.use_count() > 1)
        values_ = std::make_shared<Values>(*values_); // Copy on write.
    Values &values = *values_;
    if (values.size() <= combination)
        values.resize(combination + 1);
    auto &row = values[combination];
    if (row.size() < bindings_.size())
        row.resize(bindings_.size());
    row[var_index] = std::move(value);
}

void
KnobTable::apply(std::size_t combination) const
{
    if (values_ == nullptr || combination >= values_->size())
        throw std::out_of_range("KnobTable: no values for combination");
    const auto &row = (*values_)[combination];
    for (std::size_t i = 0; i < bindings_.size(); ++i) {
        if (i >= row.size() || row[i].empty()) {
            throw std::logic_error("KnobTable: missing value for '" +
                                   bindings_[i].name + "'");
        }
        bindings_[i].setter(row[i]);
    }
}

const ControlVariableBinding &
KnobTable::binding(std::size_t i) const
{
    if (i >= bindings_.size())
        throw std::out_of_range("KnobTable: bad binding index");
    return bindings_[i];
}

const std::vector<double> &
KnobTable::value(std::size_t combination, std::size_t var_index) const
{
    if (values_ == nullptr || combination >= values_->size() ||
        var_index >= (*values_)[combination].size() ||
        (*values_)[combination][var_index].empty()) {
        throw std::out_of_range("KnobTable: value not recorded");
    }
    return (*values_)[combination][var_index];
}

} // namespace powerdial::core
